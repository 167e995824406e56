"""Coloured box-ball automaton with crystal-isomorphism colour separation."""

from .crystals import (
    ColumnPair,
    DomainSizeError,
    RowTableau,
    TensorElement,
    box,
    col,
    counts_to_row,
    eps_phi,
    epsilon,
    highest_weights,
    is_highest_weight,
    iter_crystal,
    iter_tensor,
    lowering,
    phi,
    raising,
    row,
    tensor,
    vacuum_row,
    weight_of,
)
from .dynamics import (
    BasicPath,
    EvolutionTrace,
    InhomPath,
    InvalidWordError,
    ball_count,
    carrier_evolution,
    carrier_evolution_traced,
    decoding_pass,
    decoding_pass_traced,
    encoding_pass,
    front,
    initial_carrier,
    move_letter,
    time_evolution,
)
from .isomorphisms import (
    SwapResult,
    UnsupportedShapeError,
    apply_word,
    carrier_potential,
    combinatorial_r,
    swap_adjacent,
    swap_pair,
)
from .separation import (
    CommutationReport,
    SeparationRecord,
    check_commutation,
    colour_word,
    combine,
    is_monochrome,
    separate,
)

__version__ = "0.1.0"
