"""Coloured box-ball automaton with crystal-isomorphism colour separation.

The package root re-exports the names of the README example and the path
API; every other name is imported from its submodule.
"""

from .dynamics import (
    BasicPath,
    InhomPath,
    InvalidWordError,
    carrier_evolution,
    decoding_pass,
    encoding_pass,
    time_evolution,
)
from .separation import SeparationRecord, check_commutation, combine, separate

__version__ = "0.1.0"
