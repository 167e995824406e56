"""Colour separation: peel a coloured path into a monochrome path plus a
conserved colour word, and recombine them."""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import (
    InvalidWordError,
    Path,
    carrier_evolution,
    decoding_pass,
    encoding_pass,
    front,
)

ColourWord = tuple[int, ...]


def is_monochrome(p: Path) -> bool:
    """True when no letter exceeds 2."""
    return next(p.letters(3), None) is None


@dataclass(frozen=True)
class DecodeStep:
    index: int
    state: Path
    removed: int | None


@dataclass(frozen=True)
class SeparationRecord:
    """The result of decoding a path: its monochrome part, the removed
    letters in reverse order, and the full step table."""

    source: Path
    monochrome: Path
    word: ColourWord
    steps: tuple[DecodeStep, ...]

    @property
    def n_passes(self) -> int:
        return len(self.word)


def separate(p: Path) -> SeparationRecord:
    """Run decoding passes until no letter exceeds 2, with the minimal
    number of passes.  Termination is guaranteed; the cap below only trips
    on an implementation bug."""
    census = left = sum(1 for _ in p.letters(3))
    end = front(p)
    window = sum(1 for k, _ in p.letters() if k < end)  # letter slots up to the front
    cap = (census + 1) * (window + census + 1) + 2
    removed: list[int] = []
    states = [p]
    cur = p
    while left:
        cur, carrier = decoding_pass(cur)
        removed.append(carrier.bottom)
        states.append(cur)
        left -= carrier.bottom >= 3  # the pass turned the removed letter into a 2
        if len(removed) > cap:
            raise RuntimeError("decoding failed to terminate; this is a bug")
    n_passes = len(removed)
    steps = tuple(
        DecodeStep(s, states[s], removed[s] if s < n_passes else None)
        for s in range(n_passes + 1)
    )
    return SeparationRecord(p, cur, tuple(reversed(removed)), steps)


def combine(monochrome: Path, word: ColourWord) -> Path:
    """Inverse of `separate` on its image: replay the removed letters from
    the word front backwards through the path.  Raises InvalidWordError if
    some pass cannot have produced the pair."""
    if not is_monochrome(monochrome):
        raise InvalidWordError("recombination must start from a monochrome path")
    cur = monochrome
    for y in word:
        cur = encoding_pass(cur, y)
    return cur


@dataclass(frozen=True)
class CommutationReport:
    passed: bool
    capacity: int | None
    word: ColourWord
    mismatch: str | None

    def __str__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        if self.passed:
            return f"commutation ok (capacity {cap}, word {''.join(map(str, self.word))})"
        return f"commutation FAILED (capacity {cap}): {self.mismatch}"


def check_commutation(
    p: Path, capacity: int | None, record: SeparationRecord | None = None
) -> CommutationReport:
    """Verify that evolving then decoding agrees with decoding then
    evolving: same monochrome part, same word letter by letter.

    Both decodes are padded to a common pass count; a pass on an already
    monochrome path removes a 2 and changes nothing, so padding prepends
    2s to the word."""
    if record is None:
        record = separate(p)
    evolved = carrier_evolution(p, capacity)
    evolved_record = separate(evolved)
    n = max(record.n_passes, evolved_record.n_passes)
    word_p = (2,) * (n - record.n_passes) + record.word
    word_q = (2,) * (n - evolved_record.n_passes) + evolved_record.word
    mono_evolved = carrier_evolution(record.monochrome, capacity)
    mismatch = None
    if word_p != word_q:
        mismatch = f"words differ: {word_p} vs {word_q}"
    elif mono_evolved != evolved_record.monochrome:
        mismatch = (
            f"monochrome parts differ: {mono_evolved} vs {evolved_record.monochrome}"
        )
    return CommutationReport(mismatch is None, capacity, word_p, mismatch)
