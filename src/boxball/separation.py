"""Colour separation: peel a coloured path into a monochrome path plus a
conserved colour word, and recombine them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    """The result of decoding a path: its monochrome part and the removed
    letters in reverse order.  The step table is replayed on demand."""

    source: Path
    monochrome: Path
    word: ColourWord

    @property
    def n_passes(self) -> int:
        return len(self.word)

    @property
    def steps(self) -> tuple[DecodeStep, ...]:
        """The step table; each access decodes `source` again, O(passes x L)."""
        return tuple(decode_steps(self.source))


def decode_steps(p: Path) -> Iterator[DecodeStep]:
    """Yield each state with the letter its pass removes, holding only the live
    state, until the monochrome part (the last row) in the minimal number of
    passes.  Termination is guaranteed; the cap only trips on a bug."""
    census = left = sum(1 for _ in p.letters(3))
    end = front(p)
    window = sum(1 for k, _ in p.letters() if k < end)  # letter slots up to the front
    cap = (census + 1) * (window + census + 1) + 2
    index = 0
    while left:
        nxt, carrier = decoding_pass(p)
        yield DecodeStep(index, p, carrier.bottom)
        p, index = nxt, index + 1
        left -= carrier.bottom >= 3  # the pass turned the removed letter into a 2
        if index > cap:
            raise RuntimeError("decoding failed to terminate; this is a bug")
    yield DecodeStep(index, p, None)


def separate(p: Path, steps: list | None = None) -> SeparationRecord:
    """Decode `p` in O(L) memory.  Each `DecodeStep` is appended to `steps`
    when given, so a caller that wants the step table decodes once."""
    removed = []
    for step in decode_steps(p):
        removed.append(step.removed)
        if steps is not None:
            steps.append(step)
    return SeparationRecord(p, step.state, tuple(reversed(removed[:-1])))


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
    2s to the word.  Raises ValueError on a `record` of another path."""
    if record is None:
        record = separate(p)
    elif record.source is not p and record.source != p:
        raise ValueError("record was decoded from another path")
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
