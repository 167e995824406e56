"""Colour separation: peel a coloured path into a monochrome path plus a
conserved colour word, and recombine them."""

from __future__ import annotations

from .crystals import Value, _set
from .dynamics import (
    InvalidWordError,
    Path,
    _frozen,
    _thawed,
    ball_count,
    carrier_evolution,
    decoding_pass,
    encoding_pass,
)

ColourWord = tuple[int, ...]


def is_monochrome(p: Path) -> bool:
    """True when no letter exceeds 2; reads the balls only."""
    balls = p.letters if p.mode == "basic" else map(p.sites.__getitem__, p.occupied)
    return not any(map(p.holds_colour, balls))


class DecodeStep(Value):
    def __init__(self, index: int, state: Path, removed: int | None) -> None:
        self._store(index, state, removed)


class SeparationRecord(Value):
    """The result of decoding a path: its monochrome part and the removed
    letters in reverse order.  The step table is replayed on demand."""

    def __init__(self, source: Path, monochrome: Path, word: ColourWord) -> None:
        _set(self, "source", source)
        _set(self, "monochrome", monochrome)
        _set(self, "word", word)

    @property
    def n_passes(self) -> int:
        return len(self.word)

    @property
    def steps(self) -> tuple[DecodeStep, ...]:
        """The step table; each access decodes `source` again, O(passes x L)."""
        separate(self.source, rows := [])
        return tuple(rows)


def separate(p: Path, steps: list | None = None) -> SeparationRecord:
    """Decode a working copy of `p`, which becomes the monochrome part, in <= B passes, each
    from the first colour: one scan of the index finds them all, as a pass keeps the entries
    before it.  A list `steps` receives a `DecodeStep` per pass (its letter and a copy of the
    state it began from, of either kind indexed like every path a call returns), then the
    monochrome part's; without one, none is built."""
    w = _thawed(p)
    coloured, removed, basic = w.holds_colour, [], w.mode == "basic"
    i = 0  # the leading index entries known to hold no colour
    for index in range(ball_count(w) + 1):  # <= B passes: test_minimal_passes_within_window_bound
        occupied = w.occupied  # the index the last pass rebuilt
        while i < len(occupied) and not coloured(w.letters[i] if basic else w.sites[occupied[i]]):
            i += 1
        if i == len(occupied):  # no colour left
            mono = _frozen(w)
            if steps is not None:
                steps.append(DecodeStep(index, mono, None))
            return SeparationRecord(p, mono, tuple(reversed(removed)))
        w.__dict__["colourless"] = i
        row = None if steps is None else _frozen(w, in_place=False)
        bottom = decoding_pass(w)[1].bottom  # rewrites w in place
        if steps is not None:
            steps.append(DecodeStep(index, row, bottom))
        removed.append(bottom)
    raise RuntimeError("decoding failed to terminate; this is a bug")


def combine(monochrome: Path, word: ColourWord) -> Path:
    """Inverse of `separate` on its image: replay the removed letters from the word front
    backwards through one working copy of the path.  Raises InvalidWordError if no decoding
    gives the pair, as when the word starts with 2: a last pass removes a letter >= 3."""
    if not is_monochrome(monochrome):
        raise InvalidWordError("recombination must start from a monochrome path")
    word = tuple(word)
    if word[:1] == (2,) and type(word[0]) is int:  # a float 2.0 gets encoding_pass's message
        raise InvalidWordError("a word cannot start with 2; no decoding removes a 2 last")
    w = _thawed(monochrome)
    w.__dict__["colourless"] = len(w.occupied)  # no entry holds a colour
    for y in word:
        encoding_pass(w, y)
    return _frozen(w)


class CommutationReport(Value):
    def __init__(self, passed: bool, capacity: int | None, word: ColourWord,
                 mismatch: str | None) -> None:
        _set(self, "passed", passed)
        _set(self, "capacity", capacity)
        _set(self, "word", word)
        _set(self, "mismatch", mismatch)

    def __str__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        if self.passed:
            return f"commutation ok (capacity {cap}, word {''.join(map(str, self.word))})"
        return f"commutation FAILED (capacity {cap}): {self.mismatch}"


def check_commutation(
    p: Path, capacity: int | None, record: SeparationRecord | None = None
) -> CommutationReport:
    """Verify that evolving then decoding agrees with decoding then evolving: the
    same monochrome part, and the same word as `separate` returns it.  Raises
    ValueError on a `record` of another path."""
    if record is None:
        record = separate(p)
    elif record.source is not p and record.source != p:
        raise ValueError("record was decoded from another path")
    evolved_record = separate(carrier_evolution(p, capacity))
    mono_evolved = carrier_evolution(record.monochrome, capacity)
    mismatch = None
    if record.word != evolved_record.word:
        mismatch = f"words differ: {record.word} vs {evolved_record.word}"
    elif mono_evolved != evolved_record.monochrome:
        mismatch = f"monochrome parts differ: {mono_evolved} vs {evolved_record.monochrome}"
    return CommutationReport(mismatch is None, capacity, record.word, mismatch)
