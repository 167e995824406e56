"""Automaton states and their time evolutions.

A state is a half-infinite array of boxes holding letters; only a finite prefix is stored
and the implicit tail is vacuum.  Evolutions are carrier sweeps: a row carrier of some
capacity gives the time evolution, and the two-slot column carrier (seeded with a 2) gives
the decoding pass that removes one letter per sweep.  One forward walker, `_sweep`, runs
both through cores of one shape, core(carrier, site) -> (emitted, carrier, tag): a carrier
is idle when its first entry is back at its start, and past the last ball a busy one needs
at most sum(carrier) - carrier[0] vacuum boxes.  Each path class names its vacuum box, the
swap cores of its boxes and its untraced column sweeps: basic ones run the case splits of
`col_box_core` / `box_col_core` inline, inhomogeneous ones call the cores.  Given a `trace`
list, a sweep calls the cores at every stored site and appends a `TraceStep` named tuple per
swap.  Row carriers, traced ones too, are count vectors: O(n) a site at any capacity.

An idle carrier passes an empty box unchanged, and the seeded column carrier (1,2) a box
with no letter >= 3: a row pass makes O(occupied + unloaded) swaps, a column pass
O(coloured + busy boxes), not O(L); traced ones visit all sites.  Untraced sweeps read a
path's `occupied` index of boxes holding a ball: a path scans for it once, on first use,
and keeps it, and a sweep gives its output a new one.  No public function changes a path it
is given; constructors store any iterable of ints as a tuple.  A sweep rewrites a working
copy (list sites and index) in place: a public sweep copies in and out, O(L), but `separate`
and `combine` thaw once for all passes, and their copy counts its leading index entries
known to hold no colour (`colourless`).  No column pass changes those or moves the first
colour left, so there a pass walks the index from the first colour, and an inverse one
stops at (1,2) left of it; a standalone pass, on a fresh copy, walks the whole index.

T (`time_evolution`, basic paths only) moves letters and calls no swap core, so it can
check them: it moves each ball of a working copy once, O(L) copying plus O(B + n) steps.

A count-vector swap is a pure map that a sweep meets at a few hundred distinct arguments,
so the path classes' `row_core`s and `InhomPath`'s `col_core` / `inv_col_core` are
memoised, each in a 1024-entry LRU cache (a bound keeps memory flat), as is a decoding
pass's outgoing carrier, so it is a shared frozen value; `col_box_core` / `box_col_core`,
whose int case splits cost about a lookup, and the `isomorphisms` functions are not.  As
`2 == 2.0 == True` hash alike, states hold ints only, and so must word letters, capacities
and `move_letter` letters.
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from functools import cached_property, lru_cache, partial
from operator import lt, ne

from .crystals import (
    ColumnPair,
    CountVector,
    Value,
    _check_alphabet,
    _set,
    counts_to_entries,
    entries_to_counts,
)
from .isomorphisms import (
    box_col_core,
    col_box_core,
    col_row_core,
    combinatorial_r,
    row_col_core,
)


class InvalidWordError(ValueError):
    """The (monochrome path, word) pair is not the image of any decoding."""


def _trim(p, sites: tuple) -> None:
    """Store `sites` on the new path `p` without its trailing vacuum boxes."""
    k = len(sites)
    while k > 0 and sites[k - 1] == p.vacuum:
        k -= 1
    _set(p, "sites", sites[:k])


def _thawed(p):
    """A working copy of `p` (list sites and index)."""
    w = object.__new__(type(p))
    w.__dict__.update(p.__dict__, sites=list(p.sites), occupied=list(p.occupied))
    return w


def _frozen(w, indexed: bool = True):
    """A kept path with the boxes of the working path `w`, less trailing vacuum."""
    sites, vacuum = w.sites, w.vacuum
    while sites and sites[-1] == vacuum:
        sites.pop()
    q = object.__new__(type(w))
    q.__dict__.update(w.__dict__, sites=tuple(sites), occupied=tuple(w.occupied))
    q.__dict__.pop("colourless", None)
    if not indexed:
        del q.__dict__["occupied"]
    return q


def _scan_occupied(p) -> tuple[int, ...]:
    """The sorted indices of the boxes of `p` holding a ball."""
    return tuple(k for k, v in enumerate(p.sites) if p.holds_ball(v))


# adapters giving every forward core the call shape core(carrier, site) -> (emitted, carrier, tag)
def _row_box_counts(carrier: CountVector, beta: int):
    """`row_box_core` on a count vector, O(n) at any capacity: the largest
    letter below `beta` leaves (bump), else the largest letter (head)."""
    k = beta - 2
    while k >= 0 and not carrier[k]:
        k -= 1
    tag = "bump"
    if k < 0:
        k, tag = len(carrier) - 1, "head"
        while not carrier[k]:
            k -= 1
        if k == beta - 1:  # every carrier letter is beta
            return beta, carrier, tag
    new = list(carrier)
    new[k] -= 1
    new[beta - 1] += 1
    return k + 1, tuple(new), tag


def _empty_row(p, capacity: int) -> CountVector:
    """The idle row carrier of `capacity`, shared by both path kinds."""
    return (capacity,) + (0,) * (p.n - 1)


def _r_core(carrier: CountVector, site: CountVector):
    new_site, new_carrier = combinatorial_r(carrier, site)
    return new_site, new_carrier, "R"


def _col_box_pair(carrier: tuple[int, int], g: int):
    emitted, top, bottom, tag = col_box_core(*carrier, g)
    return emitted, (top, bottom), tag


def _col_row_counts(carrier: tuple[int, int], counts: CountVector):
    new, top, bottom, tag = col_row_core(*carrier, counts_to_entries(counts))
    return entries_to_counts(new, len(counts)), (top, bottom), tag


def _row_col_counts(counts: CountVector, top: int, bottom: int):
    top, bottom, orig, tag = row_col_core(counts_to_entries(counts), top, bottom)
    return top, bottom, entries_to_counts(orig, len(counts)), tag


def _basic_column_sweep(w) -> tuple[int, int]:
    """The untraced decoding `_sweep` of a basic path, `col_box_core` inline.  A
    busy carrier (top > 1) settles in the first empty box it meets."""
    out, index, i = w.sites, w.occupied, w.__dict__.get("colourless", 0)
    rest = iter(index[i:] if i else index)
    for k in rest:  # the seeded carrier passes the boxes before the first colour
        if out[k] > 2:
            break
        i += 1
    else:  # no colour
        return 1, 2
    w.__dict__["colourless"], occupied = i, index[:i]
    top, bottom, out[k], j = 2, out[k], 1, k + 1  # the first colour's box empties (case d)
    for k in rest:
        if top != 1 and j < k:  # the empty box j takes top
            out[j], top = top, 1
            occupied.append(j)
        if top == 1 and bottom == 2 and out[k] <= 2:
            occupied.append(k)
            continue
        g = out[k]
        if g <= top:  # the box takes top, top becomes g
            out[k], top = top, g
        elif g <= bottom:  # the box takes bottom, bottom becomes g
            out[k], bottom = bottom, g
        else:  # the box takes top, (top, bottom) becomes (bottom, g)
            out[k], top, bottom = top, bottom, g
        if out[k] != 1:
            occupied.append(k)
        j = k + 1
    if top != 1:  # past the last ball: box j is trailing vacuum or past the end
        out[j : j + 1], top = [top], 1
        occupied.append(j)
    w.__dict__["occupied"] = occupied
    return top, bottom


def _basic_inv_column_sweep(w, letter: int) -> tuple[int, int]:
    """`_inv_column_sweep` of a basic path, `box_col_core` inline.  A busy
    carrier settles in the first empty box it meets, if any is left."""
    out, index, occupied, i = w.sites, w.occupied, [], w.__dict__.get("colourless", 0)
    top, bottom, last = 1, letter, index[i - 1] if i else -1  # the last box known without colour
    j = len(out) - 1  # the box before the last one visited
    for k in (*reversed(index), -1):
        if top != 1 and j > k:  # the empty box j gets bottom, (top, bottom) becomes (1, top)
            out[j], top, bottom = bottom, 1, top
            occupied.append(j)
        if k <= last and (k < 0 or top == 1 and bottom == 2):  # the rest passes unchanged
            break
        if top == 1 and bottom == 2 and out[k] <= 2:
            occupied.append(k)
            continue
        c = out[k]
        if c < top:  # the box gets bottom, (top, bottom) becomes (c, top)
            out[k], top, bottom = bottom, c, top
        elif c < bottom:  # the box gets top, top becomes c
            out[k], top = top, c
        else:  # the box gets bottom, bottom becomes c
            out[k], bottom = bottom, c
        if out[k] != 1:
            occupied.append(k)
        j = k - 1
    occupied.reverse()
    i = w.__dict__["colourless"] = bisect(index, k)  # the entries up to k, unvisited
    index[i:] = occupied
    return top, bottom


def _inv_column_sweep(w, letter: int) -> tuple[int, int]:
    core, holds, coloured = w.inv_col_core, w.holds_ball, w.holds_colour
    out, index, occupied, i = w.sites, w.occupied, [], w.__dict__.get("colourless", 0)
    top, bottom, last = 1, letter, index[i - 1] if i else -1
    j = len(out) - 1
    for k in (*reversed(index), -1):  # past the first ball a busy carrier settles
        if top == 1 and bottom == 2 and k <= last:  # the rest passes unchanged
            break
        while j >= k:
            if top == 1:
                if k < 0:
                    break
                j = k  # an idle carrier passes the empty boxes after k
                if bottom == 2 and not coloured(out[k]):
                    occupied.append(k)  # and the seeded one a box without colour
                    break
            elif j < 0:
                break
            top, bottom, out[j], _ = core(out[j], top, bottom)
            if holds(out[j]):
                occupied.append(j)
            j -= 1
    occupied.reverse()
    i = w.__dict__["colourless"] = bisect(index, k)
    index[i:] = occupied
    return top, bottom


_memo = lru_cache(maxsize=1024)  # see the module docstring
_outgoing = _memo(ColumnPair)  # a decoding pass's outgoing carrier (1, bottom)
_CELL_ALPHABET = ".23456789"  # letters 1..9 as text, '.' empty; ASCII only, unlike str.isdigit
_CELLS = bytes.maketrans(bytes(range(1, 10)), _CELL_ALPHABET.encode())  # letter byte -> its cell
_LETTERS = str.maketrans(_CELL_ALPHABET, bytes(range(1, 10)).decode())  # cell -> letter code point
_NOT_CELLS = str.maketrans("", "", _CELL_ALPHABET)  # deletes every cell: what is left is bad


class BasicPath(Value):
    """Capacity-one boxes; letter 1 is empty.  Trailing vacuum is trimmed."""

    mode = "basic"
    vacuum = 1
    row_core = staticmethod(_memo(_row_box_counts))
    col_core = staticmethod(_col_box_pair)  # traced pass; core-driven reference sweeps
    inv_col_core = staticmethod(box_col_core)
    col_sweep = staticmethod(_basic_column_sweep)  # the untraced passes, swaps inline
    inv_col_sweep = staticmethod(_basic_inv_column_sweep)
    holds_ball = staticmethod(partial(ne, 1))  # 1 != v, with no Python frame per call
    holds_colour = staticmethod(partial(lt, 2))  # 2 < v
    occupied = cached_property(_scan_occupied)

    def __init__(self, sites: tuple[int, ...], n: int) -> None:
        _check_alphabet(n)
        sites = tuple(sites)
        if sites and not ({*map(type, sites)} == {int} and min(sites) >= 1 and max(sites) <= n):
            raise ValueError(f"letters must be ints in 1..{n}: {sites}")
        _trim(self, sites)
        _set(self, "n", n)

    @classmethod
    def from_string(cls, text: str, n: int | None = None) -> "BasicPath":
        if bad := text.translate(_NOT_CELLS):
            raise ValueError(f"bad path character {bad[0]!r} at position {text.index(bad[0]) + 1}")
        letters = text.translate(_LETTERS).encode()  # a byte per letter
        if n is None:
            n = max(letters + b"\x02")  # the largest letter, at least 2
        return cls(tuple(letters), n)

    def time_step(self) -> "BasicPath":
        return time_evolution(self)

    def render(self, width: int | None = None) -> str:
        """'.' for an empty box, padded to `width` boxes; comma-separated when n > 9."""
        if self.n <= 9:  # one C-level translate of the letters' bytes
            return bytes(self.sites).translate(_CELLS).decode().ljust(width or 0, ".")
        cells = ["." if v == 1 else str(v) for v in self.sites]
        return ",".join(cells + ["."] * ((width or 0) - len(cells)))

    __str__ = render


class InhomPath(Value):
    """Boxes of varying capacities; site i is a count vector summing to its
    capacity.  Boxes beyond the prefix all have `tail_capacity`."""

    mode = "inhom"
    row_core = staticmethod(_memo(_r_core))
    col_core = staticmethod(_memo(_col_row_counts))
    inv_col_core = staticmethod(_memo(_row_col_counts))
    col_sweep = staticmethod(lambda w: _sweep(w, (1, 2), w.col_core, w.occupied, w.holds_colour))
    inv_col_sweep = staticmethod(_inv_column_sweep)
    holds_ball = staticmethod(lambda c: c[0] != sum(c))
    holds_colour = staticmethod(lambda c: sum(c) - c[0] - c[1])  # how many letters >= 3
    occupied = cached_property(_scan_occupied)

    def __init__(self, sites: tuple[CountVector, ...], n: int, tail_capacity: int = 1) -> None:
        _check_alphabet(n)
        if type(tail_capacity) is not int or tail_capacity < 1:
            raise ValueError(f"tail capacity must be an int >= 1, got {tail_capacity!r}")
        sites = tuple(tuple(c) for c in sites)
        for k, c in enumerate(sites):
            if len(c) != n or any(type(v) is not int or v < 0 for v in c) or sum(c) < 1:
                raise ValueError(f"bad count vector at site {k + 1}: {c}")
        _set(self, "n", n)
        _set(self, "tail_capacity", tail_capacity)
        _trim(self, sites)  # reads the vacuum box, so after n and tail_capacity

    @property
    def vacuum(self) -> CountVector:
        return _empty_row(self, self.tail_capacity)

    def time_step(self) -> "InhomPath":
        """Boxes of mixed capacity have no letter-moving rule; T is T_inf."""
        return carrier_evolution(self, None)

    def render(self) -> str:
        """Count vectors in brackets."""
        return "".join("[" + ",".join(str(v) for v in c) + "]" for c in self.sites)

    __str__ = render


Path = BasicPath | InhomPath


def ball_count(p: Path) -> int:
    if p.mode == "basic":
        return len(p.occupied)
    return sum(sum(p.sites[k]) - p.sites[k][0] for k in p.occupied)


TraceStep = namedtuple("TraceStep", "site tag carrier_before carrier_after site_before site_after")


# ---------------------------------------------------------------------------
# the letter-moving evolution on basic paths


def _moved(p: BasicPath, letters) -> BasicPath:
    """`p` after moving the balls of each of `letters` in turn (`move_letter`).
    A ball moves only in its letter's round, so the index, bucketed by letter
    once, gives every round its positions."""
    if p.mode != "basic":
        raise ValueError("mixed capacities move no letters; their T is InhomPath.time_step")
    w = _thawed(p)
    sites = w.sites
    balls: list[list[int]] = [[] for _ in range(p.n + 1)]
    for k in w.occupied:
        balls[sites[k]].append(k)
    sites += [1] * len(w.occupied)  # each ball moves once: at most B boxes past the end fill
    for letter in letters:
        moved = balls[letter]
        for i, pos in enumerate(moved):
            j = moved[i] = sites.index(1, pos + 1)
            sites[j], sites[pos] = letter, 1
    occupied = w.__dict__["occupied"] = sorted(k for ks in balls for k in ks)
    del sites[occupied[-1] + 1 if occupied else 0 :]  # the trailing vacuum in one slice
    return _frozen(w)


def move_letter(p: BasicPath, letter: int) -> BasicPath:
    """Move every box holding `letter` once, leftmost first, each to its
    nearest empty box on the right; boxes already moved stay frozen."""
    if type(letter) is not int or not 2 <= letter <= p.n:
        raise ValueError(f"letter must be an int in 2..{p.n}, got {letter!r}")
    return _moved(p, (letter,))


def time_evolution(p: BasicPath) -> BasicPath:
    """One time step: move colours from the largest letter down to 2."""
    return _moved(p, range(p.n, 1, -1))


# ---------------------------------------------------------------------------
# carrier sweeps
#
# `_sweep`, the one forward walk, rewrites a working path (see `_thawed`) in place, visiting
# its sites in `order` (all stored sites when traced, else the occupied ones).  A carrier is
# idle when its first entry is back at its start (a row's capacity, a column's top 1); a busy
# one passes the skipped empty boxes until it is idle.  Given `coloured` (untraced columns)
# the walk starts at the first box `coloured`, and the seeded (1,2) passes the boxes not
# `coloured` uncalled.  The visited boxes holding a ball form the new index.


# A traced sweep's core appends a `TraceStep` per swap, numbered from 1 after `base` (the
# length of `trace` before); bound with `partial`, it leaves untraced frames free of cells.
def _traced_core(core, trace, base, carrier, site):
    emitted, new, tag = core(carrier, site)
    trace.append(TraceStep(len(trace) - base, tag, carrier, new, site, emitted))
    return emitted, new, tag


def _sweep(w, carrier: tuple, core, order, coloured=None) -> tuple:
    """Push `carrier` through the working path `w` in `order`; returns it, idle."""
    idle, out, holds, occupied = carrier[0], w.sites, w.holds_ball, []
    j = 0  # the box after the last one visited
    if coloured is not None:  # a seeded column starts at the first colour
        i = w.__dict__.get("colourless", 0)
        for k in order[i:]:
            if coloured(out[k]):
                break
            i += 1
        w.__dict__["colourless"], occupied, order = i, w.occupied[:i], order[i:]
    for k in order:
        while j <= k:
            if carrier[0] == idle:
                j = k  # an idle carrier passes the empty boxes before k
                if coloured is not None and carrier[1] == 2 and not coloured(out[k]):
                    occupied.append(k)  # and the seeded column a box without colour
                    break
            out[j], carrier, _ = core(carrier, out[j])
            if holds(out[j]):
                occupied.append(j)
            j += 1
    if carrier[0] != idle:
        # past box j a busy carrier drops a ball or more into each vacuum box, so it needs at
        # most sum(carrier) - carrier[0]: a row's balls, a column's bottom (it settles in one)
        out += (w.vacuum,) * (j + sum(carrier) - carrier[0] - len(out))
        while carrier[0] != idle and j < len(out):
            out[j], carrier, _ = core(carrier, out[j])
            if holds(out[j]):
                occupied.append(j)
            j += 1
        if carrier[0] != idle:
            raise RuntimeError("carrier sweep failed to unload; this is a bug")
    w.__dict__["occupied"] = occupied
    return carrier


def carrier_evolution(p: Path, capacity: int | None = None, trace: list | None = None) -> Path:
    """Sweep a row carrier of the given capacity across the path.

    `capacity=None` means unbounded, realized as the total ball count
    (beyond which the evolution is stable).  Given a list `trace`, the sweep
    visits every stored site and appends one `TraceStep` per swap, numbered from 1."""
    if capacity is not None and (type(capacity) is not int or capacity < 1):
        raise ValueError(f"carrier capacity must be an int >= 1 or None, got {capacity!r}")
    empty = _empty_row(p, max(1, ball_count(p)) if capacity is None else capacity)
    w = _thawed(p)
    if trace is None:
        _sweep(w, empty, p.row_core, p.occupied)
    else:
        core = partial(_traced_core, p.row_core, trace, len(trace) - 1)
        _sweep(w, empty, core, range(len(p.sites)))
    return _frozen(w)


def decoding_pass(p: Path, trace: list | None = None) -> tuple[Path, ColumnPair]:
    """One pass of the decoding carrier; returns (path, outgoing carrier).

    The carrier starts as (1,2), deposits its 2 somewhere, and leaves with
    the removed letter in its bottom slot.  Beyond the front the carrier
    is inert, so the sweep stops at most one box past it.  A `trace` list
    is filled as by `carrier_evolution`.
    """
    w = p if type(p.sites) is list else _thawed(p)
    if trace is None:
        _, bottom = p.col_sweep(w)
    else:
        core = partial(_traced_core, p.col_core, trace, len(trace) - 1)
        _, bottom = _sweep(w, (1, 2), core, range(len(p.sites)))
    return w if w is p else _frozen(w), _outgoing(1, bottom, p.n)


def encoding_pass(p: Path, removed_letter: int) -> Path:
    """Inverse of `decoding_pass`: push the carrier (1, letter) back through
    the path right to left.  The carrier must emerge at the left end in its
    seeded state (1,2); otherwise the pair is not decodable and the call
    raises InvalidWordError."""
    if type(removed_letter) is not int or not 2 <= removed_letter <= p.n:
        raise InvalidWordError(f"word letters must be ints in 2..{p.n}, got {removed_letter!r}")
    w = p if type(p.sites) is list else _thawed(p)
    top, bottom = p.inv_col_sweep(w, removed_letter)
    if (top, bottom) != (1, 2):
        raise InvalidWordError(
            f"carrier emerged as ({top},{bottom}), not (1,2); word is not decodable"
        )
    return w if w is p else _frozen(w)
