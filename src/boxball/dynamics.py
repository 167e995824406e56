"""Automaton states and their time evolutions.

A state is a half-infinite array of boxes holding letters; only a finite prefix is stored
and the implicit tail is vacuum.  Evolutions are carrier sweeps: a row carrier of some
capacity gives the time evolution, and the two-slot column carrier (seeded with a 2) gives
the decoding pass that removes one letter per sweep.  One forward walker, `_sweep`, runs
both through cores of one shape, core(carrier, site) -> (emitted, carrier, tag, held),
`held` whether the emitted box holds a ball (the inverse core returns (top, bottom, box,
tag, held)), so a walk indexes the boxes it visits from its cores and tests none itself.
A carrier is idle when its first entry is back at its start, and past the last ball a busy
one needs at most sum(carrier) - carrier[0] vacuum boxes.  Each path class names its vacuum
box, the swap cores of its boxes and its untraced sweeps: basic ones run `row_box_core`,
`col_box_core` and `box_col_core` inline (no inverse core), inhomogeneous ones call the
cores.  Both row cores are `combinatorial_r`, a basic path's (`_row_box_counts`) on a
one-letter row.
Given a `trace` list, a sweep calls the cores at every stored site and appends a `TraceStep`
named tuple per swap.  A row carrier the cores drive is a count vector, O(n) a site; the
untraced basic one is a sorted window of its letters, O(log load) a box; both at any capacity.

An idle carrier passes an empty box uncalled, and every ball a walk meets goes through a
swap (a core or an inline case split): a row pass makes O(occupied + unloaded) swaps, a
column pass O(occupied + busy boxes), not O(L); traced ones visit all sites.  A column with
an empty top meets a ball in two cases, an exchange with its bottom or an emptied box: the
seeded (1,2) exchanges a 2 for a 2 (`col_row_core` I-III, `row_col_core` 3-5), no skip.
Untraced sweeps read a path's `occupied` index of boxes holding a ball: a path scans for it
once, on first use, and keeps it, and a sweep gives its output a new one.  No public
function changes a path it is given; constructors store any iterable of ints as a tuple.

A basic path is its balls: a sweep's output stores only its index and their `letters`; its
boxes (`sites`) are made from them on first read, O(L), as a constructed path's balls are
scanned from its boxes.  A sweep rewrites a working copy in place: a basic one's index and
letters lists, an inhomogeneous one's list sites and index (its empty boxes of other
capacities are not vacuum).  A public call copies in, and its working copy, frozen in place,
becomes the path it returns.  So on a basic path a sweep made, the untraced
`carrier_evolution`, `decoding_pass` and `encoding_pass`, each pass of `separate` and
`combine`, `is_monochrome` and `ball_count` cost O(B) steps and copies, and `render` O(B)
steps into an O(L) row; reading `sites`, a traced sweep (the one walk over a basic path's
boxes: it spreads the balls over a list of its own and gathers them back), T and every call
on an inhomogeneous path cost O(L).  No working copy holds boxes of a basic path.
`separate` and `combine` thaw once for all passes, and their copy counts its leading index
entries known to hold no colour (`colourless`; `separate` scans for it).  No column pass
changes those or moves the first colour left, so there a pass walks the index from the first
colour, and an inverse one stops at (1,2) left of it; a fresh copy walks the whole index.

T (`time_evolution`, basic paths only) moves letters and calls no swap core, so it can
check them: it spreads a path's balls over a list of boxes, O(L), moves each ball once,
O(B + n) steps, and keeps the moved balls; its C-level searches for empty boxes read no box
twice in a letter's round: O(L) per round.

A count-vector swap is a pure map a sweep meets again and again (20 steps of a 150-site n = 5
path: 2,500-3,300 R calls at 670-880 distinct arguments under T_2, 1,160-1,690 under T_inf), so
the path classes' `row_core`s (a basic path's, also its `inf_row_core`, serves traced sweeps
only) and `InhomPath`'s `inf_row_core`, `col_core` and `inv_col_core` are memoised, each in a
1024-entry LRU cache (a bound keeps memory flat), as is a decoding pass's outgoing carrier, a
shared frozen value; a basic path's `col_core`, whose int case split costs about a lookup, and
the `isomorphisms` functions are not.  Unbounded row sweeps of an inhomogeneous path call
`inf_row_core`, the same R in a memo of its own.  A T_inf carrier's capacity is its path's ball
count, so its swaps seldom recur on another path, while a finite capacity's do: of three such
paths, the second and third reuse 450-630 of their T_2 arguments.  In one memo T_inf's would
evict them.  A memoised core works out `held` once per distinct argument pair, so a memo hit
also answers whether the box holds a ball, and `InhomPath.holds_ball` serves only the first-use
index scan of a constructed path.  As `2 == 2.0 == True` hash alike, states hold ints only, and
so must word letters, capacities and `move_letter` letters.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from collections import namedtuple
from functools import cached_property, lru_cache, partial
from itertools import chain
from operator import attrgetter, lt

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
    """A working copy of `p`: a basic path's balls (list index and letters), an
    inhomogeneous one's boxes (list sites and index)."""
    w = object.__new__(type(p))
    if p.mode == "basic":
        w.__dict__.update(n=p.n, occupied=list(p.occupied), letters=list(p.letters))
    else:
        w.__dict__.update(p.__dict__, sites=list(p.sites), occupied=list(p.occupied))
    return w


def _frozen(w, in_place: bool = True):
    """The working path `w` made a kept path, indexed and with no `colourless`: a basic one its
    balls (tuple index and letters), an inhomogeneous one its boxes less trailing vacuum
    (tuple sites and index).  In place, `w` becomes it; else it is a new path and `w` works on."""
    d = w.__dict__
    q = w if in_place else object.__new__(type(w))
    if w.mode == "basic":  # its balls: any `sites` read off a working copy are stale
        _set(q, "__dict__", {"n": w.n, "occupied": tuple(d["occupied"]),
                             "letters": tuple(d["letters"])})
        return q
    q.__dict__.update(d, occupied=tuple(d["occupied"]))
    q.__dict__.pop("colourless", None)
    _trim(q, tuple(d["sites"]))
    return q


def _scan_occupied(p) -> tuple[int, ...]:
    """The sorted indices of the boxes of `p` holding a ball; a basic path keeps their
    letters from the same scan, so it scans once whichever of the two it reads first."""
    sites = p.sites
    if p.mode == "inhom":
        return tuple(k for k, c in enumerate(sites) if p.holds_ball(c))
    index = [k for k, v in enumerate(sites) if v != 1]
    _set(p, "letters", tuple(map(sites.__getitem__, index)))
    return tuple(index)


def _scan_letters(p) -> tuple[int, ...]:
    """The letters of a basic path's balls in index order, scanned with its index."""
    _set(p, "occupied", _scan_occupied(p))
    return p.__dict__["letters"]


def _boxes(p) -> list[int]:
    """The boxes of a basic path up to its last ball, made from its balls: 1 off the index."""
    index = p.occupied
    sites = [1] * (index[-1] + 1 if index else 0)
    for k, v in zip(index, p.letters):
        sites[k] = v
    return sites


# adapters giving every forward core the call shape core(carrier, site) -> (emitted, carrier,
# tag, held), `held` whether the emitted box holds a ball; the inverse core returns (top,
# bottom, box, tag, held)
def _row_box_counts(carrier: CountVector, beta: int):
    """`row_box_core` on a count vector: R on a one-letter row, O(n) at any capacity."""
    box = [0] * len(carrier)
    box[beta - 1] = 1
    emitted, new = combinatorial_r(carrier, tuple(box))
    letter = emitted.index(1) + 1
    return letter, new, "bump" if letter < beta else "head", letter != 1


def _empty_row(p, capacity: int) -> CountVector:
    """The idle row carrier of `capacity`, shared by both path kinds."""
    return (capacity,) + (0,) * (p.n - 1)


def _r_core(carrier: CountVector, site: CountVector):
    new_site, new_carrier = combinatorial_r(carrier, site)
    return new_site, new_carrier, "R", new_site[0] != sum(new_site)


def _col_box_pair(carrier: tuple[int, int], g: int):
    emitted, top, bottom, tag = col_box_core(*carrier, g)
    return emitted, (top, bottom), tag, emitted != 1


def _col_row_counts(carrier: tuple[int, int], counts: CountVector):
    new, top, bottom, tag = col_row_core(*carrier, counts_to_entries(counts))
    box = entries_to_counts(new, len(counts))
    return box, (top, bottom), tag, box[0] != len(new)


def _row_col_counts(counts: CountVector, top: int, bottom: int):
    top, bottom, orig, tag = row_col_core(counts_to_entries(counts), top, bottom)
    box = entries_to_counts(orig, len(counts))
    return top, bottom, box, tag, box[0] != len(orig)


# The basic kernels rewrite a working copy's index and letters lists in place: a ball only
# moves right under a forward carrier and left under an inverse one, and a carrier holds a
# ball or two, so the slot a kernel writes never passes the ball it reads.  A column carrier
# that is idle (top 1) holds one ball, so the ball it reads sits in the slot it writes next,
# m; a busy one holds two, so that ball sits one slot on.
def _basic_column_sweep(w) -> tuple[int, int]:
    """The untraced decoding `_sweep` of a basic path from index entry `colourless` on, with
    `col_box_core` inline.  An empty top meets a ball g in two cases: bottom and g exchange
    (g <= bottom: the seeded (1,2) passes a colourless box so) or the box empties, which
    starts a busy spell."""
    index, letters, m = w.occupied, w.letters, w.__dict__.get("colourless", 0)  # m: next slot
    top, bottom, j = 1, 2, 0  # j: the box after the last one visited
    for k in index[m:]:
        if top != 1:
            if j < k:  # the empty box j takes top
                index[m], letters[m], top = j, top, 1
                m += 1
            else:
                g = letters[m + 1]
                if g <= top:  # the box takes top, top becomes g
                    letters[m], top = top, g
                elif g <= bottom:  # the box takes bottom, bottom becomes g
                    letters[m], bottom = bottom, g
                else:  # the box takes top, (top, bottom) becomes (bottom, g)
                    letters[m], top, bottom = top, bottom, g
                index[m] = k
                m += 1
                j = k + 1
                continue
        g = letters[m]
        if g <= bottom:  # exchange: the box takes bottom, bottom becomes g
            letters[m], bottom = bottom, g
            m += 1
        else:  # the box empties, (top, bottom) becomes (bottom, g)
            top, bottom, j = bottom, g, k + 1
    if top != 1:  # past the last ball: box j, trailing vacuum, takes top into the last slot
        index[m], letters[m], top = j, top, 1
    return top, bottom


def _basic_row_sweep(w, capacity: int, core) -> None:
    """The untraced row `_sweep` of a basic path, `row_box_core` inline: no `core` call.  The
    carrier's balls lie sorted in row[lo:hi]: a letter replaces the largest one below it in
    place or enters at lo - 1, and the largest leaves from hi - 1, so lo falls at most once per
    ball, hi never rises and no letter moves in memory: O(log load) a ball at any capacity."""
    index, letters = w.occupied, w.letters
    lo = hi = len(index)
    row = [0] * hi  # 0: no letter
    m = j = 0  # m: the next slot; j: the box after the last one visited
    for k, beta in zip(index, letters):
        while lo < hi and j < k:  # the busy carrier drops its largest letter into box j
            hi -= 1
            index[m], letters[m] = j, row[hi]
            m += 1
            j += 1
        j = k + 1
        i = bisect_left(row, beta, lo, hi)
        if i > lo:  # bump: the largest letter below beta leaves
            letters[m], row[i - 1] = row[i - 1], beta
        elif hi - lo < capacity:  # an empty slot leaves, beta enters: the box empties
            lo -= 1
            row[lo] = beta
            continue
        else:  # full of letters >= beta: the largest leaves
            hi, lo = hi - 1, lo - 1
            letters[m], row[lo] = row[hi], beta
        index[m] = k
        m += 1
    index[m:] = range(j, j + hi - lo)  # past the last ball, largest first
    letters[m:] = reversed(row[lo:hi])


def _basic_inv_column_sweep(w, letter: int) -> tuple[int, int]:
    """The untraced encoding pass of a basic path, `box_col_core` inline, its slots written from
    the right.  An empty top empties a box c < bottom, else exchanges bottom and c; a busy
    carrier settles in the next empty box."""
    index, letters, i = w.occupied, w.letters, w.__dict__.get("colourless", 0)
    top, bottom, last = 1, letter, index[i - 1] if i else -1  # the last box known without colour
    m = len(index) - 1  # the next slot
    for k in reversed(index):
        if top != 1:
            if j > k:  # the empty box j gets bottom, (top, bottom) becomes (1, top)
                index[m], letters[m], top, bottom = j, bottom, 1, top
                m -= 1
            else:
                c = letters[m - 1]
                if c < top:  # the box gets bottom, (top, bottom) becomes (c, top)
                    letters[m], top, bottom = bottom, c, top
                elif c < bottom:  # the box gets top, top becomes c
                    letters[m], top = top, c
                else:  # the box gets bottom, bottom becomes c
                    letters[m], bottom = bottom, c
                index[m] = k
                m -= 1
                j = k - 1
                continue
        if k <= last and bottom == 2:  # the rest passes unchanged
            break
        c = letters[m]
        if c < bottom:  # the box empties: it gets top, top becomes c
            top, j = c, k - 1  # j: the box before the last one visited
        else:  # exchange: the box gets bottom, bottom becomes c
            letters[m], bottom = bottom, c
            m -= 1
    else:  # past the first ball a busy carrier settles in box j, if there is one
        if top != 1 and j >= 0:
            index[m], letters[m], top, bottom = j, bottom, 1, top
            m -= 1
    # back at (1,2) the carrier holds the one ball it came in with, so slots 0..m hold the
    # entries up to k, unvisited
    w.__dict__["colourless"] = m + 1
    return top, bottom


def _inv_column_sweep(w, letter: int) -> tuple[int, int]:  # an inhomogeneous path's
    core, out, occupied, i = w.inv_col_core, w.sites, [], w.__dict__.get("colourless", 0)
    index = w.occupied
    top, bottom, last = 1, letter, index[i - 1] if i else -1
    j = len(out) - 1
    for k in chain(reversed(index), (-1,)):  # past the first ball a busy carrier settles
        if top == 1 and bottom == 2 and k <= last:  # the rest passes unchanged
            break
        while j >= k:
            if top == 1:
                if k < 0:
                    break
                j = k  # an idle carrier passes the empty boxes after k
            elif j < 0:
                break
            top, bottom, out[j], _, held = core(out[j], top, bottom)
            if held:
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
    """Capacity-one boxes; letter 1 is empty.  Trailing vacuum is trimmed.  A constructed path
    holds its boxes (`sites`), a swept one its balls (`occupied` and `letters`); either gives
    the other on first read and keeps it.  The balls are canonical: equality and hash read
    them, so two swept paths compare without their boxes."""

    mode = "basic"
    vacuum = 1
    row_core = inf_row_core = staticmethod(_memo(_row_box_counts))  # traced sweeps only
    col_core = staticmethod(_col_box_pair)  # the traced decoding pass only
    row_sweep = staticmethod(_basic_row_sweep)  # the untraced passes, swaps inline
    col_sweep = staticmethod(_basic_column_sweep)
    inv_col_sweep = staticmethod(_basic_inv_column_sweep)
    holds_colour = staticmethod(partial(lt, 2))  # 2 < v
    sites = cached_property(lambda p: tuple(_boxes(p)))
    occupied = cached_property(_scan_occupied)
    letters = cached_property(_scan_letters)

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
        """'.' for an empty box, padded to `width` boxes; comma-separated when n > 9.  The
        cells are written at the balls: one C-level byte translation of the letters when
        n <= 9."""
        index = self.occupied
        boxes = max(index[-1] + 1 if index else 0, width or 0)
        if self.n <= 9:
            row = bytearray(b".") * boxes
            for k, cell in zip(index, bytes(self.letters).translate(_CELLS)):
                row[k] = cell
            return row.decode()
        cells = ["."] * boxes
        for k, v in zip(index, self.letters):
            cells[k] = str(v)
        return ",".join(cells)

    __str__ = render


BasicPath._key = attrgetter("letters", "occupied", "n")  # `Value` equality and hash: the balls


class InhomPath(Value):
    """Boxes of varying capacities; site i is a count vector summing to its
    capacity.  Boxes beyond the prefix all have `tail_capacity`."""

    mode = "inhom"
    row_core = staticmethod(_memo(_r_core))
    inf_row_core = staticmethod(_memo(_r_core))  # T_inf's own: see the module docstring
    col_core = staticmethod(_memo(_col_row_counts))
    inv_col_core = staticmethod(_memo(_row_col_counts))
    row_sweep = staticmethod(lambda w, cap, core: _sweep(w, _empty_row(w, cap), core, w.occupied))
    col_sweep = staticmethod(lambda w: _sweep(w, (1, 2), w.col_core, w.occupied))
    inv_col_sweep = staticmethod(_inv_column_sweep)
    holds_ball = staticmethod(lambda c: c[0] != sum(c))
    holds_colour = staticmethod(lambda c: sum(c) - c[0] - c[1])  # how many letters >= 3
    occupied = cached_property(_scan_occupied)

    def __init__(self, sites: tuple[CountVector, ...], n: int, tail_capacity: int = 1) -> None:
        _check_alphabet(n)
        if type(tail_capacity) is not int or tail_capacity < 1:
            raise ValueError(f"tail capacity must be an int >= 1, got {tail_capacity!r}")
        sites = tuple(map(tuple, sites))
        for k, c in enumerate(sites):
            if len(c) != n or any(type(v) is not int or v < 0 for v in c) or sum(c) < 1:
                raise ValueError(f"bad count vector at site {k + 1}: {c}")
        _set(self, "n", n)
        _set(self, "tail_capacity", tail_capacity)
        _set(self, "vacuum", _empty_row(self, tail_capacity))
        _trim(self, sites)  # reads the vacuum box, so after it

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


def _moved(p: BasicPath, rounds) -> BasicPath:
    """`p` after moving the balls of each letter of `rounds` in turn (`move_letter`).
    A ball moves only in its letter's round, so the index, bucketed by letter
    once, gives every round its positions."""
    if p.mode != "basic":
        raise ValueError("mixed capacities move no letters; their T is InhomPath.time_step")
    index = p.occupied
    sites = [1] * ((index[-1] + 1 if index else 0) + len(index))  # B boxes past the end may fill
    balls: list[list[int]] = [[] for _ in range(p.n + 1)]
    for k, v in zip(index, p.letters):  # each ball spread into its box and bucketed
        sites[k] = v
        balls[v].append(k)
    for letter in rounds:
        moved = balls[letter]
        j = 0  # each ball lands right of the one before it: no box of a round is read twice
        for i, pos in enumerate(moved):
            j = moved[i] = sites.index(1, (pos if pos > j else j) + 1)
            sites[j], sites[pos] = letter, 1
    w = object.__new__(BasicPath)  # a working copy of the moved balls
    index = sorted(chain.from_iterable(balls))
    w.__dict__.update(n=p.n, occupied=index, letters=list(map(sites.__getitem__, index)))
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
# `_sweep`, the one forward walk, rewrites the boxes of a working path in place (a basic
# one's in a local list), visiting them in `order` (every stored box when None, as traced
# sweeps do, else the occupied ones).  A carrier is idle when its first entry is back at its
# start (a row's capacity, a column's top 1); a busy one passes the skipped empty boxes until
# it is idle.  The walk starts at index entry `colourless`, which only `separate` and
# `combine` set on their copies and `_frozen` drops: no row sweep and no traced one, whose
# `order` it must not slice, sees it.  The visited boxes holding a ball form the index: the
# core's `held` field says which, so no visit tests its box (a memoised core answers it once
# per distinct argument pair).


# A traced sweep's core appends a `TraceStep` per swap, numbered from 1 after `base` (the
# length of `trace` before); bound with `partial`, it leaves untraced frames free of cells.
def _traced_core(core, trace, base, carrier, site):
    swap = emitted, new, tag, _ = core(carrier, site)
    trace.append(TraceStep(len(trace) - base, tag, carrier, new, site, emitted))
    return swap


def _sweep(w, carrier: tuple, core, order=None) -> tuple:
    """Push `carrier` through the working path `w` in `order`; returns it, idle."""
    basic = w.mode == "basic"  # a basic copy's balls are spread over a local list of boxes
    idle, out, occupied = carrier[0], _boxes(w) if basic else w.sites, []
    if order is None:
        order = range(len(out))
    j = 0  # the box after the last one visited
    if i := w.__dict__.get("colourless"):  # from the first colour
        occupied, order = w.occupied[:i], order[i:]
    for k in order:
        while j <= k:
            if carrier[0] == idle:
                j = k  # an idle carrier passes the empty boxes before k
            out[j], carrier, _, held = core(carrier, out[j])
            if held:
                occupied.append(j)
            j += 1
    if carrier[0] != idle:
        # past box j a busy carrier drops a ball or more into each vacuum box, so it needs at
        # most sum(carrier) - carrier[0]: a row's balls, a column's bottom (it settles in one)
        out += (w.vacuum,) * (j + sum(carrier) - carrier[0] - len(out))
        while carrier[0] != idle and j < len(out):
            out[j], carrier, _, held = core(carrier, out[j])
            if held:
                occupied.append(j)
            j += 1
        if carrier[0] != idle:
            raise RuntimeError("carrier sweep failed to unload; this is a bug")
    w.__dict__["occupied"] = occupied
    if basic:  # the balls gathered back from the boxes
        w.__dict__["letters"] = list(map(out.__getitem__, occupied))
    return carrier


def carrier_evolution(p: Path, capacity: int | None = None, trace: list | None = None) -> Path:
    """Sweep a row carrier of the given capacity across the path.

    `capacity=None` means unbounded, realized as the total ball count
    (beyond which the evolution is stable).  Given a list `trace`, the sweep
    visits every stored site and appends one `TraceStep` per swap, numbered from 1."""
    if capacity is not None and (type(capacity) is not int or capacity < 1):
        raise ValueError(f"carrier capacity must be an int >= 1 or None, got {capacity!r}")
    core = p.row_core
    if capacity is None:
        capacity, core = max(1, ball_count(p)), p.inf_row_core
    w = _thawed(p)
    if trace is None:
        p.row_sweep(w, capacity, core)
    else:
        _sweep(w, _empty_row(p, capacity), partial(_traced_core, core, trace, len(trace) - 1))
    return _frozen(w)


def decoding_pass(p: Path, trace: list | None = None) -> tuple[Path, ColumnPair]:
    """One pass of the decoding carrier; returns (path, outgoing carrier).

    The carrier starts as (1,2), deposits its 2 somewhere, and leaves with
    the removed letter in its bottom slot.  Beyond the front the carrier
    is inert, so the sweep stops at most one box past it.  A `trace` list
    is filled as by `carrier_evolution`.
    """
    w = p if type(p.occupied) is list else _thawed(p)  # a working copy passes in place
    if trace is None:
        _, bottom = p.col_sweep(w)
    else:
        _, bottom = _sweep(w, (1, 2), partial(_traced_core, p.col_core, trace, len(trace) - 1))
    return w if w is p else _frozen(w), _outgoing(1, bottom, p.n)


def encoding_pass(p: Path, removed_letter: int) -> Path:
    """Inverse of `decoding_pass`: push the carrier (1, letter) back through
    the path right to left.  The carrier must emerge at the left end in its
    seeded state (1,2); otherwise the pair is not decodable and the call
    raises InvalidWordError."""
    if type(removed_letter) is not int or not 2 <= removed_letter <= p.n:
        raise InvalidWordError(f"word letters must be ints in 2..{p.n}, got {removed_letter!r}")
    w = p if type(p.occupied) is list else _thawed(p)
    top, bottom = p.inv_col_sweep(w, removed_letter)
    if (top, bottom) != (1, 2):
        raise InvalidWordError(
            f"carrier emerged as ({top},{bottom}), not (1,2); word is not decodable"
        )
    return w if w is p else _frozen(w)
