"""Swap maps realizing the unique crystal isomorphism on adjacent factor pairs.

Each map is a closed-form case analysis on letters.  The `*_core` functions
work on plain tuples and ints (the dynamics sweeps call them in tight
loops); `swap_pair` is the one object-level entry: it picks the core from
the factor kinds, rebuilds the factors and keeps the core's case tag in a
`SwapResult`, which `swap_adjacent` and the verifiers' swap words use.

Conventions making the case conditions exhaustive: a row (a_1..a_l) is
bordered by a_0 = 0 and a_{l+1} = +infinity, so every letter v has a unique
"gap" index i with a_i < v <= a_{i+1} (used by the forward maps) and a
unique index with a_{i-1} <= v < a_i (used by the inverses).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .crystals import (
    ColumnPair,
    CountVector,
    Factor,
    RowTableau,
    TensorElement,
    Value,
    _set,
    counts_to_row,
)


class UnsupportedShapeError(ValueError):
    """Swap requested for a factor pair outside the implemented families."""


class SwapResult(Value):
    """Post-swap factor pair plus the identifier of the case that fired."""

    def __init__(self, left: Factor, right: Factor, case_tag: str) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "case_tag", case_tag)


# ---------------------------------------------------------------------------
# row (x) box  <->  box (x) row


def row_box_core(entries: tuple[int, ...], beta: int) -> tuple[int, tuple[int, ...], str]:
    """Push a single box past a row; returns (emitted box, new row, tag)."""
    if beta <= entries[0]:
        # the box displaces the whole row cyclically, largest letter leaves
        return entries[-1], (beta,) + entries[:-1], "head"
    # beta bumps the rightmost entry below it
    k = bisect_left(entries, beta) - 1
    return entries[k], entries[:k] + (beta,) + entries[k + 1 :], "bump"


def box_row_core(c: int, entries: tuple[int, ...]) -> tuple[tuple[int, ...], int, str]:
    """Inverse of `row_box_core`; returns (original row, original box, tag)."""
    if c >= entries[-1]:
        return entries[1:] + (c,), entries[0], "head"
    k = bisect_right(entries, c)
    return entries[:k] + (c,) + entries[k + 1 :], entries[k], "bump"


# ---------------------------------------------------------------------------
# column (x) box  <->  box (x) column
#
# Tags follow the loading/unloading process pictures: e, f, g are the
# generic ball processes and a, b, c, d their readings with a vacancy
# (letter 1) in the carrier or the box.


def col_box_core(top: int, bottom: int, g: int) -> tuple[int, int, int, str]:
    """Carrier (top,bottom) passes a box g; returns (emitted, top', bottom', tag)."""
    if g <= top:
        tag = "a" if top == 1 else ("b" if g == 1 else "e")
        return top, g, bottom, tag
    if g <= bottom:
        tag = "c" if top == 1 else "f"
        return bottom, top, g, tag
    tag = "d" if top == 1 else "g"
    return top, bottom, g, tag


def box_col_core(c: int, top: int, bottom: int) -> tuple[int, int, int, str]:
    """Inverse of `col_box_core`; returns (top, bottom, box, tag of inverted case)."""
    if c < top:
        tag = "d" if c == 1 else "g"
        return c, top, bottom, tag
    if c < bottom:
        tag = "a" if top == 1 and c == 1 else ("b" if top == 1 else "e")
        return c, bottom, top, tag
    tag = "c" if top == 1 else "f"
    return top, c, bottom, tag


# ---------------------------------------------------------------------------
# row (x) column  <->  column (x) row
#
# The forward map splits on the gap indices i, j of the column letters
# (b, g), b < g.  Cases 1..4 are the printed case analysis; case 5 covers
# the remaining corner b < g <= a_1 (both letters land in gap 0), whose
# form is fixed by inverting case III of the inverse map below.


def row_col_core(
    entries: tuple[int, ...], b: int, g: int
) -> tuple[int, int, tuple[int, ...], str]:
    """Returns (column top, column bottom, new row, tag)."""
    ell = len(entries)
    i = bisect_left(entries, b)
    j = bisect_left(entries, g)
    if i == 0:
        if j == 0:
            return b, entries[-1], (g,) + entries[:-1], "5"
        if j == ell:
            return entries[-1], g, (b,) + entries[:-1], "4"
        new = tuple(sorted((b, g) + entries[: j - 1] + entries[j:-1]))
        return entries[j - 1], entries[-1], new, "3"
    if i == j:
        return entries[i - 1], b, entries[: i - 1] + (g,) + entries[i:], "2"
    new = entries[: i - 1] + (b,) + entries[i : j - 1] + (g,) + entries[j:]
    return entries[i - 1], entries[j - 1], new, "1"


def col_row_core(
    a: int, b: int, entries: tuple[int, ...]
) -> tuple[tuple[int, ...], int, int, str]:
    """Inverse map, cases I..V; returns (new row, column top, column bottom, tag)."""
    ell = len(entries)
    ai = bisect_right(entries, a) + 1
    bi = bisect_right(entries, b) + 1
    if ai == ell + 1:
        return entries[1:] + (a,), entries[0], b, "I"
    if bi == ell + 1:
        if ai >= 2:
            new = tuple(sorted((a, b) + entries[1 : ai - 1] + entries[ai:]))
            return new, entries[0], entries[ai - 1], "II"
        return entries[1:] + (b,), a, entries[0], "III"
    if ai < bi:
        new = tuple(sorted((a, b) + entries[: ai - 1] + entries[ai : bi - 1] + entries[bi:]))
        return new, entries[ai - 1], entries[bi - 1], "IV"
    return entries[: ai - 1] + (a,) + entries[ai:], b, entries[ai - 1], "V"


# ---------------------------------------------------------------------------
# row (x) row: the piecewise linear map on count vectors


def carrier_potential(x: CountVector, y: CountVector) -> tuple[int, ...]:
    """The vector (P_1..P_n) of cyclic partial-sum maxima for the pair (x, y)."""
    n = len(x)
    out = []
    for i in range(n):
        s = 0
        best = None
        for j in range(n):
            idx = (i + j) % n
            cur = s + y[idx]
            if best is None or cur > best:
                best = cur
            s += y[idx] - x[idx]
        out.append(best)
    return tuple(out)


def combinatorial_r(x: CountVector, y: CountVector) -> tuple[CountVector, CountVector]:
    """Swap two count-vector rows; capacities interchange."""
    if len(x) != len(y):
        raise ValueError("count vectors must share one alphabet")
    n = len(x)
    p = carrier_potential(x, y)
    x2 = tuple(y[i] + p[(i + 1) % n] - p[i] for i in range(n))
    y2 = tuple(x[i] + p[i] - p[(i + 1) % n] for i in range(n))
    return x2, y2


# ---------------------------------------------------------------------------
# object level


def swap_pair(left: Factor, right: Factor) -> SwapResult:
    """Swap one adjacent factor pair by calling its core; equal shapes swap trivially."""
    for f in (left, right):
        if not isinstance(f, (RowTableau, ColumnPair)):
            raise UnsupportedShapeError(f"unsupported factor: {f!r}")
    n = left.n
    if right.n != n:
        raise ValueError(f"factors mix alphabets: {sorted((n, right.n))}")
    if left.shape == right.shape:
        return SwapResult(left, right, "id")
    if isinstance(left, RowTableau) and isinstance(right, RowTableau):
        if right.capacity == 1:
            emitted, new, tag = row_box_core(left.entries, right.entries[0])
            return SwapResult(RowTableau((emitted,), n), RowTableau(new, n), tag)
        if left.capacity == 1:
            new, emitted, tag = box_row_core(left.entries[0], right.entries)
            return SwapResult(RowTableau(new, n), RowTableau((emitted,), n), tag)
        x2, y2 = combinatorial_r(left.counts(), right.counts())
        return SwapResult(counts_to_row(x2), counts_to_row(y2), "R")
    if isinstance(left, RowTableau):  # row (x) column; else column (x) row
        if left.capacity == 1:
            top, bottom, emitted, tag = box_col_core(left.entries[0], right.top, right.bottom)
            return SwapResult(ColumnPair(top, bottom, n), RowTableau((emitted,), n), tag)
        top, bottom, new, tag = row_col_core(left.entries, right.top, right.bottom)
        return SwapResult(ColumnPair(top, bottom, n), RowTableau(new, n), tag)
    if right.capacity == 1:
        emitted, top, bottom, tag = col_box_core(left.top, left.bottom, right.entries[0])
        return SwapResult(RowTableau((emitted,), n), ColumnPair(top, bottom, n), tag)
    new, top, bottom, tag = col_row_core(left.top, left.bottom, right.entries)
    return SwapResult(RowTableau(new, n), ColumnPair(top, bottom, n), tag)


def swap_adjacent(t: TensorElement, i: int) -> TensorElement:
    """Swap factors i and i+1 (1-based) by the unique isomorphism."""
    fs = t.factors
    if not 1 <= i <= len(fs) - 1:
        raise ValueError(f"position must lie in 1..{len(fs) - 1}, got {i}")
    res = swap_pair(fs[i - 1], fs[i])
    return TensorElement(fs[: i - 1] + (res.left, res.right) + fs[i + 1 :])
