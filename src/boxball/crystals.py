"""Crystal elements and operators for the box-ball library.

Two element families are used throughout: single-row tableaux of fixed
length (weakly increasing words over {1..n}) and strict two-letter columns
(the carrier family).  Tensor products of these carry the lowering/raising
operator structure that pins down every swap map in `isomorphisms`.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod
from typing import Iterator, Union

Weight = tuple[int, ...]
CountVector = tuple[int, ...]
Shape = tuple[int, ...]

_DEFAULT_DOMAIN_CAP = 1_000_000


class DomainSizeError(RuntimeError):
    """An exhaustive enumeration would exceed the configured bound."""


def domain_cap() -> int:
    """Size cap for exhaustive enumerations (override with BBS_MAX_DOMAIN)."""
    raw = os.environ.get("BBS_MAX_DOMAIN", _DEFAULT_DOMAIN_CAP)
    try:
        return int(raw)
    except ValueError:
        raise DomainSizeError(f"BBS_MAX_DOMAIN must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class RowTableau:
    """Weakly increasing word over {1..n}; letter 1 is an empty slot."""

    entries: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.n}")
        if not self.entries:
            raise ValueError("row must have at least one entry")
        if any(not 1 <= v <= self.n for v in self.entries):
            raise ValueError(f"entries must lie in 1..{self.n}: {self.entries}")
        if any(a > b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError(f"entries must be weakly increasing: {self.entries}")

    @property
    def capacity(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> Shape:
        return (len(self.entries),)

    def counts(self) -> CountVector:
        """Multiplicity vector (x_1..x_n) of each letter."""
        out = [0] * self.n
        for v in self.entries:
            out[v - 1] += 1
        return tuple(out)

    def __str__(self) -> str:
        if self.n <= 9:
            return "<%s>" % "".join(str(v) for v in self.entries)
        return "<%s>" % ",".join(str(v) for v in self.entries)


@dataclass(frozen=True)
class ColumnPair:
    """Strictly increasing pair of letters; models the decoding carrier."""

    top: int
    bottom: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.n}")
        if not 1 <= self.top < self.bottom <= self.n:
            raise ValueError(f"need 1 <= top < bottom <= n, got ({self.top},{self.bottom})")

    @property
    def shape(self) -> Shape:
        return (1, 1)

    @property
    def capacity(self) -> int:
        return 2

    def __str__(self) -> str:
        return f"[{self.top}/{self.bottom}]"


Factor = Union[RowTableau, ColumnPair]


@dataclass(frozen=True)
class TensorElement:
    """Ordered sequence of factors over one alphabet."""

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("tensor needs at least one factor")
        ns = {f.n for f in self.factors}
        if len(ns) != 1:
            raise ValueError(f"factors mix alphabets: {sorted(ns)}")

    @property
    def n(self) -> int:
        return self.factors[0].n

    @property
    def shapes(self) -> tuple[Shape, ...]:
        return tuple(f.shape for f in self.factors)

    def __str__(self) -> str:
        return "*".join(str(f) for f in self.factors)


def row(word, n: int) -> RowTableau:
    """Build a row from an iterable of letters or a digit string like '112'."""
    if isinstance(word, str):
        entries = tuple(int(c) for c in word)
    else:
        entries = tuple(int(v) for v in word)
    return RowTableau(entries, n)


def box(value: int, n: int) -> RowTableau:
    return RowTableau((value,), n)


def col(top: int, bottom: int, n: int) -> ColumnPair:
    return ColumnPair(top, bottom, n)


def vacuum_row(capacity: int, n: int) -> RowTableau:
    return RowTableau((1,) * capacity, n)


def tensor(*factors: Factor) -> TensorElement:
    return TensorElement(tuple(factors))


def row_to_counts(b: RowTableau) -> CountVector:
    return b.counts()


def counts_to_row(counts: CountVector, n: int | None = None) -> RowTableau:
    """Inverse of `row_to_counts`; the vector length fixes the alphabet."""
    if n is None:
        n = len(counts)
    if len(counts) != n:
        raise ValueError(f"count vector must have length {n}: {counts}")
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be non-negative: {counts}")
    entries = []
    for letter, c in enumerate(counts, start=1):
        entries.extend([letter] * c)
    return RowTableau(tuple(entries), n)


def weight_of(x: Factor | TensorElement) -> Weight:
    """Letter multiplicities (m_1..m_n); additive over tensor factors."""
    if isinstance(x, TensorElement):
        out = [0] * x.n
        for f in x.factors:
            for v, c in enumerate(weight_of(f), start=1):
                out[v - 1] += c
        return tuple(out)
    if isinstance(x, RowTableau):
        return x.counts()
    if isinstance(x, ColumnPair):
        out = [0] * x.n
        out[x.top - 1] += 1
        out[x.bottom - 1] += 1
        return tuple(out)
    raise TypeError(f"not a crystal element: {x!r}")


def _check_index(i: int, n: int) -> None:
    if not 1 <= i <= n - 1:
        raise ValueError(f"operator index must lie in 1..{n - 1}, got {i}")


def _lower_row(i: int, b: RowTableau) -> RowTableau | None:
    # replace the rightmost i with i+1
    e = b.entries
    k = bisect_right(e, i) - 1
    if k < 0 or e[k] != i:
        return None
    return RowTableau(e[:k] + (i + 1,) + e[k + 1 :], b.n)


def _raise_row(i: int, b: RowTableau) -> RowTableau | None:
    # replace the leftmost i+1 with i
    e = b.entries
    k = bisect_left(e, i + 1)
    if k == len(e) or e[k] != i + 1:
        return None
    return RowTableau(e[:k] + (i,) + e[k + 1 :], b.n)


def _lower_col(i: int, b: ColumnPair) -> ColumnPair | None:
    # i -> i+1, allowed only when i is present and i+1 is not
    if i + 1 in (b.top, b.bottom):
        return None
    if b.top == i:
        return ColumnPair(i + 1, b.bottom, b.n)
    if b.bottom == i:
        return ColumnPair(b.top, i + 1, b.n)
    return None


def _raise_col(i: int, b: ColumnPair) -> ColumnPair | None:
    if i in (b.top, b.bottom):
        return None
    if b.top == i + 1:
        return ColumnPair(i, b.bottom, b.n)
    if b.bottom == i + 1:
        return ColumnPair(b.top, i, b.n)
    return None


def _factor_eps_phi(i: int, f: Factor) -> tuple[int, int]:
    if isinstance(f, RowTableau):
        cnt = f.counts()
        return cnt[i], cnt[i - 1]
    present = (i in (f.top, f.bottom), i + 1 in (f.top, f.bottom))
    return int(present[1] and not present[0]), int(present[0] and not present[1])


def _fold_eps_phi(i: int, factors: tuple[Factor, ...]) -> tuple[int, int]:
    # left fold of the two-factor combination rules
    e, p = _factor_eps_phi(i, factors[0])
    for f in factors[1:]:
        ef, pf = _factor_eps_phi(i, f)
        e, p = max(e, e + ef - p), max(pf, p + pf - ef)
    return e, p


def epsilon(i: int, x: Factor | TensorElement) -> int:
    return eps_phi(i, x)[0]


def phi(i: int, x: Factor | TensorElement) -> int:
    return eps_phi(i, x)[1]


def eps_phi(i: int, x: Factor | TensorElement) -> tuple[int, int]:
    """The (epsilon_i, phi_i) string lengths of x."""
    if isinstance(x, TensorElement):
        _check_index(i, x.n)
        return _fold_eps_phi(i, x.factors)
    _check_index(i, x.n)
    return _factor_eps_phi(i, x)


def _lower_factor(i: int, f: Factor) -> Factor | None:
    return _lower_row(i, f) if isinstance(f, RowTableau) else _lower_col(i, f)


def _raise_factor(i: int, f: Factor) -> Factor | None:
    return _raise_row(i, f) if isinstance(f, RowTableau) else _raise_col(i, f)


def _lower_factors(i: int, fs: tuple[Factor, ...]) -> tuple[Factor, ...] | None:
    if len(fs) == 1:
        y = _lower_factor(i, fs[0])
        return None if y is None else (y,)
    head, last = fs[:-1], fs[-1]
    if _fold_eps_phi(i, head)[1] > _factor_eps_phi(i, last)[0]:
        res = _lower_factors(i, head)
        return None if res is None else res + (last,)
    y = _lower_factor(i, last)
    return None if y is None else head + (y,)


def _raise_factors(i: int, fs: tuple[Factor, ...]) -> tuple[Factor, ...] | None:
    if len(fs) == 1:
        y = _raise_factor(i, fs[0])
        return None if y is None else (y,)
    head, last = fs[:-1], fs[-1]
    if _fold_eps_phi(i, head)[1] >= _factor_eps_phi(i, last)[0]:
        res = _raise_factors(i, head)
        return None if res is None else res + (last,)
    y = _raise_factor(i, last)
    return None if y is None else head + (y,)


def lowering(i: int, x):
    """Lowering operator: move one unit of letter i to i+1, or None."""
    _check_index(i, x.n)
    if isinstance(x, TensorElement):
        fs = _lower_factors(i, x.factors)
        return None if fs is None else TensorElement(fs)
    return _lower_factor(i, x)


def raising(i: int, x):
    """Raising operator, the partial inverse of `lowering`."""
    _check_index(i, x.n)
    if isinstance(x, TensorElement):
        fs = _raise_factors(i, x.factors)
        return None if fs is None else TensorElement(fs)
    return _raise_factor(i, x)


def is_highest_weight(x: Factor | TensorElement) -> bool:
    """True iff every raising operator annihilates x."""
    return all(raising(i, x) is None for i in range(1, x.n))


def crystal_size(shape: Shape, n: int) -> int:
    shape = tuple(shape)
    if len(shape) == 1:
        return comb(n + shape[0] - 1, shape[0])
    if shape == (1, 1):
        return comb(n, 2)
    raise ValueError(f"unsupported shape {shape}")


def iter_crystal(shape: Shape, n: int) -> Iterator[Factor]:
    """All elements of one factor crystal, in lexicographic order."""
    shape = tuple(shape)
    if len(shape) == 1:
        for word in combinations_with_replacement(range(1, n + 1), shape[0]):
            yield RowTableau(word, n)
    elif shape == (1, 1):
        for a, b in combinations(range(1, n + 1), 2):
            yield ColumnPair(a, b, n)
    else:
        raise ValueError(f"unsupported shape {shape}")


def tensor_size(shapes, n: int) -> int:
    return prod(crystal_size(s, n) for s in shapes)


def iter_tensor(shapes, n: int) -> Iterator[TensorElement]:
    """Every element of the product crystal; guarded by `domain_cap`."""
    size = tensor_size(shapes, n)
    if size > domain_cap():
        raise DomainSizeError(f"product crystal has {size} elements, cap is {domain_cap()}")
    pools = [tuple(iter_crystal(s, n)) for s in shapes]
    for fs in product(*pools):
        yield TensorElement(fs)


def highest_weights(shapes, n: int) -> dict[Weight, list[TensorElement]]:
    """All highest weight elements of the product crystal, grouped by weight."""
    out: dict[Weight, list[TensorElement]] = {}
    for t in iter_tensor(shapes, n):
        if is_highest_weight(t):
            out.setdefault(weight_of(t), []).append(t)
    return out
