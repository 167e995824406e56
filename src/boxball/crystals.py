"""Crystal elements and operators for the box-ball library.

Two element families are used throughout: single-row tableaux of fixed
length (weakly increasing words over {1..n}) and strict two-letter columns
(the carrier family).  `is_column` states the one shape rule, a row (k,) or the
column (1, 1), for every function that takes a shape.  Tensor products of these carry
the lowering/raising operator structure that pins down every swap map in `isomorphisms`.
All operators read one signature rule on the factors' (epsilon_i, phi_i) pairs; the
verifiers run it on the integer tables that `factor_tables` makes anew per call, where
`highest_weights` extends highest weight prefixes one factor at a time.  The package's value
classes derive from `Value`, a frozen dataclass without the `dataclasses` import.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterator
from itertools import combinations, combinations_with_replacement, product
from math import comb
from operator import add, attrgetter, getitem

Weight = tuple[int, ...]
CountVector = tuple[int, ...]
Shape = tuple[int, ...]

MAX_DOMAIN = 1_000_000  # the most elements an exhaustive enumeration may visit
MAX_ALPHABET = 255  # the largest n the CLI and the path suites take; constructors take any
_set = object.__setattr__  # how a value's `__init__` stores a field, as dataclasses do


class DomainSizeError(RuntimeError):
    """An enumeration would exceed `MAX_DOMAIN`, or an input's alphabet `MAX_ALPHABET`."""


def _check_alphabet(n) -> None:
    """The alphabet check of every factor and path constructor."""
    if type(n) is not int or n < 2:
        raise ValueError(f"alphabet size must be an int >= 2, got {n!r}")


def _cap_alphabet(n: int) -> None:
    """The `MAX_ALPHABET` guard of the CLI's inputs and the path suites."""
    if n > MAX_ALPHABET:
        raise DomainSizeError(f"alphabet of {n} letters, cap is {MAX_ALPHABET}")


class Value:
    """Frozen; equal only to a value of its exact type with equal fields, and hashed to agree.
    The fields are the `__init__` parameters, stored by `_store` or, faster, one `_set` each."""

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__init__.__code__.co_varnames[1 : cls.__init__.__code__.co_argcount]
        cls._key = attrgetter(*cls._fields)  # called as self._key(self): not a method

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _store(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)


class RowTableau(Value):
    """Weakly increasing word over {1..n}; letter 1 is an empty slot."""

    def __init__(self, entries: tuple[int, ...], n: int) -> None:
        entries = tuple(entries)  # hashable, as paths are
        _check_alphabet(n)
        if not entries:
            raise ValueError("row must have at least one entry")
        if {*map(type, entries)} != {int} or min(entries) < 1 or max(entries) > n:
            raise ValueError(f"entries must be ints in 1..{n}: {entries}")
        if entries != tuple(sorted(entries)):
            raise ValueError(f"entries must be weakly increasing: {entries}")
        _set(self, "entries", entries)
        _set(self, "n", n)

    def __eq__(self, other):  # written out, as `Value.__eq__` is slower in the verifiers' loops
        if other.__class__ is self.__class__:
            return self.entries == other.entries and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries, self.n))

    @property
    def capacity(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> Shape:
        return (len(self.entries),)

    def counts(self) -> CountVector:
        """Multiplicity vector (x_1..x_n) of each letter."""
        return entries_to_counts(self.entries, self.n)

    def __str__(self) -> str:
        if self.n <= 9:
            return "<%s>" % "".join(str(v) for v in self.entries)
        return "<%s>" % ",".join(str(v) for v in self.entries)


class ColumnPair(Value):
    """Strictly increasing pair of letters; models the decoding carrier."""

    def __init__(self, top: int, bottom: int, n: int) -> None:
        _check_alphabet(n)
        if type(top) is not int or type(bottom) is not int or not 1 <= top < bottom <= n:
            raise ValueError(f"need ints 1 <= top < bottom <= n, got ({top!r},{bottom!r})")
        _set(self, "top", top)
        _set(self, "bottom", bottom)
        _set(self, "n", n)

    def __eq__(self, other):  # written out, as for `RowTableau`
        if other.__class__ is self.__class__:
            return self.top == other.top and self.bottom == other.bottom and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.top, self.bottom, self.n))

    @property
    def shape(self) -> Shape:
        return (1, 1)

    def __str__(self) -> str:
        return f"[{self.top}/{self.bottom}]"


Factor = RowTableau | ColumnPair


class TensorElement(Value):
    """Ordered sequence of factors over one alphabet."""

    def __init__(self, factors: tuple[Factor, ...]) -> None:
        if not factors:
            raise ValueError("tensor needs at least one factor")
        ns = {f.n for f in factors}
        if len(ns) != 1:
            raise ValueError(f"factors mix alphabets: {sorted(ns)}")
        _set(self, "factors", factors)

    @property
    def n(self) -> int:
        return self.factors[0].n

    def __str__(self) -> str:
        return "*".join(str(f) for f in self.factors)


def row(word, n: int) -> RowTableau:
    """Build a row from an iterable of letters or a digit string like '112'."""
    return RowTableau(tuple(int(v) for v in word), n)


def box(value: int, n: int) -> RowTableau:
    return RowTableau((value,), n)


def col(top: int, bottom: int, n: int) -> ColumnPair:
    return ColumnPair(top, bottom, n)


def tensor(*factors: Factor) -> TensorElement:
    return TensorElement(tuple(factors))


def counts_to_entries(counts: CountVector) -> tuple[int, ...]:
    """The sorted letters of a count vector (x_1..x_n)."""
    out = []
    for letter, c in enumerate(counts, start=1):
        out.extend([letter] * c)
    return tuple(out)


def entries_to_counts(entries: tuple[int, ...], n: int) -> CountVector:
    """Multiplicity vector (x_1..x_n) of each letter in `entries`."""
    out = [0] * n
    for v in entries:
        out[v - 1] += 1
    return tuple(out)


def counts_to_row(counts: CountVector) -> RowTableau:
    """Inverse of `RowTableau.counts`; the vector length fixes the alphabet.  The entries
    are ints in 1..n in order by construction, so only the checks that can fail here run."""
    if counts and min(counts) < 0:
        raise ValueError(f"counts must be non-negative: {counts}")
    entries, n = counts_to_entries(counts), len(counts)
    _check_alphabet(n)
    if not entries:
        raise ValueError("row must have at least one entry")
    row = object.__new__(RowTableau)
    _set(row, "entries", entries)
    _set(row, "n", n)
    return row


def weight_of(x: Factor | TensorElement) -> Weight:
    """Letter multiplicities (m_1..m_n); additive over tensor factors."""
    if isinstance(x, TensorElement):
        return tuple(map(sum, zip(*map(weight_of, x.factors))))
    if isinstance(x, RowTableau):
        return x.counts()
    if isinstance(x, ColumnPair):
        return entries_to_counts((x.top, x.bottom), x.n)
    raise TypeError(f"not a crystal element: {x!r}")


def _check_index(i: int, n: int) -> None:
    if type(i) is not int or not 1 <= i <= n - 1:
        raise ValueError(f"operator index must lie in 1..{n - 1}, got {i!r}")


def _lowered(i: int, f: Factor) -> Factor:
    """f_i on one factor whose phi_i is positive: one letter i becomes i+1."""
    if isinstance(f, RowTableau):
        k = bisect_right(f.entries, i) - 1  # the rightmost i
        return RowTableau(f.entries[:k] + (i + 1,) + f.entries[k + 1 :], f.n)
    if f.top == i:
        return ColumnPair(i + 1, f.bottom, f.n)
    return ColumnPair(f.top, i + 1, f.n)


def _raised(i: int, f: Factor) -> Factor:
    """e_i on one factor whose epsilon_i is positive: one letter i+1 becomes i."""
    if isinstance(f, RowTableau):
        k = bisect_left(f.entries, i + 1)  # the leftmost i+1
        return RowTableau(f.entries[:k] + (i,) + f.entries[k + 1 :], f.n)
    if f.bottom == i + 1:
        return ColumnPair(f.top, i, f.n)
    return ColumnPair(i, f.bottom, f.n)


def _factor_eps_phi(i: int, f: Factor) -> tuple[int, int]:
    if isinstance(f, RowTableau):
        return f.entries.count(i + 1), f.entries.count(i)
    present = (i in (f.top, f.bottom), i + 1 in (f.top, f.bottom))
    return int(present[1] and not present[0]), int(present[0] and not present[1])


def _signature(pairs) -> tuple[int, int, int | None, int | None]:
    """The i-signature rule: (epsilon_i, phi_i, factor e_i acts on, factor f_i acts on).

    Each factor, given by its (epsilon_i, phi_i) pair, reads as epsilon minus signs followed
    by phi plus signs, and a plus cancels the nearest uncancelled minus to its right.  e_i
    acts on the factor of the rightmost uncancelled minus, f_i on that of the leftmost
    uncancelled plus (None when there is no such sign)."""
    eps = phi = 0
    e_at = f_at = None
    for k, (ef, pf) in enumerate(pairs):
        cancelled = min(phi, ef)
        phi -= cancelled
        if ef > cancelled:
            eps += ef - cancelled
            e_at = k
        if phi == 0:
            f_at = k if pf else None
        phi += pf
    return eps, phi, e_at, f_at


def _factors(x: Factor | TensorElement) -> tuple[Factor, ...]:
    return x.factors if isinstance(x, TensorElement) else (x,)


def _replaced(x: Factor | TensorElement, k: int, y: Factor) -> Factor | TensorElement:
    """x with factor k replaced by y; a bare factor is its own only factor."""
    if isinstance(x, TensorElement):
        return TensorElement(x.factors[:k] + (y,) + x.factors[k + 1 :])
    return y


def eps_phi(i: int, x: Factor | TensorElement) -> tuple[int, int]:
    """The (epsilon_i, phi_i) string lengths of x."""
    _check_index(i, x.n)
    return _signature([_factor_eps_phi(i, f) for f in _factors(x)])[:2]


def lowering(i: int, x):
    """Lowering operator: move one unit of letter i to i+1, or None."""
    _check_index(i, x.n)
    fs = _factors(x)
    k = _signature([_factor_eps_phi(i, f) for f in fs])[3]
    return None if k is None else _replaced(x, k, _lowered(i, fs[k]))


def raising(i: int, x):
    """Raising operator, the partial inverse of `lowering`."""
    _check_index(i, x.n)
    fs = _factors(x)
    k = _signature([_factor_eps_phi(i, f) for f in fs])[2]
    return None if k is None else _replaced(x, k, _raised(i, fs[k]))


def is_highest_weight(x: Factor | TensorElement) -> bool:
    """True iff every raising operator annihilates x, that is every epsilon_i is 0."""
    return all(eps_phi(i, x)[0] == 0 for i in range(1, x.n))


def is_column(shape: Shape) -> bool:
    """True for the column (1, 1), False for a row (k,), k >= 1 (ints); any other shape raises."""
    shape = tuple(shape)
    if {*map(type, shape)} != {int} or shape != (1, 1) and (len(shape) != 1 or shape[0] < 1):
        raise ValueError(f"unsupported shape {shape}")
    return shape == (1, 1)


def crystal_size(shape: Shape, n: int) -> int:
    return comb(n, 2) if is_column(shape) else comb(n + shape[0] - 1, shape[0])


def iter_crystal(shape: Shape, n: int) -> Iterator[Factor]:
    """All elements of one factor crystal, in lexicographic order."""
    letters = range(1, n + 1)
    if is_column(shape):
        return (ColumnPair(a, b, n) for a, b in combinations(letters, 2))
    return (RowTableau(word, n) for word in combinations_with_replacement(letters, shape[0]))


def tensor_size(shapes, n: int) -> int:
    """The `MAX_DOMAIN` guard of every exhaustive enumeration: the product crystal's size,
    multiplied out only while it stays within the cap; a bad alphabet or shape raises."""
    _check_alphabet(n)
    size = 1
    for shape in shapes:
        if (size := size * crystal_size(shape, n)) > MAX_DOMAIN:
            raise DomainSizeError(f"product crystal of {len(shapes)} factors at n={n}: over the "
                                  f"cap of {MAX_DOMAIN} elements")
    return size


def iter_tensor(shapes, n: int) -> Iterator[TensorElement]:
    """Every element of the product crystal; guarded by `MAX_DOMAIN`."""
    tensor_size(shapes, n)
    pools = [tuple(iter_crystal(s, n)) for s in shapes]
    for fs in product(*pools):
        yield TensorElement(fs)


# The integer kernel: a product element is a tuple of indices, one into each factor's table,
# which lists element k of `iter_crystal`, its (epsilon_i, phi_i) and the index of f_i(k)
# (None for 0) at [k][i - 1], and its weight.  The tables are made per call.  The oracle
# lowers index pairs on them and builds elements (`tensors_at`) only for the table it returns;
# its check compares factors, and builds an element only for a counterexample it reports.
FactorTable = namedtuple("FactorTable", "elements eps_phi lowered weights")


def factor_tables(shapes, n: int) -> list[FactorTable]:
    """The factors' tables under the `MAX_DOMAIN` guard, made anew per call: no cache keeps one."""
    tensor_size(shapes, n)
    tables = []
    for shape in shapes:
        elements = list(iter_crystal(shape, n))
        index = {f: k for k, f in enumerate(elements)}
        images = [[lowering(i, f) for i in range(1, n)] for f in elements]
        if stray := {y for ys in images for y in ys} - index.keys() - {None}:
            raise ValueError(f"lowering leaves the crystal of {shape}: {min(map(repr, stray))}")
        eps_phi = [tuple(_factor_eps_phi(i, f) for i in range(1, n)) for f in elements]
        lowered = [tuple(map(index.get, ys)) for ys in images]
        tables.append(FactorTable(elements, eps_phi, lowered, list(map(weight_of, elements))))
    return tables


def tensors_at(tables: list[FactorTable], index_tuples) -> Iterator[TensorElement]:
    """Each index tuple's element, unchecked: the tables hold checked factors of one alphabet."""
    elements = [table.elements for table in tables]
    for ks in index_tuples:
        _set(t := object.__new__(TensorElement), "factors", tuple(map(getitem, elements, ks)))
        yield t


def tensor_at(tables: list[FactorTable], ks: tuple[int, ...]) -> TensorElement:
    return next(tensors_at(tables, [ks]))


def highest_weight_indices(tables: list[FactorTable], n: int) -> list[tuple[tuple, Weight]]:
    """(index tuple, weight) of each highest weight element, in product order.  By the
    signature rule t*f is highest weight iff t is and every epsilon_i(f) <= phi_i(t), which
    is m_i(t) - m_{i+1}(t) on a highest weight t: prefixes extend one factor at a time."""
    found: list[tuple[tuple, Weight]] = [((), (0,) * n)]
    for table in tables:
        found = [(ks + (k,), tuple(map(add, w, table.weights[k])))
                 for ks, w in found for k, pairs in enumerate(table.eps_phi)
                 if all(e <= a - b for (e, _), a, b in zip(pairs, w, w[1:]))]
    return found


def highest_weights(shapes, n: int) -> dict[Weight, list[TensorElement]]:
    """All highest weight elements of the product crystal, grouped by weight, in product order."""
    tables = factor_tables(shapes, n)
    out: dict[Weight, list[TensorElement]] = {}
    for ks, w in highest_weight_indices(tables, n):
        out.setdefault(w, []).append(tensor_at(tables, ks))
    return out
