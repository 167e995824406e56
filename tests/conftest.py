import random

import pytest

from boxball import dynamics as dyn
from boxball import isomorphisms as iso

# the swap cores the path classes memoise (see the `dynamics` module docstring)
MEMOISED_CORES = tuple(
    getattr(cls, name)
    for cls in (dyn.BasicPath, dyn.InhomPath)
    for name in ("row_core", "col_core", "inv_col_core")
    if hasattr(getattr(cls, name), "cache_clear")
)


def front(p) -> int:
    """1-based position of the rightmost box holding a ball; 0 for vacuum paths."""
    return p.occupied[-1] + 1 if p.occupied else 0


def seeded_basic_path(seed, length, balls, n):
    """`length` boxes, `balls` of them holding a letter in 2..n, drawn from `random.Random(seed)`."""
    rng = random.Random(seed)
    sites = [1] * length
    for k in rng.sample(range(length), balls):
        sites[k] = rng.randint(2, n)
    return dyn.BasicPath(tuple(sites), n)


def clear_memoised_cores():
    for core in MEMOISED_CORES:
        core.cache_clear()


@pytest.fixture
def fresh_cores():
    """Clear the memoised cores before and after the test: a fault planted in
    a function they call is then not hidden by results cached before it was
    planted, and results cached under the fault do not reach later tests."""
    clear_memoised_cores()
    yield
    clear_memoised_cores()


@pytest.fixture
def full_carrier_swaps_plainly(monkeypatch, fresh_cores):
    """`combinatorial_r` returns the plain swap (y, x) when the carrier row x holds
    no empty slot: a valid pair of rows, but the wrong one."""
    real = iso.combinatorial_r

    def planted(x, y):
        return (y, x) if x[0] == 0 else real(x, y)

    monkeypatch.setattr(dyn, "combinatorial_r", planted)


@pytest.fixture
def bump_sends_the_smallest_letter(monkeypatch):
    """`BasicPath.row_core` whose bump case sends out the smallest loaded letter below
    beta, where `row_box_core` sends the largest: a carrier of the right weight, but the
    wrong one.  The planted core replaces the memoised one, so no memo hides it."""
    real = dyn._row_box_counts

    def planted(carrier, beta):
        letter, new, tag = real(carrier, beta)
        if tag != "bump":
            return letter, new, tag
        k = next(k for k in range(beta - 1) if carrier[k])
        new = list(carrier)
        new[k] -= 1
        new[beta - 1] += 1
        return k + 1, tuple(new), tag

    monkeypatch.setattr(dyn.BasicPath, "row_core", staticmethod(planted))
