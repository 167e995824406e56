import inspect
import random
import textwrap

import pytest

from boxball import crystals as cr
from boxball import dynamics as dyn
from boxball import isomorphisms as iso

# the swap cores the path classes memoise (see the `dynamics` module docstring), each once: a
# basic path's T_inf sweeps share its `row_core`
MEMOISED_CORES = tuple(dict.fromkeys(
    getattr(cls, name)
    for cls in (dyn.BasicPath, dyn.InhomPath)
    for name in ("row_core", "inf_row_core", "col_core", "inv_col_core")
    if hasattr(getattr(cls, name, None), "cache_clear")
))


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


def seeded_inhom_path(seed, length, n):
    """`length` boxes of capacities 1..4, each holding a random number of balls, and a tail
    capacity in 1..4, drawn from `random.Random(seed)` as the benchmark draws its paths."""
    rng, sites = random.Random(seed), []
    for _ in range(length):
        counts = [rng.randint(1, 4)] + [0] * (n - 1)
        for _ in range(rng.randint(0, counts[0])):
            counts[0] -= 1
            counts[rng.randint(2, n) - 1] += 1
        sites.append(tuple(counts))
    return dyn.InhomPath(tuple(sites), n, rng.randint(1, 4))


def recompiled(fn, old, new):
    """`fn` compiled anew from its source with `old`, found once, replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    names = {}
    exec(source.replace(old, new), fn.__globals__, names)
    return names[fn.__name__]


def first_row_core_disagreement():
    """The first (row, box) on which the basic paths' count-vector row core, R on a one-letter
    row, differs from `row_box_core` on counts, case tag included, at n <= 7 and capacity
    <= 7, and the number of pairs tried: the pairing against the bisecting closed form."""
    tried = 0
    for n in range(2, 8):
        for capacity in range(1, 8):
            for row in cr.iter_crystal((capacity,), n):
                for beta in range(1, n + 1):
                    tried += 1
                    emitted, new, tag, _ = dyn.BasicPath.row_core(row.counts(), beta)
                    got = emitted, cr.counts_to_entries(new), tag
                    if got != iso.row_box_core(row.entries, beta):
                        return (row, beta), tried
    return None, tried


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
    wrong one.  The planted core replaces the memoised one, so no memo hides it, and
    untraced row sweeps of basic paths walk through it as `InhomPath`'s do."""
    real = dyn._row_box_counts

    def planted(carrier, beta):
        letter, new, tag, held = real(carrier, beta)
        if tag != "bump":
            return letter, new, tag, held
        k = next(k for k in range(beta - 1) if carrier[k])
        new = list(carrier)
        new[k] -= 1
        new[beta - 1] += 1
        return k + 1, tuple(new), tag, k + 1 != 1

    monkeypatch.setattr(dyn.BasicPath, "row_core", staticmethod(planted))
    monkeypatch.setattr(dyn.BasicPath, "row_sweep", vars(dyn.InhomPath)["row_sweep"])
