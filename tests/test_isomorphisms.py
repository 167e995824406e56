import random
from itertools import accumulate
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from boxball import crystals as cr
from boxball import dynamics as dyn
from boxball import isomorphisms as iso
from boxball.verify import (
    check_highest_weight_chains,
    check_path_suite,
    check_symmetric_group,
    isomorphism_table,
    random_factor,
    random_tensor,
)
from conftest import first_row_core_disagreement, recompiled

SHAPE_POOL = [(1,), (2,), (3,), (1, 1)]


def as_pair(res: iso.SwapResult) -> cr.TensorElement:
    return cr.tensor(res.left, res.right)


# --- row x box -------------------------------------------------------------


def test_row_box_examples():
    n = 3
    res = iso.swap_pair(cr.row("111", n), cr.box(1, n))
    assert (res.left, res.right, res.case_tag) == (cr.box(1, n), cr.row("111", n), "head")
    res = iso.swap_pair(cr.row("111", n), cr.box(2, n))
    assert (res.left, res.right, res.case_tag) == (cr.box(1, n), cr.row("112", n), "bump")
    res = iso.swap_pair(cr.row("223", 4), cr.box(2, 4))
    assert (res.left, res.right, res.case_tag) == (cr.box(3, 4), cr.row("222", 4), "head")


def test_box_row_examples():
    n = 3
    res = iso.swap_pair(cr.box(1, n), cr.row("113", n))
    assert (res.left, res.right) == (cr.row("111", n), cr.box(3, n))
    res = iso.swap_pair(cr.box(1, n), cr.row("111", n))
    assert (res.left, res.right) == (cr.row("111", n), cr.box(1, n))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_row_box_round_trips(n, ell):
    for b in cr.iter_crystal((ell,), n):
        for c in cr.iter_crystal((1,), n):
            if ell == 1:  # swap_pair answers "id" on two boxes, and so do both rules
                assert iso.row_box_core(b.entries, c.entries[0])[:2] == (b.entries[0], c.entries)
                assert iso.combinatorial_r(b.counts(), c.counts()) == (b.counts(), c.counts())
                continue
            res = iso.swap_pair(b, c)
            back = iso.swap_pair(res.left, res.right)
            assert (back.left, back.right) == (b, c)
            res = iso.swap_pair(c, b)
            back = iso.swap_pair(res.left, res.right)
            assert (back.left, back.right) == (c, b)
            # the tag of the `row_box_core` case that R inverts on box (x) row
            assert res.case_tag == ("head" if c.entries[0] >= b.entries[-1] else "bump")


# --- column x box ----------------------------------------------------------


def test_col_box_examples():
    n = 5
    res = iso.swap_pair(cr.col(1, 2, n), cr.box(5, n))
    assert (res.left, res.right, res.case_tag) == (cr.box(1, n), cr.col(2, 5, n), "d")
    res = iso.swap_pair(cr.col(2, 5, n), cr.box(4, n))
    assert (res.left, res.right, res.case_tag) == (cr.box(5, n), cr.col(2, 4, n), "f")
    res = iso.swap_pair(cr.col(2, 3, n), cr.box(2, n))
    assert (res.left, res.right, res.case_tag) == (cr.box(2, n), cr.col(2, 3, n), "e")


def test_col_box_process_tags():
    n = 4
    assert iso.swap_pair(cr.col(1, 3, n), cr.box(1, n)).case_tag == "a"
    assert iso.swap_pair(cr.col(2, 3, n), cr.box(1, n)).case_tag == "b"
    assert iso.swap_pair(cr.col(1, 3, n), cr.box(2, n)).case_tag == "c"
    assert iso.swap_pair(cr.col(1, 2, n), cr.box(3, n)).case_tag == "d"
    assert iso.swap_pair(cr.col(2, 4, n), cr.box(3, n)).case_tag == "f"
    assert iso.swap_pair(cr.col(2, 3, n), cr.box(4, n)).case_tag == "g"


def test_box_col_examples():
    res = iso.swap_pair(cr.box(1, 3), cr.col(1, 2, 3))
    assert (res.left, res.right) == (cr.col(1, 2, 3), cr.box(1, 3))
    n = 5
    res = iso.swap_pair(cr.box(1, n), cr.col(2, 5, n))
    assert (res.left, res.right) == (cr.col(1, 2, n), cr.box(5, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_col_box_round_trips(n):
    """Every (top, bottom, g): each swap inverts the other, and the inverse names the case of
    the forward swap, both as a core and through `swap_pair`."""
    for d in cr.iter_crystal((1, 1), n):
        for c in cr.iter_crystal((1,), n):
            res = iso.swap_pair(d, c)
            back = iso.swap_pair(res.left, res.right)
            assert (back.left, back.right, back.case_tag) == (d, c, res.case_tag)
            g = c.entries[0]
            emitted, top, bottom, tag = iso.col_box_core(d.top, d.bottom, g)
            assert iso.box_col_core(emitted, top, bottom) == (d.top, d.bottom, g, tag)
            res = iso.swap_pair(c, d)
            back = iso.swap_pair(res.left, res.right)
            assert (back.left, back.right, back.case_tag) == (c, d, res.case_tag)


# --- row x column ----------------------------------------------------------


def test_row_col_examples():
    n = 3
    res = iso.swap_pair(cr.row("111", n), cr.col(2, 3, n))
    assert (res.left, res.right, res.case_tag) == (cr.col(1, 2, n), cr.row("113", n), "2")
    res = iso.swap_pair(cr.row("112", n), cr.col(1, 3, n))
    assert (res.left, res.right, res.case_tag) == (cr.col(2, 3, n), cr.row("111", n), "4")
    res = iso.swap_pair(cr.row("11", n), cr.col(1, 3, n))
    assert (res.left, res.right, res.case_tag) == (cr.col(1, 3, n), cr.row("11", n), "4")


def test_row_col_distinct_gaps_case():
    n = 4
    res = iso.swap_pair(cr.row("1134", n), cr.col(2, 4, n))
    # letters 2 and 4 bump entries at distinct gaps
    assert res.case_tag == "1"
    back = iso.swap_pair(res.left, res.right)
    assert (back.left, back.right) == (cr.row("1134", n), cr.col(2, 4, n))


def test_row_col_corner_case():
    # both column letters at or below the smallest row entry
    res = iso.swap_pair(cr.row("22", 3), cr.col(1, 2, 3))
    assert (res.left, res.right, res.case_tag) == (cr.col(1, 2, 3), cr.row("22", 3), "5")
    res = iso.swap_pair(cr.row("33", 3), cr.col(1, 2, 3))
    assert (res.left, res.right, res.case_tag) == (cr.col(1, 3, 3), cr.row("23", 3), "5")


def test_col_row_examples():
    n = 3
    res = iso.swap_pair(cr.col(1, 2, n), cr.row("111", n))
    assert (res.left, res.right, res.case_tag) == (cr.row("111", n), cr.col(1, 2, n), "I")
    res = iso.swap_pair(cr.col(1, 2, n), cr.row("113", n))
    assert (res.left, res.right, res.case_tag) == (cr.row("111", n), cr.col(2, 3, n), "V")
    n = 5
    res = iso.swap_pair(cr.col(1, 2, n), cr.row("225", n))
    back = iso.swap_pair(res.left, res.right)
    assert (back.left, back.right) == (cr.col(1, 2, n), cr.row("225", n))


def test_col_row_hits_all_five_cases():
    n = 4
    seen = set()
    for d in cr.iter_crystal((1, 1), n):
        for b in cr.iter_crystal((3,), n):
            seen.add(iso.swap_pair(d, b).case_tag)
    assert seen == {"I", "II", "III", "IV", "V"}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_row_col_round_trips(n, ell):
    for b in cr.iter_crystal((ell,), n):
        for d in cr.iter_crystal((1, 1), n):
            if ell == 1:  # swap_pair sends a box to the box cores, so check these cores
                top, bottom, new, _ = iso.row_col_core(b.entries, d.top, d.bottom)
                assert iso.col_row_core(top, bottom, new)[:3] == (b.entries, d.top, d.bottom)
                new, top, bottom, _ = iso.col_row_core(d.top, d.bottom, b.entries)
                assert iso.row_col_core(new, top, bottom)[:3] == (d.top, d.bottom, b.entries)
                continue
            res = iso.swap_pair(b, d)
            back = iso.swap_pair(res.left, res.right)
            assert (back.left, back.right) == (b, d)
            res = iso.swap_pair(d, b)
            back = iso.swap_pair(res.left, res.right)
            assert (back.left, back.right) == (d, b)


# --- row x row -------------------------------------------------------------


def test_combinatorial_r_count_example():
    assert iso.combinatorial_r((3, 0, 0), (1, 1, 0)) == ((2, 0, 0), (2, 1, 0))
    with pytest.raises(ValueError, match="^count vectors must share one alphabet$"):
        iso.combinatorial_r((3, 0, 0), (1, 1))


def test_r_is_identity_on_equal_capacities():
    n = 3
    for a in cr.iter_crystal((2,), n):
        for b in cr.iter_crystal((2,), n):
            assert iso.combinatorial_r(a.counts(), b.counts()) == (a.counts(), b.counts())


def test_r_swaps_capacities():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 5)
        la, lb = rng.randint(1, 4), rng.randint(1, 4)
        a = random_factor(rng, (la,), n)
        b = random_factor(rng, (lb,), n)
        x2, y2 = iso.combinatorial_r(a.counts(), b.counts())
        assert sum(x2) == lb and sum(y2) == la
        assert all(v >= 0 for v in x2 + y2)


def test_r_matches_row_box_swap():
    n = 3
    for b in cr.iter_crystal((3,), n):
        for c in cr.iter_crystal((1,), n):
            x2, y2 = iso.combinatorial_r(b.counts(), c.counts())
            res = iso.swap_pair(b, c)
            assert cr.counts_to_row(x2) == res.left
            assert cr.counts_to_row(y2) == res.right


# The piecewise linear form of R, a second reference.  With D_m = sum_{t<m} (y_t - x_t),
# a_m = D_m + y_m, Delta = |y| - |x|: P_i = max(max_{m>=i} a_m, max_{m<i} a_m + Delta) - D_i.


def carrier_potential(x, y):
    """The cyclic partial-sum maxima (P_1..P_n) of the pair (x, y), from two running maxima."""
    if len(x) != len(y) or not x:  # an alphabet has a letter
        raise ValueError("count vectors must share one alphabet")
    d = [0, *accumulate(map(sub, y, x))]  # D_0..D_n
    delta = d.pop()
    a = [*map(add, d, y)]
    p, best = [], a[-1]
    for m in reversed(a):  # p[i] = max(a[i:])
        if m > best:
            best = m
        p.append(best)
    p.reverse()
    best = a[0] + delta  # max(a[:i]) + delta, the wrapped sums
    for i in range(1, len(a)):
        if best > p[i]:
            p[i] = best
        if a[i] + delta > best:
            best = a[i] + delta
    return tuple(map(sub, p, d))


def potential_r(x, y):
    """R from `carrier_potential`: the new rows move by the steps P_{i+1} - P_i."""
    p = carrier_potential(x, y)
    step = [*map(sub, p[1:] + p[:1], p)]  # P_{i+1} - P_i, cyclically
    return tuple(map(add, y, step)), tuple(map(sub, x, step))


def test_carrier_potential_is_cyclic_max():
    x, y = (3, 0, 0), (1, 1, 0)
    assert carrier_potential(x, y) == (1, 2, 1)


@pytest.mark.parametrize("la,lb", [(2, 3), (3, 2), (1, 4)])
def test_r_round_trips(la, lb):
    n = 3
    for a in cr.iter_crystal((la,), n):
        for b in cr.iter_crystal((lb,), n):
            x2, y2 = iso.combinatorial_r(a.counts(), b.counts())
            assert iso.combinatorial_r(x2, y2) == (a.counts(), b.counts())


def quadratic_potential(x, y):
    """The literal definition of `carrier_potential`: for each start i, the largest of
    the n cyclic partial sums y_i, y_i - x_i + y_{i+1}, ...; O(n^2)."""
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


def quadratic_r(x, y):
    """`combinatorial_r` from `quadratic_potential`."""
    n = len(x)
    p = quadratic_potential(x, y)
    x2 = tuple(y[i] + p[(i + 1) % n] - p[i] for i in range(n))
    y2 = tuple(x[i] + p[i] - p[(i + 1) % n] for i in range(n))
    return x2, y2


# every count vector of capacity 1..4, n = 2..5
SMALL_ROWS = {n: [b.counts() for ell in range(1, 5) for b in cr.iter_crystal((ell,), n)]
              for n in range(2, 6)}


def first_disagreement_with_the_quadratic_definition():
    """The first pair of `SMALL_ROWS` on which `carrier_potential` differs from the
    quadratic definition, or `combinatorial_r` from it or from `potential_r`, and the
    number of pairs tried."""
    tried = 0
    for rows in SMALL_ROWS.values():
        for x in rows:
            for y in rows:
                tried += 1
                r = iso.combinatorial_r(x, y)
                if (carrier_potential(x, y) != quadratic_potential(x, y)
                        or r != quadratic_r(x, y) or r != potential_r(x, y)):
                    return (x, y), tried
    return None, tried


def test_r_is_the_quadratic_definition_on_every_small_pair():
    assert first_disagreement_with_the_quadratic_definition() == (None, 21738)


# one-line faults of the pairing: (old line, new line of `combinatorial_r`, whether the
# fixture chains catch it).  The chains' row pairs hold one letter on the side that winds,
# so they cannot see the direction of the wind; the braid check on (3,),(1,),(1,1) does, as
# it swaps (3,)x(1,) by `row_box_core` and back by R, whose head case is that wind.
PAIRING_FAULTS = {
    "pairs-an-equal-letter": ("take = site[a] = free if free < u[a] else u[a]",
                              "take = site[a] = min(free + v[a], u[a])", True),
    "winds-from-the-smallest": ("for b in order:", "for b in reversed(order):", False),
}


@pytest.mark.parametrize("old, new, chains", PAIRING_FAULTS.values(), ids=PAIRING_FAULTS)
def test_a_planted_pairing_fault_fails_the_exhaustive_check_and_the_inhom_path_suite(
        monkeypatch, fresh_cores, old, new, chains):
    """A fault in R is caught at small scope, by the basic row core against `row_box_core`,
    by the braid check and by the inhomogeneous path suite, which reaches it through the
    sweeps' memoised row core; the braid check and the chains reach it by `swap_pair`."""
    planted = recompiled(iso.combinatorial_r, old, new)
    monkeypatch.setattr(iso, "combinatorial_r", planted)  # its mirror case and `swap_pair`
    monkeypatch.setattr(dyn, "combinatorial_r", planted)
    pair, _ = first_disagreement_with_the_quadratic_definition()
    assert pair is not None
    assert planted(*pair) != quadratic_r(*pair)
    assert first_row_core_disagreement()[0] is not None
    assert not check_symmetric_group([(3,), (1,), (1, 1)], 3).passed
    assert not check_path_suite("theorem", "inhom", 5, 100, 0, [1, 2, 3, None]).passed
    assert check_highest_weight_chains().passed is not chains


@st.composite
def count_vector_pair(draw):
    n = draw(st.integers(1, 12))

    def row():
        letters = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=60))
        return tuple(map(letters.count, range(n)))

    return row(), row()


@settings(max_examples=500, deadline=None)
@given(count_vector_pair())
def test_r_is_the_quadratic_definition_and_an_involution(pair):
    x, y = pair
    assert carrier_potential(x, y) == quadratic_potential(x, y)
    x2, y2 = iso.combinatorial_r(x, y)
    assert (x2, y2) == quadratic_r(x, y) == potential_r(x, y)
    assert iso.combinatorial_r(x2, y2) == (x, y)


@pytest.mark.parametrize("x, y", [((1, 0, 0), (1, 0, 0, 0)), ((1, 0, 0, 0), (1, 0, 0)), ((), ())])
def test_rows_of_two_alphabets_or_none_raise(x, y):
    for f in (carrier_potential, iso.combinatorial_r):
        with pytest.raises(ValueError, match="^count vectors must share one alphabet$"):
            f(x, y)


# --- dispatch and sigma ----------------------------------------------------


def test_swaps_conserve_weight():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 4)
        left = random_factor(rng, rng.choice(SHAPE_POOL), n)
        right = random_factor(rng, rng.choice(SHAPE_POOL), n)
        res = iso.swap_pair(left, right)
        assert cr.weight_of(as_pair(res)) == cr.weight_of(cr.tensor(left, right))


def test_swap_pair_equal_shapes_trivial():
    a, b = cr.row("12", 3), cr.row("23", 3)
    res = iso.swap_pair(a, b)
    assert (res.left, res.right, res.case_tag) == (a, b, "id")
    c, d = cr.col(1, 2, 3), cr.col(2, 3, 3)
    res = iso.swap_pair(c, d)
    assert (res.left, res.right, res.case_tag) == (c, d, "id")


def test_swap_pair_rejects_foreign_objects():
    with pytest.raises(iso.UnsupportedShapeError):
        iso.swap_pair("row", cr.box(1, 3))
    with pytest.raises(iso.UnsupportedShapeError):
        iso.swap_pair(cr.box(1, 3), 7)


def test_swap_pair_rejects_mixed_alphabets():
    pairs = [
        (cr.box(2, 4), cr.row("12", 3)),
        (cr.row("12", 3), cr.box(2, 4)),
        (cr.col(1, 2, 3), cr.col(1, 2, 4)),
        (cr.row("113", 5), cr.col(2, 3, 3)),
    ]
    for left, right in pairs:
        with pytest.raises(ValueError, match="mix alphabets"):
            iso.swap_pair(left, right)


@st.composite
def factor_pair(draw):
    n = draw(st.integers(2, 12))

    def factor():
        if draw(st.booleans()):
            ell = draw(st.integers(1, 8))
            letters = draw(st.lists(st.integers(1, n), min_size=ell, max_size=ell))
            return cr.RowTableau(tuple(sorted(letters)), n)
        top, bottom = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
        return cr.ColumnPair(top, bottom, n)

    return factor(), factor()


@settings(max_examples=300, deadline=None)
@given(factor_pair())
def test_swap_pair_is_a_crystal_isomorphism(pair):
    left, right = pair
    t = cr.tensor(left, right)
    swapped = as_pair(iso.swap_pair(left, right))
    assert tuple(f.shape for f in swapped.factors) == (right.shape, left.shape)
    assert as_pair(iso.swap_pair(*swapped.factors)) == t
    assert cr.weight_of(swapped) == cr.weight_of(t)
    for i in range(1, t.n):
        for op in (cr.lowering, cr.raising):
            moved = op(i, t)
            if moved is None:
                assert op(i, swapped) is None
            else:
                assert as_pair(iso.swap_pair(*moved.factors)) == op(i, swapped)


def test_swap_adjacent_position_contract():
    t = cr.tensor(cr.box(1, 3), cr.box(2, 3))
    with pytest.raises(ValueError):
        iso.swap_adjacent(t, 2)
    with pytest.raises(ValueError):
        iso.swap_adjacent(t, 0)


@pytest.mark.parametrize("i", [1.0, True, "1"])
def test_swap_adjacent_takes_an_int_position(i):
    t = cr.tensor(cr.box(1, 3), cr.box(2, 3))
    with pytest.raises(ValueError, match=rf"^position must lie in 1\.\.1, got {i!r}$"):
        iso.swap_adjacent(t, i)


def test_swap_adjacent_is_involution():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(2, 4)
        k = rng.randint(2, 4)
        t = random_tensor(rng, [rng.choice(SHAPE_POOL) for _ in range(k)], n)
        for i in range(1, k):
            assert iso.swap_adjacent(iso.swap_adjacent(t, i), i) == t


@pytest.mark.parametrize("shapes", [((2,), (1, 1)), ((1, 1), (1,)), ((2,), (3,))])
def test_swaps_commute_with_lowering(shapes):
    n = 3
    for t in cr.iter_tensor(shapes, n):
        swapped = as_pair(iso.swap_pair(*t.factors))
        for i in range(1, n):
            ft = cr.lowering(i, t)
            fswapped = cr.lowering(i, swapped)
            if ft is None:
                assert fswapped is None
            else:
                assert as_pair(iso.swap_pair(*ft.factors)) == fswapped


def test_oracle_agreement_sample():
    for shapes in (((2,), (1, 1)), ((1, 1), (2,))):
        table = isomorphism_table(shapes[0], shapes[1], 3)
        for t, expected in table.items():
            assert as_pair(iso.swap_pair(*t.factors)) == expected
