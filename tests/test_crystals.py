import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from boxball import crystals as cr
from boxball.verify import random_tensor

SHAPE_POOL = [(1,), (2,), (3,), (1, 1)]


def test_row_validation():
    with pytest.raises(ValueError):
        cr.row((2, 1), 3)
    with pytest.raises(ValueError):
        cr.row((0, 1), 3)
    with pytest.raises(ValueError):
        cr.row((1, 4), 3)
    with pytest.raises(ValueError):
        cr.RowTableau((), 3)
    with pytest.raises(ValueError):
        cr.RowTableau((1,), 1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: cr.RowTableau((1, 2.0), 3), "entries must be ints in 1..3: (1, 2.0)"),
        (lambda: cr.RowTableau((True, 2), 3), "entries must be ints in 1..3: (True, 2)"),
        (lambda: cr.RowTableau((0, 1), 3), "entries must be ints in 1..3: (0, 1)"),
        (lambda: cr.RowTableau((1, 4), 3), "entries must be ints in 1..3: (1, 4)"),
        (lambda: cr.RowTableau((2, 1), 3), "entries must be weakly increasing: (2, 1)"),
        # out of range and unsorted: the range is named
        (lambda: cr.RowTableau((4, 1), 3), "entries must be ints in 1..3: (4, 1)"),
        (lambda: cr.RowTableau((), 3), "row must have at least one entry"),
        (lambda: cr.counts_to_row((1, -1, 2)), "counts must be non-negative: (1, -1, 2)"),
        (lambda: cr.counts_to_row(()), "alphabet size must be an int >= 2, got 0"),
    ],
)
def test_a_bad_row_names_the_first_rule_it_breaks(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_a_row_stores_its_entries_as_a_tuple():
    """Any iterable of letters builds a row that hashes like the tuple-built one."""
    r = cr.RowTableau([1, 2], 3)
    assert r.entries == (1, 2)
    assert r == cr.RowTableau((1, 2), 3) and hash(r) == hash(cr.RowTableau((1, 2), 3))
    assert {cr.tensor(r): 0} == {cr.tensor(cr.row("12", 3)): 0}


def test_col_validation():
    with pytest.raises(ValueError):
        cr.col(2, 2, 3)
    with pytest.raises(ValueError):
        cr.col(3, 1, 3)
    with pytest.raises(ValueError):
        cr.col(0, 2, 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cr.RowTableau((1.5, 2), 3),
        lambda: cr.RowTableau((1, 2.0), 3),
        lambda: cr.RowTableau((True, 2), 3),
        lambda: cr.RowTableau(("1",), 3),
        lambda: cr.RowTableau((1,), 3.0),
        lambda: cr.RowTableau((1,), True),
        lambda: cr.ColumnPair(True, 2, 3),
        lambda: cr.ColumnPair(1, 2.0, 3),
        lambda: cr.ColumnPair("1", "2", 3),
        lambda: cr.ColumnPair(1, 2, 3.0),
    ],
)
def test_crystal_elements_take_ints_only(make):
    """`2 == 2.0 == True` hash alike, so a float or bool letter could stand for an int
    one in a memo keyed on factors; a non-int is refused with a ValueError."""
    with pytest.raises(ValueError, match="int"):
        make()


def test_tensor_needs_uniform_alphabet():
    with pytest.raises(ValueError):
        cr.tensor(cr.box(1, 3), cr.box(1, 4))
    with pytest.raises(ValueError):
        cr.TensorElement(())


def test_text_forms():
    assert str(cr.row("112", 3)) == "<112>"
    assert str(cr.col(1, 3, 3)) == "[1/3]"
    assert str(cr.tensor(cr.row("11", 3), cr.col(2, 3, 3))) == "<11>*[2/3]"
    assert str(cr.row((1, 10, 12), 12)) == "<1,10,12>"


def test_lowering_row_examples():
    assert cr.lowering(1, cr.row("112", 3)) == cr.row("122", 3)
    assert cr.lowering(2, cr.row("111", 3)) is None
    assert cr.lowering(2, cr.row("223", 4)) == cr.row("233", 4)


def test_lowering_col_examples():
    assert cr.lowering(2, cr.col(1, 2, 3)) == cr.col(1, 3, 3)
    assert cr.lowering(1, cr.col(1, 2, 3)) is None
    assert cr.lowering(1, cr.col(1, 3, 3)) == cr.col(2, 3, 3)


def test_eps_phi_examples():
    assert cr.eps_phi(1, cr.row("112", 3)) == (1, 2)
    assert cr.eps_phi(2, cr.col(1, 3, 3)) == (1, 0)
    assert cr.eps_phi(1, cr.col(1, 2, 3)) == (0, 0)
    assert cr.eps_phi(1, cr.row("112", 3))[0] == 1
    assert cr.eps_phi(1, cr.row("112", 3))[1] == 2


def test_operator_index_contract():
    with pytest.raises(ValueError):
        cr.lowering(3, cr.row("11", 3))
    with pytest.raises(ValueError):
        cr.raising(0, cr.col(1, 2, 3))
    with pytest.raises(ValueError):
        cr.eps_phi(5, cr.tensor(cr.box(1, 4)))


@pytest.mark.parametrize("i", [1.5, 1.0, True, "1"])
@pytest.mark.parametrize("op", [cr.lowering, cr.raising, cr.eps_phi])
def test_an_operator_index_is_an_int(op, i):
    """A float index would act as no operator and a bool as index 1: both are refused."""
    with pytest.raises(ValueError, match=rf"^operator index must lie in 1\.\.2, got {i!r}$"):
        op(i, cr.row("112", 3))


@pytest.mark.parametrize("shape", [(2.0,), (True,), ("2",), (1.0, 1), (1, True)])
def test_a_shape_holds_ints_only(shape):
    with pytest.raises(ValueError, match=r"^unsupported shape "):
        cr.is_column(shape)


def test_tensor_lowering_dispatch():
    n = 3
    t = cr.tensor(cr.row("11", n), cr.col(1, 2, n))
    assert cr.lowering(1, t) == cr.tensor(cr.row("12", n), cr.col(1, 2, n))
    t2 = cr.tensor(cr.row("22", n), cr.row("11", n))
    assert cr.lowering(1, t2) == cr.tensor(cr.row("22", n), cr.row("12", n))
    single = cr.tensor(cr.row("12", n))
    assert cr.lowering(1, single) == cr.tensor(cr.row("22", n))
    assert cr.lowering(2, single) == cr.tensor(cr.row("13", n))


def test_tensor_raising_examples():
    n = 3
    assert cr.raising(1, cr.tensor(cr.row("11", n), cr.row("11", n))) is None
    t = cr.tensor(cr.row("12", n), cr.col(1, 2, n))
    assert cr.raising(1, t) == cr.tensor(cr.row("11", n), cr.col(1, 2, n))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "shapes",
    [((2,), (1, 1)), ((1, 1), (1,)), ((3,), (2,)), ((2,), (1,), (1, 1)), ((4,),)],
)
def test_lowering_raising_mutual_inverse(shapes, n):
    for t in cr.iter_tensor(shapes, n):
        assert cr.is_highest_weight(t) == all(cr.raising(i, t) is None for i in range(1, n))
        for i in range(1, n):
            ft = cr.lowering(i, t)
            if ft is not None:
                assert cr.raising(i, ft) == t
            et = cr.raising(i, t)
            if et is not None:
                assert cr.lowering(i, et) == t


def test_lowering_moves_one_weight_unit():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 4)
        shapes = [rng.choice(SHAPE_POOL) for _ in range(rng.randint(1, 3))]
        t = random_tensor(rng, shapes, n)
        for i in range(1, n):
            ft = cr.lowering(i, t)
            if ft is None:
                continue
            before, after = list(cr.weight_of(t)), list(cr.weight_of(ft))
            before[i - 1] -= 1
            before[i] += 1
            assert before == after


def test_eps_phi_fold_is_associative():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(2, 4)
        shapes = [rng.choice(SHAPE_POOL) for _ in range(rng.randint(2, 4))]
        t = random_tensor(rng, shapes, n)
        for i in range(1, n):
            # right fold oracle
            fs = t.factors
            e, p = cr.eps_phi(i, fs[-1])
            for f in reversed(fs[:-1]):
                ef, pf = cr.eps_phi(i, f)
                e, p = max(ef, ef + e - pf), max(p, pf + p - e)
            assert cr.eps_phi(i, t) == (e, p)


@st.composite
def tensor_and_index(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    factors = []
    for _ in range(k):
        if draw(st.booleans()):
            length = draw(st.integers(1, 3))
            entries = tuple(
                sorted(draw(st.lists(st.integers(1, n), min_size=length, max_size=length)))
            )
            factors.append(cr.RowTableau(entries, n))
        else:
            a, b = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
            factors.append(cr.ColumnPair(a, b, n))
    i = draw(st.integers(1, n - 1))
    return cr.TensorElement(tuple(factors)), i


@given(tensor_and_index())
def test_operators_are_partial_inverses(case):
    t, i = case
    ft = cr.lowering(i, t)
    if ft is not None:
        assert cr.raising(i, ft) == t
    et = cr.raising(i, t)
    if et is not None:
        assert cr.lowering(i, et) == t


def test_vacuum_elements_are_highest_weight():
    assert cr.is_highest_weight(cr.row("1111", 3))
    assert cr.is_highest_weight(cr.col(1, 2, 5))
    assert not cr.is_highest_weight(cr.row("22", 3))


def test_highest_weight_chain_heads():
    n = 3
    assert cr.is_highest_weight(cr.tensor(cr.row("111", n), cr.box(1, n), cr.col(2, 3, n)))
    assert cr.is_highest_weight(cr.tensor(cr.row("111", n), cr.box(2, n), cr.col(1, 3, n)))


def test_highest_weights_grouping():
    grouped = cr.highest_weights([(3,), (1,), (1, 1)], 3)
    assert {w: len(e) for w, e in grouped.items()} == {
        (3, 2, 1): 1,
        (4, 2, 0): 1,
        (5, 1, 0): 1,
        (4, 1, 1): 2,
    }
    heads = grouped[(4, 1, 1)]
    assert cr.tensor(cr.row("111", 3), cr.box(1, 3), cr.col(2, 3, 3)) in heads
    assert cr.tensor(cr.row("111", 3), cr.box(2, 3), cr.col(1, 3, 3)) in heads


def test_single_box_crystal_has_one_head():
    for n in (2, 3, 5):
        grouped = cr.highest_weights([(1,)], n)
        only = (1,) + (0,) * (n - 1)
        assert list(grouped) == [only]
        assert grouped[only] == [cr.tensor(cr.box(1, n))]


def test_crystal_sizes_and_lex_order():
    rows = list(cr.iter_crystal((2,), 3))
    assert len(rows) == cr.crystal_size((2,), 3) == 6
    assert [r.entries for r in rows] == sorted(r.entries for r in rows)
    cols = list(cr.iter_crystal((1, 1), 4))
    assert [(c.top, c.bottom) for c in cols] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    with pytest.raises(ValueError):
        list(cr.iter_crystal((2, 1), 3))


def test_domain_cap_guard(monkeypatch):
    monkeypatch.setattr(cr, "MAX_DOMAIN", 10)
    with pytest.raises(cr.DomainSizeError):
        list(cr.iter_tensor([(3,), (3,)], 4))
    with pytest.raises(cr.DomainSizeError,
                       match="^product crystal of 2 factors at n=4: over the cap of 10 elements$"):
        cr.highest_weights([(3,), (3,)], 4)
    monkeypatch.undo()
    assert cr.MAX_DOMAIN == 1_000_000


def test_counts_round_trip():
    assert cr.row("112", 3).counts() == (2, 1, 0)
    assert cr.counts_to_row((3, 0, 0)) == cr.row("111", 3)
    n = 4
    for b in cr.iter_crystal((4,), n):
        assert cr.counts_to_row(b.counts()) == b
    with pytest.raises(ValueError):
        cr.counts_to_row((1, -1, 1))


def test_every_element_reachable_from_highest_weight():
    n, shapes = 3, [(2,), (1, 1)]
    everything = set(cr.iter_tensor(shapes, n))
    seen = {t for t in everything if cr.is_highest_weight(t)}
    stack = list(seen)
    while stack:
        t = stack.pop()
        for i in range(1, n):
            ft = cr.lowering(i, t)
            if ft is not None and ft not in seen:
                seen.add(ft)
                stack.append(ft)
    assert seen == everything


def test_weight_examples():
    assert cr.weight_of(cr.col(1, 3, 3)) == (1, 0, 1)
    assert cr.weight_of(cr.row("223", 4)) == (0, 2, 1, 0)
    t = cr.tensor(cr.row("12", 3), cr.col(2, 3, 3))
    assert cr.weight_of(t) == (1, 2, 1)
    assert sum(cr.weight_of(t)) == 4
    with pytest.raises(TypeError, match=r"^not a crystal element: \(1, 2\)$"):
        cr.weight_of((1, 2))


def reference_highest_weights(shapes, n):
    """The brute-force scan: every element of the product, kept when every e_i kills it."""
    out = {}
    for t in cr.iter_tensor(shapes, n):
        if cr.is_highest_weight(t):
            out.setdefault(cr.weight_of(t), []).append(t)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_highest_weights_by_prefix_extension_equal_the_scan(n):
    """Every pair and triple of small shapes: the same weights, elements and order."""
    for k in (2, 3):
        for shapes in product(SHAPE_POOL, repeat=k):
            got = cr.highest_weights(shapes, n)
            assert list(got.items()) == list(reference_highest_weights(shapes, n).items())


def test_factor_tables_match_the_operators():
    for shape in SHAPE_POOL:
        (table,) = cr.factor_tables([shape], 4)
        assert table.elements == list(cr.iter_crystal(shape, 4))
        for f, pairs, lowered, w in zip(*table):
            assert w == cr.weight_of(f)
            for i in range(1, 4):
                assert pairs[i - 1] == cr.eps_phi(i, f)
                k = lowered[i - 1]
                assert cr.lowering(i, f) == (None if k is None else table.elements[k])
