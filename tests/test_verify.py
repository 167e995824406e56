import itertools
import random

import pytest

from boxball import crystals as cr
from boxball import dynamics as dyn
from boxball import isomorphisms as iso
from boxball import separation as sep
from boxball import verify
from boxball.cli import report_document
from conftest import recompiled

SHAPE_POOL = [(1,), (2,), (3,), (1, 1)]


def test_isomorphism_table_is_a_bijection():
    table = verify.isomorphism_table((2,), (1, 1), 3)
    assert len(table) == cr.tensor_size([(2,), (1, 1)], 3) == 18
    assert len(set(table.values())) == 18


def test_isomorphism_table_preserves_weight():
    table = verify.isomorphism_table((3,), (1,), 3)
    for t, img in table.items():
        assert cr.weight_of(t) == cr.weight_of(img)


@pytest.mark.parametrize(
    "shapes",
    [((2,), (1,)), ((1,), (2,)), ((1, 1), (1,)), ((1,), (1, 1)), ((3,), (1, 1)), ((2,), (3,))],
)
def test_closed_forms_match_oracle(shapes):
    rep = verify.check_swap_against_oracle(shapes[0], shapes[1], 3)
    assert rep.passed, rep.counterexample


def reference_isomorphism_table(shape_a, shape_b, n):
    """The object-level oracle: scan both products for highest weight elements, then
    propagate along `lowering` on crystal elements, with the kernel's checks."""
    left = list(cr.iter_tensor([shape_a, shape_b], n))
    hw_left = [t for t in left if cr.is_highest_weight(t)]
    hw_right = {}
    for t in cr.iter_tensor([shape_b, shape_a], n):
        if cr.is_highest_weight(t):
            w = cr.weight_of(t)
            if w in hw_right:
                raise ValueError(f"weight {w} has multiplicity > 1; pair is unsupported")
            hw_right[w] = t
    if len(hw_left) != len(hw_right):
        raise ValueError("highest weight counts differ; pair is unsupported")
    mapping, stack = {}, []
    for u in hw_left:
        w = cr.weight_of(u)
        if w not in hw_right:
            raise ValueError(f"no partner of weight {w}")
        mapping[u] = hw_right[w]
        stack.append(u)
    while stack:
        t = stack.pop()
        img = mapping[t]
        for i in range(1, n):
            a, b = cr.lowering(i, t), cr.lowering(i, img)
            if (a is None) != (b is None):
                raise ValueError(f"lowering mismatch at {t} / {img}, index {i}")
            if a is None:
                continue
            if a in mapping:
                if mapping[a] != b:
                    raise ValueError(f"inconsistent propagation at {a}")
            else:
                mapping[a] = b
                stack.append(a)
    if len(mapping) != len(left):
        raise ValueError("domain not covered from highest weight elements")
    return mapping


def _table_or_error(table_of, *args):
    try:
        return list(table_of(*args).items())
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_index_kernel_builds_the_reference_table(n):
    """Every pair of small shapes: the same table in the same iteration order."""
    for pair in itertools.product(SHAPE_POOL, repeat=2):
        got = _table_or_error(verify.isomorphism_table, *pair, n)
        assert got == _table_or_error(reference_isomorphism_table, *pair, n), pair


def test_the_oracle_calls_no_swap_function(monkeypatch):
    for name, fn in vars(iso).items():
        if callable(fn) and getattr(fn, "__module__", None) == iso.__name__:
            _counted(monkeypatch, iso, name, fail=True)
    for name in ("swap_pair", "swap_adjacent"):
        _counted(monkeypatch, verify, name, fail=True)
    table = verify.isomorphism_table((3,), (1, 1), 4)
    assert list(table.items()) == list(reference_isomorphism_table((3,), (1, 1), 4).items())


def test_the_signature_rule_runs_per_signature_pair_not_per_element(monkeypatch):
    """Propagation reads the rule from a per-call table of (epsilon_i, phi_i) pairs: the
    calls beyond those of the factor tables stay below one per element of the domain."""
    calls = _counted(monkeypatch, cr, "_signature")
    monkeypatch.setattr(verify, "_signature", cr._signature)
    cr.factor_tables([(3,), (1, 1)], 5)
    in_tables = len(calls)
    table = verify.isomorphism_table((3,), (1, 1), 5)
    assert (in_tables, len(table)) == (180, 350)
    assert len(calls) - 2 * in_tables < len(table)


REAL_LOWERED = cr._lowered


def _column_lowers_to_the_wrong_letter(i, f):
    if isinstance(f, cr.ColumnPair) and f.top == i and f.bottom > i + 1:
        return cr.ColumnPair(i, i + 1, f.n)
    return REAL_LOWERED(i, f)


def _row_lowers_to_the_top_letter(i, f):
    if isinstance(f, cr.RowTableau) and f.entries.count(i) > 1:
        return cr.RowTableau(tuple(sorted(f.entries[1:] + (f.n,))), f.n)
    return REAL_LOWERED(i, f)


def _row_leaves_its_alphabet(i, f):
    if isinstance(f, cr.RowTableau):
        return cr.RowTableau(f.entries, f.n + 1)
    return REAL_LOWERED(i, f)


LOWERING_FAULTS = {
    "identity": lambda i, f: f,
    "column-wrong-letter": _column_lowers_to_the_wrong_letter,
    "row-top-letter": _row_lowers_to_the_top_letter,
    "row-leaves-alphabet": _row_leaves_its_alphabet,
}


@pytest.mark.parametrize(
    "fault, pair",
    [
        ("identity", ((3,), (1,))),
        ("column-wrong-letter", ((2,), (1, 1))),
        ("column-wrong-letter", ((1, 1), (1,))),
        ("row-top-letter", ((2,), (1, 1))),
        ("row-top-letter", ((3,), (1,))),
        ("row-leaves-alphabet", ((2,), (2,))),
    ],
)
def test_a_lowering_fault_planted_after_a_clean_call_is_seen(monkeypatch, fault, pair):
    """The factor tables are made anew on every call, so a clean call leaves nothing
    that hides a fault in f_i planted after it."""
    assert verify.check_swap_against_oracle(*pair, 4).passed
    monkeypatch.setattr(cr, "_lowered", LOWERING_FAULTS[fault])
    assert not verify.check_swap_against_oracle(*pair, 4).passed


def test_an_oracle_that_cannot_be_built_fails_the_report(monkeypatch):
    monkeypatch.setattr(cr, "_lowered", LOWERING_FAULTS["identity"])
    rep = verify.check_swap_against_oracle((3,), (1,), 4)
    assert (rep.passed, rep.domain) == (False, 80)
    assert rep.counterexample == (
        "raised ValueError: domain not covered from highest weight elements"
    )


# a planted `highest_weight_indices` changes the list of one side: `isomorphism_table` asks
# for the right side's first (call 0), then the left side's (call 1)
HIGHEST_WEIGHT_FAULTS = {
    "weight-repeated": (0, lambda found: found + [(found[0][0] + (0,), found[0][1])],
                        "weight (3, 0, 0) has multiplicity > 1; pair is unsupported"),
    "count-differs": (1, lambda found: found[:-1],
                      "highest weight counts differ; pair is unsupported"),
    "no-partner": (1, lambda found: found[:-1] + [(found[-1][0], (0, 0, 0))],
                   "no partner of weight (0, 0, 0)"),
}


@pytest.mark.parametrize("fault", HIGHEST_WEIGHT_FAULTS)
def test_highest_weights_without_partners_fail_the_report(monkeypatch, fault):
    side, change, message = HIGHEST_WEIGHT_FAULTS[fault]
    real, calls = cr.highest_weight_indices, []

    def planted(tables, n):
        calls.append(tables)
        found = real(tables, n)
        return change(found) if len(calls) == side + 1 else found

    monkeypatch.setattr(verify, "highest_weight_indices", planted)
    rep = verify.check_swap_against_oracle((2,), (1,), 3)
    assert (rep.passed, rep.domain, rep.counterexample) == (False, 18, f"raised ValueError: {message}")


def test_the_oracle_check_raises_on_a_shape_or_domain_it_cannot_check(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("an oracle table was built")

    monkeypatch.setattr(verify, "isomorphism_table", unbuilt)
    with pytest.raises(ValueError, match=r"^unsupported shape \(2, 1\)$"):
        verify.check_swap_against_oracle((2, 1), (1,), 3)
    monkeypatch.undo()
    with pytest.raises(cr.DomainSizeError):
        verify.check_swap_against_oracle((40,), (1, 1), 10)


@pytest.mark.parametrize("fault", ["identity", "column-wrong-letter", "row-top-letter"])
def test_under_a_lowering_fault_the_kernel_keeps_the_reference_outcome(monkeypatch, fault):
    """A fault that keeps f_i inside its crystal gives the same table, or the same error
    message, on index tuples as on crystal elements."""
    monkeypatch.setattr(cr, "_lowered", LOWERING_FAULTS[fault])
    for pair in itertools.product(SHAPE_POOL, repeat=2):
        got = _table_or_error(verify.isomorphism_table, *pair, 4)
        assert got == _table_or_error(reference_isomorphism_table, *pair, 4), pair


def test_symmetric_group_exhaustive_fixtures():
    rep = verify.check_symmetric_group([(3,), (1,), (1, 1)], 3)
    assert rep.passed and rep.domain == 90
    rep = verify.check_symmetric_group([(2,), (3,), (1, 1)], 3)
    assert rep.passed and rep.domain == 180


def test_symmetric_group_random_mode_is_seeded():
    a = verify.check_symmetric_group([(2,), (2,), (2,)], 4, seed=42, count=100)
    b = verify.check_symmetric_group([(2,), (2,), (2,)], 4, seed=42, count=100)
    assert a.passed and b.passed
    assert a.domain == b.domain == 100


def test_far_commutation_on_longer_products():
    rep = verify.check_symmetric_group([(2,), (1,), (1, 1), (1,)], 3, seed=1, count=150)
    assert rep.passed, rep.counterexample


def test_highest_weight_chains():
    rep = verify.check_highest_weight_chains()
    assert rep.passed, rep.counterexample
    assert rep.domain == 36  # six fixtures, six swaps each


def test_composition_words_example():
    x, y = verify.composition_words(3, 3)
    assert x == [3, 2, 1, 4, 3, 2, 5, 4, 3, 6, 5, 4, 3, 2, 1]
    assert y == [6, 5, 4, 3, 2, 1, 4, 3, 2, 5, 4, 3, 6, 5, 4]


def test_carrier_composition_minimal_exhaustive():
    rep = verify.check_carrier_composition(2, 1, 1, 3)
    assert rep.passed and rep.domain == 6 * 3 * 3


def test_carrier_composition_random_cases():
    rep = verify.check_carrier_composition(2, 3, 3, 3, seed=7, count=200)
    assert rep.passed, rep.counterexample
    rep = verify.check_carrier_composition(3, 2, 4, 4, seed=11, count=100)
    assert rep.passed, rep.counterexample


def test_count_alone_picks_the_domain():
    exhaustive = verify.check_symmetric_group([(2,), (1,)], 3)
    drawn = verify.check_symmetric_group([(2,), (1,)], 3, count=7)
    assert (exhaustive.domain, drawn.domain) == (18, 7)
    assert exhaustive.relation.endswith("exhaustive]") and drawn.relation.endswith("random]")
    again = verify.check_carrier_composition(2, 1, 1, 3, count=7)
    assert again.domain == 7 and again.relation.endswith(";random]")


def _counted(monkeypatch, module, name, fail=False):
    """The list of argument tuples of every call of `module.name` from now on; with
    `fail`, each call raises instead."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        if fail:
            raise AssertionError(f"{name} was called")
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify.check_symmetric_group([(3,), (1,), (1, 1)], 3, 0, cr.MAX_DOMAIN + 1),
        lambda: verify.check_carrier_composition(2, 1, 1, 3, 0, cr.MAX_DOMAIN + 1),
    ],
)
def test_a_random_domain_above_the_cap_raises_before_any_draw(monkeypatch, check):
    draws = _counted(monkeypatch, verify, "random_tensor", fail=True)
    with pytest.raises(cr.DomainSizeError, match="cap is 1000000"):
        check()
    assert draws == []


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: verify.check_symmetric_group([(10**12,), (1,)], 3, 0, 1),
         "random elements of 1000000000001 letters, cap is 1000000"),
        (lambda: verify.check_carrier_composition(10**12, 1, 1, 3, 0, 1),
         "random elements of 1000000000003 letters, cap is 1000000"),
        (lambda: verify.check_carrier_composition(2, 10**9, 1, 3, 0, 1),
         "swap words of 2000000001 swaps, cap is 1000000"),
        (lambda: verify.check_carrier_composition(2, 1, 10**9, 3),
         "swap words of 2000000001 swaps, cap is 1000000"),
        (lambda: verify.check_path_suite("theorem", "basic", 3, 2 * 10**6, 0, [1, 2, 3, None]),
         "path suite domain of 8000000 checks, cap is 1000000"),
        (lambda: verify.check_symmetric_group([(1, 1)] * 1000, 255),
         "product crystal of 1000 factors at n=255: over the cap of 1000000 elements"),
        (lambda: verify.check_carrier_composition(2, 60000, 1, 255),
         "product crystal of 60002 factors at n=255: over the cap of 1000000 elements"),
        (lambda: verify.check_carrier_composition(2, 999, 999, 3, 0, 10**6),
         "1000000 elements x 999999 swaps in each word, cap is 1000000"),
        (lambda: verify.check_carrier_composition(2, 200, 10, 2),
         "3072 elements x 2210 swaps in each word, cap is 1000000"),
        (lambda: verify.check_symmetric_group([(1,)] * 200_000, 3, 0, 3),
         "3 elements x 399997 relation words, cap is 1000000"),
    ],
    ids=["braid-row", "composition-row", "carriers", "boxes", "path-suite", "braid-columns",
         "composition-columns", "composition-work", "composition-exhaustive-work",
         "braid-work"],
)
def test_a_check_over_the_cap_raises_before_it_builds_anything(monkeypatch, check, message):
    """A factor, a product crystal, a swap word, a word check's total work or a path suite
    too large to check is refused before any element, word or path is made."""
    for name in ("random_tensor", "iter_tensor", "composition_words", "_words_disagree"):
        _counted(monkeypatch, verify, name, fail=True)
    for mode in verify.PATH_KINDS:
        monkeypatch.setitem(verify.PATH_KINDS, mode, None)
    with pytest.raises(cr.DomainSizeError, match=f"^{message}$"):
        check()


def test_the_caps_on_a_swap_word_and_a_path_suite_are_inclusive(monkeypatch):
    monkeypatch.setattr(verify, "MAX_DOMAIN", 4)  # the crystals' own guard keeps its cap
    assert verify.check_carrier_composition(1, 1, 1, 3, count=1).passed  # words of 3 swaps
    assert verify.check_path_suite("theorem", "inhom", 3, 2, 0, [1, None]).domain == 4
    with pytest.raises(cr.DomainSizeError, match="^swap words of 5 swaps, cap is 4$"):
        verify.check_carrier_composition(2, 1, 2, 3)
    with pytest.raises(cr.DomainSizeError, match="^path suite domain of 6 checks, cap is 4$"):
        verify.check_path_suite("theorem", "inhom", 3, 3, 0, [1, None])


def test_the_caps_on_a_word_check_s_work_are_inclusive(monkeypatch):
    """A check's elements times its relation words, or times the swaps in each of its words,
    may equal the cap, not pass it; the relation words are counted before they are built."""
    words = _counted(monkeypatch, verify, "_words_disagree")
    for k in range(2, 7):
        size = 2**k * ((k - 1) + (k - 2))
        monkeypatch.setattr(verify, "MAX_DOMAIN", size)  # the crystals' own guard keeps its cap
        assert verify.check_symmetric_group([(1,)] * k, 2).passed
        assert 2**k * len(words.pop()[1]) == size
        monkeypatch.setattr(verify, "MAX_DOMAIN", size - 1)
        message = f"^{2**k} elements x {size >> k} relation words, cap is {size - 1}$"
        with pytest.raises(cr.DomainSizeError, match=message):
            verify.check_symmetric_group([(1,)] * k, 2)
    monkeypatch.setattr(verify, "MAX_DOMAIN", 6)
    assert verify.check_carrier_composition(1, 1, 1, 3, 0, 2).passed  # 2 elements x 3 swaps
    with pytest.raises(cr.DomainSizeError, match="^3 elements x 3 swaps in each word, cap is 6$"):
        verify.check_carrier_composition(1, 1, 1, 3, 0, 3)


def test_the_symmetric_group_check_runs_the_involutions_and_braids_only(monkeypatch):
    """(k - 1) + (k - 2) relation words on k shapes, each on a run of adjacent factors."""
    rows = _counted(monkeypatch, verify, "_words_disagree")
    for k in range(2, 8):
        assert verify.check_symmetric_group([(1,)] * k, 2, count=1).passed
        words = [(a, b) for _, a, b in rows.pop()[1]]
        assert words == [([i, i], []) for i in range(1, k)] + [
            ([i, i + 1, i], [i + 1, i, i + 1]) for i in range(1, k - 1)]


def test_far_commutation_cannot_fail_in_a_word_check(monkeypatch, wrong_case_g):
    """Swaps of disjoint factors commute whatever the swap map does, as the memo gives one
    image per factor pair: under a planted fault, and under a swap that picks a random
    order on each call, the far rows find nothing while the involutions fail."""
    shapes, k = [(1, 1), (1,), (1, 1), (1,), (2,)], 5
    far = [("far", [i, j], [j, i]) for i in range(1, k) for j in range(i + 2, k)]
    involutions = [("involution", [i, i], []) for i in range(1, k)]

    def disagreements(rows):
        return list(verify._words_disagree(cr.iter_tensor(shapes, 4), rows))

    assert len(far) == 3 and disagreements(far) == []
    assert len(disagreements(involutions)) == 720
    rng = random.Random(0)
    monkeypatch.setattr(verify, "swap_pair", lambda a, b: iso.SwapResult(
        *rng.sample([a, b], 2), ""))
    assert disagreements(far) == []
    assert disagreements(involutions)


def test_a_random_domain_is_drawn_as_it_is_checked(monkeypatch, wrong_case_g):
    """A failing random check stops drawing at its first counterexample."""
    draws = _counted(monkeypatch, verify, "random_tensor")
    rep = verify.check_symmetric_group([(1, 1), (1,)], 4, seed=0, count=1000)
    assert not rep.passed and rep.domain == 1000
    assert 1 <= len(draws) < 1000


def test_a_fault_planted_after_a_clean_call_is_reported(request):
    """The verifiers' swap memo lives for one call, so a clean run leaves nothing
    that hides a fault planted after it."""
    assert verify.check_symmetric_group([(1, 1), (1,)], 4).passed
    assert verify.check_carrier_composition(2, 1, 1, 4).passed
    request.getfixturevalue("wrong_case_g")
    rep = verify.check_symmetric_group([(1, 1), (1,)], 4)
    assert rep.counterexample == "swap_1^2 != id at [2/3]*<4>"
    rep = verify.check_carrier_composition(2, 1, 1, 4)
    assert rep.counterexample == "compositions differ on <11>*[2/3]*<4>"


@pytest.mark.parametrize(
    "check, domain, pairs",
    [
        (lambda: verify.check_symmetric_group([(3,), (1,), (1, 1), (2,)], 4), 4800, 488),
        (lambda: verify.check_carrier_composition(2, 3, 3, 3), 4374, 45),
    ],
    ids=["symmetric-group", "composition"],
)
def test_a_word_check_swaps_each_distinct_factor_pair_once_per_call(monkeypatch, check,
                                                                     domain, pairs):
    """One `swap_pair` call per distinct factor pair met; a second check makes its own memo
    and calls it again."""
    swaps = _counted(monkeypatch, verify, "swap_pair")
    for _ in range(2):
        rep = check()
        assert rep.passed and rep.domain == domain
        assert len(swaps) == len(set(swaps)) == pairs
        swaps.clear()


@pytest.mark.parametrize(
    "shapes, count, message",
    [
        ([(1,), (1, 1), (1,), (2,), (1,)], None,
         "braid fails at position 2 on <1>*[1/2]*<3>*<14>*<1>: "
         "<1>*<11>*<2>*[3/4]*<1> vs <1>*<11>*<3>*[2/4]*<1>"),
        ([(1,), (1,), (1, 1), (1,), (2,), (1,)], 300,
         "braid fails at position 3 on <4>*<4>*[2/4]*<3>*<24>*<2>: "
         "<4>*<4>*<24>*<2>*[3/4]*<2> vs <4>*<4>*<24>*<3>*[2/4]*<2>"),
    ],
    ids=["exhaustive", "random"],
)
def test_a_braid_failing_inside_a_longer_product_names_whole_elements(wrong_case_g, shapes,
                                                                     count, message):
    """The images of a window with factors on both sides are spliced back into the whole
    element, so the text names the drawn element and both whole images."""
    rep = verify.check_symmetric_group(shapes, 4, seed=5, count=count)
    assert rep.counterexample == message


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify.check_symmetric_group([(2,)], 3),
        lambda: verify.check_symmetric_group([], 3),
        lambda: verify.check_symmetric_group([(2,), (1,)], 3, count=0),
        lambda: verify.check_carrier_composition(2, 0, 1, 3),
        lambda: verify.check_carrier_composition(2, 1, 0, 3),
        lambda: verify.check_carrier_composition(2, 1, 1, 3, count=0),
        lambda: verify.check_path_suite("theorem", "basic", 3, 0, 0, [1]),
        lambda: verify.check_path_suite("theorem", "basic", 3, 5, 0, []),
        lambda: verify.check_path_suite("theorum", "basic", 3, 5, 0, [1]),
        lambda: verify.check_path_suite("theorem", "inhomm", 3, 5, 0, [1]),
    ],
)
def test_a_check_with_nothing_to_check_is_refused(check):
    with pytest.raises(ValueError):
        check()


def test_a_random_domain_of_an_unsupported_shape_is_refused():
    with pytest.raises(ValueError, match=r"unsupported shape \(2, 1\)"):
        verify.check_symmetric_group([(2, 1), (1,)], 3, count=5)


def test_an_empty_row_or_a_one_letter_alphabet_raises_before_any_element_is_made(monkeypatch):
    def unmade(*args):
        raise AssertionError("an element was made")

    for name in ("isomorphism_table", "iter_tensor", "random_tensor"):
        monkeypatch.setattr(verify, name, unmade)
    checks = {
        r"^unsupported shape \(0,\)$": [
            lambda: verify.check_swap_against_oracle((0,), (1,), 3),
            lambda: verify.check_symmetric_group([(1,), (0,)], 3),
            lambda: verify.check_symmetric_group([(1,), (0,)], 3, count=5),
            lambda: verify.check_carrier_composition(0, 1, 1, 3),
            lambda: verify.check_carrier_composition(0, 1, 1, 3, count=5),
        ],
        r"^alphabet size must be an int >= 2, got 1$": [
            lambda: verify.check_swap_against_oracle((1,), (1,), 1),
            lambda: verify.check_symmetric_group([(1,), (2,)], 1),
            lambda: verify.check_symmetric_group([(1,), (2,)], 1, count=5),
            lambda: verify.check_carrier_composition(2, 1, 1, 1),
            lambda: verify.check_carrier_composition(2, 1, 1, 1, count=5),
        ],
    }
    for message, cases in checks.items():
        for check in cases:
            with pytest.raises(ValueError, match=message):
                check()
    with pytest.raises(ValueError, match=r"^unsupported shape \(0,\)$"):
        cr.is_column((0,))


def test_decomposition_fixtures_pass():
    for fixture in verify.standard_decomposition_fixtures():
        rep = verify.check_decomposition(fixture)
        assert rep.passed, f"{rep.relation}: {rep.counterexample}"


def test_decomposition_multiplicity_two_where_stated():
    fixture = verify.two_rows_col_fixture(3, 1, 5)
    assert ((4, 1, 1), 2) in fixture.expected
    fixture = verify.two_rows_col_fixture(3, 2, 5)
    assert ((5, 1, 1), 2) in fixture.expected
    assert ((4, 2, 1), 2) in fixture.expected


def test_decomposition_drops_shapes_too_tall_for_alphabet():
    fixture = verify.two_rows_col_fixture(3, 1, 3)
    assert all(len(s) <= 3 for s, _ in fixture.expected)
    assert ((3, 1, 1, 1), 1) not in fixture.expected


def test_decomposition_mismatch_is_reported():
    bad = verify.DecompositionFixture(((2,), (1,)), 3, (((3,), 1),))
    rep = verify.check_decomposition(bad)
    assert not rep.passed
    assert rep.counterexample and "2, 1" in rep.counterexample


def test_report_json_round_trip():
    rep = verify.check_symmetric_group([(2,), (1,)], 3)
    doc = report_document(rep)
    assert doc["result"] == "pass"
    assert "counterexample" not in doc
    bad = verify.RelationReport("stub", 4, "boom", 0.5)
    doc = report_document(bad)
    assert doc["result"] == "fail" and doc["counterexample"] == "boom"
    assert not bad.passed


def test_random_paths_are_reproducible():
    import random

    a = verify.random_basic_path(random.Random(3), 4)
    b = verify.random_basic_path(random.Random(3), 4)
    assert a == b
    ia = verify.random_inhom_path(random.Random(3), 4)
    ib = verify.random_inhom_path(random.Random(3), 4)
    assert ia == ib


@pytest.fixture
def wrong_case_g(monkeypatch):
    """Case g of `col_box_core` (top > 1, box letter above the column) emits the
    wrong letter."""
    real = iso.col_box_core

    def planted(top, bottom, g):
        if top != 1 and g > bottom:
            return bottom, top, g, "g"
        return real(top, bottom, g)

    monkeypatch.setattr(iso, "col_box_core", planted)


def test_symmetric_group_reports_planted_fault(wrong_case_g):
    rep = verify.check_symmetric_group([(1, 1), (1,)], 4)
    assert not rep.passed and rep.domain == 24
    assert rep.counterexample == "swap_1^2 != id at [2/3]*<4>"


def test_carrier_composition_reports_planted_fault(wrong_case_g):
    rep = verify.check_carrier_composition(2, 1, 1, 4)
    assert not rep.passed and rep.domain == 240
    assert rep.counterexample == "compositions differ on <11>*[2/3]*<4>"


def test_oracle_check_reports_planted_fault(wrong_case_g):
    rep = verify.check_swap_against_oracle((1, 1), (1,), 4)
    assert not rep.passed and rep.domain == 24
    assert rep.counterexample == "[2/3]*<4> -> <3>*[2/4], oracle says <2>*[3/4]"


def test_a_raise_of_a_swap_core_fails_the_oracle_check(monkeypatch):
    def planted(a, b, entries):
        raise IndexError("planted")

    monkeypatch.setattr(iso, "col_row_core", planted)
    rep = verify.check_swap_against_oracle((1, 1), (3,), 3)
    assert (rep.passed, rep.domain, rep.counterexample) == (False, 30, "raised IndexError: planted")


def test_highest_weight_chains_report_planted_fault(monkeypatch):
    real = iso.col_row_core

    def planted(a, b, entries):
        # case V leaves the pair as it was instead of swapping it
        res = real(a, b, entries)
        return (entries, a, b, "V") if res[-1] == "V" else res

    monkeypatch.setattr(iso, "col_row_core", planted)
    rep = verify.check_highest_weight_chains()
    assert not rep.passed
    assert rep.counterexample == (
        "count-chain-2[l1=3,l2=1,x=0] step 5: got <113>*[1/2]*<1>, expected <111>*[2/3]*<1>"
    )


def test_a_chain_that_does_not_start_at_a_highest_weight_fails(monkeypatch):
    start = cr.tensor(cr.box(2, 3), cr.box(2, 3), cr.col(2, 3, 3))  # weight (0, 3, 1)
    monkeypatch.setattr(verify, "_chain_fixtures_two_rows_col",
                        lambda l1, l2, x: [("planted", [start] * 7)])
    rep = verify.check_highest_weight_chains()
    assert not rep.passed
    assert rep.counterexample == f"planted: start {start} is not highest weight"


def test_a_fault_raised_on_a_path_is_its_counterexample(full_carrier_swaps_plainly):
    rep = verify.check_path_suite("theorem", "inhom", 4, 50, 0, [1, 2, 3, None])
    rng = random.Random(0)
    first = verify.random_inhom_path(rng, rng.randint(2, 4))  # as the suite draws it
    assert not rep.passed and rep.domain == 200
    assert rep.counterexample == (
        f"path #0 {first}: raised RuntimeError: carrier sweep failed to unload; this is a bug"
    )


def test_the_path_suites_cap_the_alphabet_and_the_constructors_do_not():
    for mode in verify.PATH_KINDS:
        with pytest.raises(cr.DomainSizeError, match=r"^alphabet of 256 letters, cap is 255$"):
            verify.check_path_suite("theorem", mode, cr.MAX_ALPHABET + 1, 1, 0, [None])
        assert verify.check_path_suite("theorem", mode, cr.MAX_ALPHABET, 3, 0, [None]).passed
    p = dyn.BasicPath((1000, 1, 3), 1000)
    record = sep.separate(p)
    assert record.word == (1000, 3) and sep.combine(record.monochrome, record.word) == p
    assert cr.RowTableau((2, 300), 300).n == dyn.InhomPath(((0, 1) + (0,) * 298,), 300).n


def test_a_column_carrier_that_never_settles_fails_the_suite(monkeypatch, fresh_cores):
    """`InhomPath.col_core` keeps a busy carrier busy, passing every box by: the decoding
    pass raises at once, and the path suite reports it as the path's counterexample."""
    real = dyn.InhomPath.col_core

    def planted(carrier, site):
        return real(carrier, site) if carrier[0] == 1 else (site, carrier, "stuck",
                                                            site[0] != sum(site))

    monkeypatch.setattr(dyn.InhomPath, "col_core", staticmethod(planted))
    bug = "carrier sweep failed to unload; this is a bug"
    with pytest.raises(RuntimeError, match=f"^{bug}$"):
        dyn.decoding_pass(dyn.InhomPath(((0, 0, 1), (1, 0, 0), (0, 1, 1)), 3, 2))
    rep = verify.check_path_suite("theorem", "inhom", 4, 30, 1, [2])
    rng = random.Random(1)
    paths = [verify.random_inhom_path(rng, rng.randint(2, 4)) for _ in range(2)]  # as drawn
    assert not rep.passed
    assert rep.counterexample == f"path #1 {paths[1]}: raised RuntimeError: {bug}"


@pytest.mark.parametrize(
    "capacities, mismatch",
    [([3], "words differ: "), ([2, 3, None], "monochrome parts differ: ")],
    ids=["word", "monochrome"],
)
def test_a_planted_row_core_fault_fails_both_theorem_checks(
    bump_sends_the_smallest_letter, capacities, mismatch
):
    """`theorem` checks the word first: on path #0 the fault keeps the word at capacity 2
    but not the monochrome part, and changes the word at capacity 3."""
    rep = verify.check_path_suite("theorem", "basic", 5, 200, 1, capacities)
    rng = random.Random(1)
    first = verify.random_basic_path(rng, rng.randint(2, 5))  # as the suite draws it
    assert not rep.passed and rep.domain == 200 * len(capacities)
    assert rep.counterexample.startswith(f"path #0 {first}: {mismatch}")


# one-line faults of the inline row kernel: (old, new) in `dynamics._basic_row_sweep`
ROW_SWEEP_FAULTS = {
    "bump-takes-the-smallest": ("letters[m], row[i - 1] = row[i - 1], beta",
                                "letters[m], row[lo] = row[lo], beta"),
    "full-one-early": ("hi - lo < capacity", "hi - lo < capacity - 1"),
    "busy-drops-the-smallest": ("hi -= 1\n            index[m], letters[m] = j, row[hi]",
                                "index[m], letters[m] = j, row[lo]\n            lo += 1"),
    "tail-unloads-smallest-first": ("reversed(row[lo:hi])", "row[lo:hi]"),
}


@pytest.mark.parametrize("old, new", ROW_SWEEP_FAULTS.values(), ids=list(ROW_SWEEP_FAULTS))
def test_a_planted_row_sweep_fault_fails_both_path_suites_and_t_inf(monkeypatch, old, new):
    """The untraced row sweep of basic paths runs no core: each fault in it fails
    every basic path suite and T = T_inf against the letter-moving `time_evolution`."""
    planted = recompiled(dyn._basic_row_sweep, old, new)
    monkeypatch.setattr(dyn.BasicPath, "row_sweep", staticmethod(planted))
    for relation in verify.PATH_RELATIONS:
        assert not verify.check_path_suite(relation, "basic", 5, 100, 0, [1, 2, 3, None]).passed
    rng, wrong = random.Random(0), 0
    for _ in range(200):
        p = verify.random_basic_path(rng, rng.randint(2, 6))
        wrong += dyn.carrier_evolution(p) != dyn.time_evolution(p)
    assert wrong


def test_an_unknown_relation_or_mode_names_the_known_ones():
    for relation in ("theorum", "conservation"):
        with pytest.raises(ValueError, match=f"^unknown '{relation}'; want one of theorem$"):
            verify.check_path_suite(relation, "basic", 3, 5, 0, [1])
    with pytest.raises(ValueError, match="want one of basic, inhom"):
        verify.check_path_suite("theorem", "inhomm", 3, 5, 0, [1])
    with pytest.raises(ValueError, match="^unknown 'x'; want one of basic, inhom$"):
        verify.check_image("x", 3, 2)
    for check in (lambda: verify.check_path_suite("theorem", "basic", 1, 1, 0, [1]),
                  lambda: verify.check_image("inhom", 1, 2)):  # a domain of no path, not a pass
        with pytest.raises(ValueError, match="^alphabet size must be an int >= 2, got 1$"):
            check()


@pytest.mark.parametrize("mode", ["basic", "inhom"])
@pytest.mark.parametrize("relation", list(verify.PATH_RELATIONS))
def test_a_path_suite_scans_each_path_once(monkeypatch, relation, mode):
    """A path computes its index once and keeps it, so however many times the
    suite sweeps a generated path, only the path itself is scanned: its sweeps'
    outputs are indexed as they are made."""
    generated, scans = [], []
    make = verify.PATH_KINDS[mode]

    def counted_scan(p):
        scans.append(p)
        return dyn._scan_occupied(p)

    def kept(rng, n):
        generated.append(make(rng, n))
        return generated[-1]

    for cls in (dyn.BasicPath, dyn.InhomPath):
        monkeypatch.setattr(vars(cls)["occupied"], "func", counted_scan)
    monkeypatch.setitem(verify.PATH_KINDS, mode, kept)
    rep = verify.check_path_suite(relation, mode, 3, 20, 0, [1, 2, 3, None])
    assert rep.passed and len(generated) == 20
    assert len(scans) == 20 and all(s is p for s, p in zip(scans, generated))


@pytest.mark.parametrize("mode, n, size, count", [
    ("basic", 4, 4, 4**4), ("inhom", 2, 4, 2**4), ("inhom", 4, 2, 2 * 34**2),
])
def test_a_path_domain_holds_each_path_up_to_its_size_once(mode, n, size, count):
    paths = list(verify.PATH_DOMAINS[mode](n, size))
    assert len(set(paths)) == len(paths) == count  # as many paths as the scope holds
    assert all(len(p.sites) <= size for p in paths)


@pytest.mark.parametrize("mode, n, size", [("basic", 4, 4), ("inhom", 4, 2), ("inhom", 3, 3)])
def test_a_monochrome_domain_is_the_monochrome_part_of_its_domain_in_order(mode, n, size):
    full = [p for p in verify.PATH_DOMAINS[mode](n, size) if sep.is_monochrome(p)]
    assert list(verify.PATH_DOMAINS[mode](n, size, monochrome=True)) == full
    with pytest.raises(cr.DomainSizeError):  # the guard counts the whole domain
        verify.PATH_DOMAINS[mode](9, 12, monochrome=True)


def test_the_image_check_builds_the_monochrome_paths_then_each_path_once(monkeypatch):
    built = []

    def counted(sites, n):
        built.append(sites)
        return dyn.BasicPath(sites, n)

    monkeypatch.setattr(verify, "BasicPath", counted)
    assert verify.check_image("basic", 4, 4).passed
    assert len(built) == 2**4 + 4**4 and all(set(sites) <= {1, 2} for sites in built[:2**4])
    assert built[2**4:] == list(itertools.product(range(1, 5), repeat=4))


def test_a_path_domain_or_image_over_the_cap_is_refused_before_any_path(monkeypatch):
    monkeypatch.setattr(verify, "product", None)  # no path and no word is made
    with pytest.raises(cr.DomainSizeError, match="^basic paths of n=9 up to size 12: over the"):
        verify.PATH_DOMAINS["basic"](9, 12)
    with pytest.raises(cr.DomainSizeError, match="^inhom paths of n=12 up to size 1: over the"):
        verify.PATH_DOMAINS["inhom"](12, 1)
    with pytest.raises(ValueError, match="^size must be >= 1, got 0$"):
        verify.PATH_DOMAINS["basic"](3, 0)
    monkeypatch.undo()
    monkeypatch.setattr(verify, "combine", None)
    with pytest.raises(cr.DomainSizeError, match="^inhom image of n=8 up to size 1: over the"):
        verify.check_image("inhom", 8, 1)


def test_a_runtime_error_of_separate_fails_the_image_check(monkeypatch):
    def planted(p):
        raise RuntimeError("decoding failed to terminate; this is a bug")

    monkeypatch.setattr(verify, "separate", planted)
    rep = verify.check_image("basic", 3, 2)  # the first pair is the vacuum path's
    assert (rep.domain, rep.counterexample) == (
        1, "separate(combine(, ())) raised RuntimeError: decoding failed to terminate; this is a bug")


@pytest.mark.parametrize("name, accepted, message", [
    ("separate", 1, "separate(combine(, ())) raised IndexError: planted"),
    ("combine", 0, "combine(, ()) raised IndexError: planted"),
], ids=["separate", "combine"])
def test_any_other_exception_of_combine_or_separate_fails_the_image_check(monkeypatch, name,
                                                                         accepted, message):
    """Only combine's InvalidWordError is a skip: any other exception is a counterexample."""
    def planted(*args):
        raise IndexError("planted")

    monkeypatch.setattr(verify, name, planted)
    rep = verify.check_image("basic", 3, 2)  # the first pair is the vacuum path's
    assert (rep.domain, rep.counterexample) == (accepted, message)


def test_any_exception_of_separate_fails_the_path_suite(monkeypatch):
    def planted(p):
        raise IndexError("planted")

    monkeypatch.setattr(verify, "separate", planted)
    rep = verify.check_path_suite("theorem", "basic", 3, 3, 0, [1])
    rng = random.Random(0)
    first = verify.random_basic_path(rng, rng.randint(2, 3))  # as the suite draws it
    assert rep.counterexample == f"path #0 {first}: raised IndexError: planted"
