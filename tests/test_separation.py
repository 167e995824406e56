import json
import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from boxball import crystals as cr
from boxball import dynamics as dyn
from boxball import isomorphisms as iso
from boxball import separation as sep
from boxball import verify
from boxball.cli import main, separation_document
from boxball.verify import (
    basic_paths,
    check_image,
    check_path_suite,
    inhom_paths,
    random_basic_path,
    random_inhom_path,
)
from conftest import front, recompiled, seeded_basic_path
from fixtures_data import COLOURED_ROWS, MONO_ROWS, S_TABLES, WIDTH, WORD


def test_separation_of_first_coloured_row():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    rec = sep.separate(p)
    rows, removals = S_TABLES[0]
    assert "".join(map(str, rec.word)) == WORD
    assert rec.n_passes == 8
    assert rec.monochrome.render(WIDTH) == MONO_ROWS[0]
    steps = rec.steps
    assert [s.state.render(WIDTH) for s in steps] == rows
    assert [s.removed for s in steps] == removals + [None]
    assert tuple(reversed(rec.word)) == tuple(removals)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_separation_of_evolved_rows(t):
    # the evolved path decodes to the evolved monochrome path and the same word
    p = dyn.BasicPath.from_string(COLOURED_ROWS[t])
    rec = sep.separate(p)
    rows, removals = S_TABLES[t]
    steps = rec.steps
    assert [s.state.render(WIDTH) for s in steps] == rows
    assert [s.removed for s in steps] == removals + [None]
    assert "".join(map(str, rec.word)) == WORD
    assert rec.monochrome.render(WIDTH) == MONO_ROWS[t]


def test_monochrome_separation_is_trivial():
    p = dyn.BasicPath.from_string("2.2", 3)
    rec = sep.separate(p)
    assert rec.word == ()
    assert rec.monochrome == p
    steps = rec.steps
    assert len(steps) == 1 and steps[0].removed is None
    assert sep.is_monochrome(p)
    assert not sep.is_monochrome(dyn.BasicPath.from_string("2.3"))


def test_combine_examples():
    mono = dyn.BasicPath.from_string(MONO_ROWS[0], 5)
    word = tuple(int(c) for c in WORD)
    assert sep.combine(mono, word) == dyn.BasicPath.from_string(COLOURED_ROWS[0])
    assert sep.combine(mono, ()) == mono


def test_combine_validates_inputs():
    with pytest.raises(dyn.InvalidWordError):
        sep.combine(dyn.BasicPath.from_string("3..", 3), (3,))
    with pytest.raises(dyn.InvalidWordError):
        sep.combine(dyn.BasicPath.from_string("2..", 5), (5,))
    with pytest.raises(dyn.InvalidWordError):
        sep.combine(dyn.BasicPath.from_string("2..", 5), (1,))


def test_separate_combine_round_trip():
    rng = random.Random(21)
    for _ in range(100):
        p = random_basic_path(rng, rng.randint(2, 5), 40, 15)
        rec = sep.separate(p)
        assert sep.combine(rec.monochrome, rec.word) == p


def test_monochrome_part_independent_of_extra_passes():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    rec = sep.separate(p)
    cur = rec.monochrome
    for _ in range(3):
        cur, b = dyn.decoding_pass(cur)
        assert b == cr.col(1, 2, p.n)
        assert cur == rec.monochrome


def test_check_commutation_on_the_example():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    for cap in (None, 1, 2, 3):
        rep = sep.check_commutation(p, cap)
        assert rep.passed, rep.mismatch
        w = "".join(map(str, rep.word))
        assert w.endswith(WORD)
        assert set(w[: len(w) - len(WORD)]) <= {"2"}
    assert "ok" in str(sep.check_commutation(p, None))


def test_a_passing_report_carries_the_word_separate_returns():
    rng = random.Random(3)
    for _ in range(40):
        p = random_basic_path(rng, rng.randint(3, 5))
        record = sep.separate(p)
        for cap in (2, 3, None):
            rep = sep.check_commutation(p, cap, record)
            assert rep.passed and rep.word == record.word, rep.mismatch


def test_a_planted_row_core_fault_reaches_each_failure_branch(bump_sends_the_smallest_letter):
    """The words compare as `separate` returns them: of unequal length, neither padded."""
    rep = sep.check_commutation(dyn.BasicPath.from_string("23.3", 3), 2)
    assert (rep.passed, rep.word) == (False, (3, 3))
    assert rep.mismatch == "words differ: (3, 3) vs (3, 3, 2)"
    rep = sep.check_commutation(dyn.BasicPath.from_string("23", 3), 2)
    assert (rep.passed, rep.word) == (False, (3,))
    assert rep.mismatch == "monochrome parts differ: .2.2 vs ...22"


def test_check_commutation_vacuum_trivial():
    assert sep.check_commutation(dyn.BasicPath((), 3), None).passed
    assert sep.check_commutation(dyn.BasicPath((), 3), 2).passed


def test_conserved_word_across_time_steps():
    rows = [dyn.BasicPath.from_string(r) for r in COLOURED_ROWS]
    for r in rows:
        assert "".join(map(str, sep.separate(r).word)) == WORD


def test_letter_census():
    rng = random.Random(22)
    for _ in range(100):
        p = random_basic_path(rng, rng.randint(3, 5), 40, 15)
        rec = sep.separate(p)
        assert sorted(v for v in p.sites if v >= 3) == sorted(v for v in rec.word if v >= 3)
        twos_mono = sum(1 for v in rec.monochrome.sites if v == 2)
        twos_path = sum(1 for v in p.sites if v == 2)
        assert twos_mono == twos_path + sum(1 for v in rec.word if v >= 3)


def test_minimal_passes_within_window_bound():
    rng = random.Random(25)
    for _ in range(200):
        p = random_basic_path(rng, rng.randint(2, 6), 50, 25)
        if sep.is_monochrome(p):
            continue
        balls = dyn.ball_count(p)
        assert sep.separate(p).n_passes <= min(front(p), balls)
    for _ in range(80):
        p = random_inhom_path(rng, rng.randint(2, 6))
        if sep.is_monochrome(p):
            continue
        window, balls = sum(sum(c) for c in p.sites[: front(p)]), dyn.ball_count(p)
        assert sep.separate(p).n_passes <= min(window, balls)


@pytest.mark.parametrize(
    "path",
    [random_basic_path(random.Random(4), 6, 400, 100), random_inhom_path(random.Random(4), 5)],
    ids=["basic", "inhom"],
)
def test_a_sweep_that_removes_no_colour_stops_within_b_plus_1_passes(monkeypatch, path):
    sweeps = []

    def planted(w):  # leaves the path as it is and removes a 2
        sweeps.append(w)
        return 1, 2

    monkeypatch.setattr(type(path), "col_sweep", staticmethod(planted))
    assert not sep.is_monochrome(path)
    with pytest.raises(RuntimeError, match="decoding failed to terminate"):
        sep.separate(path)
    assert len(sweeps) == dyn.ball_count(path) + 1  # B passes, and one to find no colour


def test_ladder_basic():
    # a run of k leading 2-removals certifies the last k positions held no
    # letter above 2 in the original path
    rng = random.Random(23)
    hits = 0
    for _ in range(150):
        p = random_basic_path(rng, rng.randint(3, 5), 30, 12)
        if sep.is_monochrome(p):
            continue
        removals = tuple(reversed(sep.separate(p).word))
        k = 0
        while k < len(removals) and removals[k] == 2:
            k += 1
        if k:
            hits += 1
            f = front(p)
            assert all(v <= 2 for v in p.sites[f - k :])
    assert hits > 10


def test_ladder_inhom():
    # same ladder with the run length counted in capacity units
    rng = random.Random(24)
    for _ in range(80):
        p = random_inhom_path(rng, rng.randint(3, 5))
        if sep.is_monochrome(p) or front(p) == 0:
            continue
        removals = tuple(reversed(sep.separate(p).word))
        run = 0
        while run < len(removals) and removals[run] == 2:
            run += 1
        f = front(p)
        caps = [sum(c) for c in p.sites]
        acc = 0
        for k in range(1, f + 1):
            acc += caps[f - k]
            if acc <= run:
                assert all(all(v == 0 for v in c[2:]) for c in p.sites[f - k :])


def test_inhom_separation_round_trip_and_commutation():
    rng = random.Random(26)
    for _ in range(40):
        p = random_inhom_path(rng, rng.randint(2, 4))
        rec = sep.separate(p)
        assert sep.combine(rec.monochrome, rec.word) == p
        rep = sep.check_commutation(p, rng.choice([1, 2, 3, None]), rec)
        assert rep.passed, rep.mismatch


def test_inhom_conserved_word():
    rng = random.Random(27)
    for _ in range(30):
        p = random_inhom_path(rng, rng.randint(2, 4))
        word = sep.separate(p).word
        for cap in (1, 3, None):
            evolved_word = sep.separate(dyn.carrier_evolution(p, cap)).word
            assert evolved_word == word


def test_record_json_shape():
    p = dyn.BasicPath.from_string("55432.....542....2")
    rec = sep.separate(p)
    doc = separation_document(rec, rec.steps)
    assert doc["n"] == 5 and doc["mode"] == "basic"
    assert doc["word"] == WORD
    assert doc["monochrome"] == "....22222......222.2"
    assert doc["steps"][0] == {"s": 0, "state": "55432.....542....2", "removed": 2}
    assert "removed" not in doc["steps"][-1]


def test_record_json_states_for_large_alphabets():
    p = dyn.BasicPath((12, 3, 1, 1, 2), 12)
    assert p.render() == "12,3,.,.,2"
    assert p.render(7) == "12,3,.,.,2,.,."
    rec = sep.separate(p)
    steps = rec.steps
    doc = json.loads(json.dumps(separation_document(rec, steps)))
    assert doc["monochrome"] == list(rec.monochrome.sites)
    rebuilt = [dyn.BasicPath(tuple(s["state"]), doc["n"]) for s in doc["steps"]]
    assert rebuilt == [s.state for s in steps]
    assert [s.get("removed") for s in doc["steps"]] == [s.removed for s in steps]


def test_commutation_report_str():
    rep = sep.CommutationReport(False, 2, (2,), "words differ")
    assert "FAILED" in str(rep)


# ---------------------------------------------------------------------------
# exhaustive small scope


def _rescan_separate(p):
    """(monochrome part, word) from passes run until `is_monochrome` holds."""
    removed, cur = [], p
    while not sep.is_monochrome(cur):
        cur, carrier = dyn.decoding_pass(cur)
        removed.append(carrier.bottom)
    return cur, tuple(reversed(removed))


def test_exhaustive_basic_round_trip_time_step_and_traces():
    paths = [p for n, size in ((2, 7), (3, 7), (4, 6)) for p in basic_paths(n, size)]
    assert len(paths) == 6411  # 6,408 coloured or monochrome paths and the 3 vacuum ones
    for p in paths:
        rec = sep.separate(p)
        assert sep.combine(rec.monochrome, rec.word) == p
        assert (rec.monochrome, rec.word) == _rescan_separate(p)
        assert len(rec.steps) == rec.n_passes + 1
        evolved = dyn.carrier_evolution(p, None)
        assert dyn.time_evolution(p) == evolved
        assert dyn.carrier_evolution(p, None, []) == evolved
        assert dyn.carrier_evolution(p, 2, []) == dyn.carrier_evolution(p, 2)
        assert dyn.decoding_pass(p, []) == dyn.decoding_pass(p)


@pytest.mark.parametrize("make", [random_basic_path, random_inhom_path])
def test_separate_builds_step_records_only_when_asked(monkeypatch, make):
    built, real = [], sep.DecodeStep

    def counted(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(sep, "DecodeStep", counted)
    rng = random.Random(31)
    for _ in range(40):
        p = make(rng, rng.randint(3, 5))
        rec = sep.separate(p)
        assert built == []
        rows = []
        assert sep.separate(p, rows) == rec
        assert rows == built and len(built) == rec.n_passes + 1
        built.clear()
        cur = p
        for letter in reversed(rec.word):
            after, carrier = dyn.decoding_pass(cur)
            assert carrier == cr.ColumnPair(1, letter, p.n)
            assert dyn.decoding_pass(cur)[1] is carrier  # a shared value
            cur = after


def test_exhaustive_basic_commutation():
    paths = [p for n, size in ((3, 6), (4, 5)) for p in basic_paths(n, size) if p.sites]
    assert len(paths) == 1751
    for p in paths:
        rec = sep.separate(p)
        for cap in (1, 2, 3, None):
            rep = sep.check_commutation(p, cap, rec)
            assert rep.passed, (p, rep.mismatch)


def test_exhaustive_inhom_round_trip_and_commutation():
    paths = list(inhom_paths(3, 3))
    assert len(paths) == 1458
    for p in paths:
        rec = sep.separate(p)
        assert sep.combine(rec.monochrome, rec.word) == p
        assert dyn.decoding_pass(p, []) == dyn.decoding_pass(p)
        assert dyn.carrier_evolution(p, 2, []) == dyn.carrier_evolution(p, 2)
        for cap in (1, 2, 3, None):
            rep = sep.check_commutation(p, cap, rec)
            assert rep.passed, (p, rep.mismatch)


IMAGE_DOMAINS = {"basic": (5, 6, 689), "inhom": (3, 3, 464)}  # n, size, pairs accepted


@pytest.mark.parametrize("mode", IMAGE_DOMAINS)
def test_combine_accepts_exactly_the_image_of_separate(mode):
    n, size, accepted = IMAGE_DOMAINS[mode]
    rep = check_image(mode, n, size)
    assert (rep.domain, rep.counterexample) == (accepted, None)


@st.composite
def separated_pairs(draw):
    """(m, w) = `separate(p)` for a coloured path p, basic of <= 40 boxes or inhomogeneous
    of <= 8 sites of capacity <= 3, with one letter of w changed about half the time."""
    n = draw(st.integers(3, 6))
    letters, basic = st.integers(1, n), draw(st.booleans())
    size = draw(st.integers(1, 40 if basic else 8))  # hypothesis draws short lists mostly
    if basic:
        p = dyn.BasicPath(draw(st.lists(letters, min_size=size, max_size=size)), n)
    else:
        box = st.lists(letters, min_size=1, max_size=3).map(
            lambda vs: tuple(vs.count(v) for v in range(1, n + 1)))
        sites = draw(st.lists(box, min_size=size, max_size=size))
        p = dyn.InhomPath(sites, n, draw(st.integers(1, 3)))
    assume(not sep.is_monochrome(p))
    rec = sep.separate(p)
    w = list(rec.word)
    if draw(st.booleans()):
        w[draw(st.integers(0, len(w) - 1))] = draw(st.integers(2, n))
    return rec.monochrome, tuple(w)


@settings(max_examples=300, deadline=None)
@given(separated_pairs())
def test_combine_raises_or_round_trips_at_larger_scope(pair):
    """`check_image`'s property past the exhaustive scope: `combine(m, w)` raises
    InvalidWordError, or `separate` gives back (m, w)."""
    m, w = pair
    try:
        p = sep.combine(m, w)
    except dyn.InvalidWordError:
        return
    assert sep.separate(p) == sep.SeparationRecord(p, m, w)


@pytest.mark.parametrize("make", [random_basic_path, random_inhom_path])
def test_combine_rejects_a_word_that_starts_with_2(make):
    rng = random.Random(8)
    for _ in range(30):
        rec = sep.separate(make(rng, rng.randint(3, 5)))
        assert rec.word[:1] != (2,)
        with pytest.raises(dyn.InvalidWordError, match="cannot start with 2"):
            sep.combine(rec.monochrome, (2,) + rec.word)
        with pytest.raises(dyn.InvalidWordError, match="ints in 2.."):
            sep.combine(rec.monochrome, (2.0,) + rec.word)


def test_a_planted_basic_inverse_sweep_fault_fails_the_domain_test(monkeypatch, capsys,
                                                                   fresh_cores):
    planted = recompiled(dyn._basic_inv_column_sweep, "if c < top:", "if c <= top:")
    monkeypatch.setattr(dyn.BasicPath, "inv_col_sweep", staticmethod(planted))
    n, size, _ = IMAGE_DOMAINS["basic"]
    rep = check_image("basic", n, size)
    assert rep.counterexample == "separate(combine(....22, (3,))) gives (...2.2, (3,))"
    assert main(["verify", "image", "--mode", "basic", "--n", str(n), "--size", str(size)]) == 1
    assert capsys.readouterr().out.startswith("fail  image[mode=basic, n=5, size=6]")


# one-line faults of the two cases a basic column kernel splits an empty top into: (kernel,
# the `BasicPath` attribute holding it, a line of it, the planted line, whether the basic
# path suite fails too).  Each makes the box empty where a ball equal to the carrier's bottom
# should exchange with it; only `check_image` reaches the inverse kernel.
EMPTY_TOP_FAULTS = {
    "decode": (dyn._basic_column_sweep, "col_sweep",
               "if g <= bottom:  # exchange", "if g < bottom:  # exchange", True),
    "encode": (dyn._basic_inv_column_sweep, "inv_col_sweep",
               "if c < bottom:  # the box empties", "if c <= bottom:  # the box empties", False),
}


@pytest.mark.parametrize("fault", EMPTY_TOP_FAULTS)
def test_a_planted_empty_top_fault_fails_the_domain_test(monkeypatch, fresh_cores, fault):
    kernel, name, old, new, suite_fails = EMPTY_TOP_FAULTS[fault]
    monkeypatch.setattr(dyn.BasicPath, name, staticmethod(recompiled(kernel, old, new)))
    n, size, _ = IMAGE_DOMAINS["basic"]
    assert not check_image("basic", n, size).passed
    rep = check_path_suite("theorem", "basic", 5, 100, 0, [1, 2, 3, None])
    assert rep.passed is not suite_fails


def test_a_combine_fault_past_the_domain_fails_the_image_round_trip(monkeypatch):
    """`check_image`'s second loop: decoding moves balls right, so a path's monochrome part
    may be longer than `size`, and only that loop gives `combine` such a part (51 of the 81
    basic paths at n = 3, size 4 decode to one).  A `combine` that adds a 2 past the last
    ball of such a part passes the first loop and fails the second."""
    n, size, real = 3, 4, sep.combine

    def planted(m, w):
        p = real(m, w)
        return dyn.BasicPath(p.sites + (2,), n) if len(m.sites) > size else p

    longer = [p for p in basic_paths(n, size) if len(sep.separate(p).monochrome.sites) > size]
    assert len(longer) == 51 and len(list(basic_paths(n, size))) == 81
    monkeypatch.setattr(verify, "combine", planted)
    rep = check_image("basic", n, size)
    assert (rep.domain, rep.counterexample) == (30, "combine(separate(...3)) gives ...32")


@pytest.mark.parametrize("case", ["2", "3", "4"])
def test_a_planted_inverse_core_fault_fails_the_domain_test(monkeypatch, fresh_cores, case):
    """`row_col_core` leaves the row as it was in one case; `InhomPath.inv_col_core`
    reaches it, and `fresh_cores` keeps its memo from hiding the fault."""
    real = iso.row_col_core

    def planted(entries, b, g):
        top, bottom, new, tag = real(entries, b, g)
        return top, bottom, entries if tag == case else new, tag

    monkeypatch.setattr(dyn, "row_col_core", planted)
    n, size, _ = IMAGE_DOMAINS["inhom"]
    assert not check_image("inhom", n, size).passed


# the walks from the first colour: (path kind, function, the path class attribute holding
# it, or None for `separate`, a line of it, the planted line).  A first-colour count one too
# large makes every forward walker skip a box that may hold the next first colour, and the
# decode never ends; an inverse walk that takes the last ball for the last box known without
# colour stops on a seeded carrier right of the first colour.
_COUNT = 'w.__dict__["colourless"] = i', 'w.__dict__["colourless"] = i + 1'
_LAST, _BALL = "index[i - 1] if i else -1", "index[-1] if index else -1"
PREFIX_FAULTS = {
    "basic-count": ("basic", sep.separate, None, *_COUNT),
    "inhom-count": ("inhom", sep.separate, None, *_COUNT),
    "basic-stop": ("basic", dyn._basic_inv_column_sweep, "inv_col_sweep", _LAST, _BALL),
    "inhom-stop": ("inhom", dyn._inv_column_sweep, "inv_col_sweep", _LAST, _BALL),
}


@pytest.mark.parametrize("fault", PREFIX_FAULTS)
def test_a_planted_prefix_fault_fails_the_domain_test(monkeypatch, fresh_cores, fault):
    kind, fn, name, old, new = PREFIX_FAULTS[fault]
    planted = recompiled(fn, old, new)
    if name is None:  # `verify` imports `separate` by name
        monkeypatch.setattr(sep, "separate", planted)
        monkeypatch.setattr(verify, "separate", planted)
    else:
        cls = dyn.BasicPath if kind == "basic" else dyn.InhomPath
        monkeypatch.setattr(cls, name, staticmethod(planted))
    n, size, accepted = IMAGE_DOMAINS[kind]
    rep = check_image(kind, n, size)
    assert (rep.domain, rep.passed) != (accepted, True)
    if name is None:
        assert rep.counterexample.endswith(
            "raised RuntimeError: decoding failed to terminate; this is a bug")


@pytest.mark.parametrize("mode", ["basic", "inhom"])
def test_combine_stops_each_pass_at_the_seeded_carrier_left_of_the_first_colour(
    monkeypatch, mode
):
    """Inside `combine` an encoding pass ends once its carrier is back at (1,2) at or left of
    the last entry known without colour, and counts the entries it left unvisited as
    `colourless`.  Ten 2s, an empty box and a 2, recombined with the word 3: the carrier (1,3)
    empties the last box and settles the 3 in the empty one, and the pass stops with the ten
    2s unvisited (the inhomogeneous walker, which tests for the stop at a ball, first passes
    the tenth, a 2 for a 2), where a walk to the left end would exchange each of them."""

    def path(text):
        p = dyn.BasicPath.from_string(text, 3)
        if mode == "basic":
            return p
        return dyn.InhomPath([cr.entries_to_counts((v,), 3) for v in p.sites], 3)

    cls, left, cores = type(path("")), [], []
    sweep = cls.inv_col_sweep

    def watched_sweep(w, letter):
        carrier = sweep(w, letter)
        left.append(w.colourless)
        return carrier

    monkeypatch.setattr(cls, "inv_col_sweep", staticmethod(watched_sweep))
    if mode == "inhom":
        core = cls.inv_col_core

        def counted_core(*args):
            cores.append(args)
            return core(*args)

        monkeypatch.setattr(cls, "inv_col_core", staticmethod(counted_core))
    assert sep.combine(path("2222222222.2"), (3,)) == path("22222222223")
    assert (left, len(cores)) == (([10], 0) if mode == "basic" else ([9], 3))


def test_separate_starts_each_pass_at_the_first_colour(monkeypatch):
    """The contract between `separate` and the forward walkers: each pass is told to start
    at index entry `colourless`, the first to hold a colour, and `separate` stops when no
    entry holds one."""
    starts, real = [], sep.decoding_pass

    def watched_pass(w):  # the balls: a basic copy's letters, else its boxes at the index
        i, index = w.colourless, w.occupied
        balls = w.letters if w.mode == "basic" else [w.sites[k] for k in index]
        assert not any(map(w.holds_colour, balls[:i]))
        assert w.holds_colour(balls[i])
        starts.append(i)
        return real(w)

    monkeypatch.setattr(sep, "decoding_pass", watched_pass)
    rng = random.Random(46)
    paths = [p for n in range(2, 5) for p in basic_paths(n, 6)]
    paths += [random_inhom_path(rng, rng.randint(2, 5)) for _ in range(500)]
    for p in paths:
        passes, rec = len(starts), sep.separate(p)
        assert rec.n_passes == len(starts) - passes and sep.is_monochrome(rec.monochrome)
    assert len(starts) > 10_000 and sum(i > 0 for i in starts) > len(starts) // 4


def test_no_working_copy_holds_a_basic_paths_boxes(monkeypatch):
    """Only a traced sweep walks a basic path's boxes, and it keeps them in a list of its
    own: at every swap its working copy holds balls and no `sites`.  No pass of `separate`
    or `combine` starts or ends with `sites` on its working copy."""
    copies, held, thawed = [], [], dyn._thawed

    def kept_thawed(p):
        copies.append(thawed(p))
        return copies[-1]

    class Watched(list):  # a trace that looks at the working copy at every swap
        def append(self, step):
            held.append("sites" in vars(copies[-1]))
            super().append(step)

    def checked(run):
        def pass_(w, *args):
            held.append("sites" in vars(w))
            out = run(w, *args)
            held.append("sites" in vars(w))
            return out
        return pass_

    monkeypatch.setattr(dyn, "_thawed", kept_thawed)
    p = seeded_basic_path(45, 300, 40, 6)
    for run in (partial(dyn.carrier_evolution, p, 2), partial(dyn.carrier_evolution, p, None),
                partial(dyn.decoding_pass, p)):
        trace = Watched()
        run(trace=trace)
        assert len(trace) >= len(p.sites) and held and not any(held)
    held.clear()
    monkeypatch.setattr(sep, "decoding_pass", checked(dyn.decoding_pass))
    monkeypatch.setattr(sep, "encoding_pass", checked(dyn.encoding_pass))
    rec = sep.separate(p)
    assert sep.combine(rec.monochrome, rec.word) == p
    assert len(held) == 4 * rec.n_passes > 0 and not any(held)


def test_separate_holds_only_the_live_state():
    p = seeded_basic_path(4000, 4000, 1000, 6)
    tracemalloc.start()
    try:
        rec = sep.separate(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.n_passes > 900
    assert peak < 4 * 2**20, f"separate peaked at {peak / 2**20:.1f} MiB"


def test_steps_replay_the_decoding():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    kept = []
    rec = sep.separate(p, kept)
    assert rec.steps == tuple(kept)
    assert [s.index for s in kept] == list(range(rec.n_passes + 1))
    assert kept[-1].state == rec.monochrome
    # each pass rewrites the working copy's balls in place, so a kept row holds its own copy
    held = [vars(s.state) for s in kept]
    assert [set(v) for v in held] == [{"n", "occupied", "letters"}] * (rec.n_passes + 1)
    assert all(type(v["occupied"]) is tuple and type(v["letters"]) is tuple for v in held)
    assert len({id(v["letters"]) for v in held}) == len(held)


def test_check_commutation_rejects_a_record_of_another_path():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    other = dyn.BasicPath.from_string(COLOURED_ROWS[1])
    with pytest.raises(ValueError, match="another path"):
        sep.check_commutation(p, 2, sep.separate(other))
    equal = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    assert sep.check_commutation(p, 2, sep.separate(equal)).passed


def _seeded_paths(seed):
    rng = random.Random(seed)
    basic = [random_basic_path(rng, rng.randint(2, 6), 60, 25) for _ in range(40)]
    return basic + [random_inhom_path(rng, rng.randint(2, 5)) for _ in range(40)]


def _rebuilt(p):
    """`p` built again by its constructor, sharing nothing with it."""
    if p.mode == "basic":
        return dyn.BasicPath(tuple(p.sites), p.n)
    return dyn.InhomPath(tuple(p.sites), p.n, p.tail_capacity)


def _assert_kept(q):
    """`q` is a kept path: tuple sites, hashable, equal to its constructor's path."""
    assert type(q.sites) is tuple
    assert q == _rebuilt(q) and hash(q) == hash(_rebuilt(q))
    if "occupied" in vars(q):
        assert type(q.occupied) is tuple and q.occupied == _rebuilt(q).occupied


def test_held_step_rows_match_a_fresh_chain_of_passes():
    for p in _seeded_paths(41):
        rows = []  # every row held until the end
        sep.separate(_rebuilt(p), rows)
        cur = _rebuilt(p)
        for step in rows[:-1]:
            _assert_kept(step.state)
            assert step.state == cur
            cur, carrier = dyn.decoding_pass(cur)
            assert step.removed == carrier.bottom
        _assert_kept(rows[-1].state)
        assert rows[-1].state == cur and rows[-1].removed is None


def test_sweeps_leave_their_input_and_return_kept_paths():
    for p in _seeded_paths(42):
        sites = p.sites
        rec = sep.separate(p)
        decoded, carrier = dyn.decoding_pass(p)
        assert p.sites is sites and p == _rebuilt(p)
        mono, word = rec.monochrome, rec.word
        mono_sites, decoded_sites = mono.sites, decoded.sites
        combined = sep.combine(mono, word)
        encoded = dyn.encoding_pass(decoded, carrier.bottom)
        assert mono.sites is mono_sites and decoded.sites is decoded_sites
        assert combined == p and encoded == p
        for q in (rec.monochrome, combined, decoded, encoded):
            _assert_kept(q)


def test_returned_paths_hold_no_per_pass_state():
    """Each path a sweep returns, step rows of either kind included, holds a freshly built
    path's attributes and its index, a basic one its balls in place of its boxes: no working
    copy's `colourless` count leaks."""
    for p in _seeded_paths(44):
        fields = set(vars(_rebuilt(p)))
        if p.mode == "basic":
            fields = fields - {"sites"} | {"letters"}
        rows = []
        rec = sep.separate(p, rows)
        decoded, carrier = dyn.decoding_pass(p)
        returned = [
            rec.monochrome, sep.combine(rec.monochrome, rec.word), decoded,
            dyn.decoding_pass(p, [])[0], dyn.encoding_pass(decoded, carrier.bottom),
            dyn.carrier_evolution(p, 2), dyn.carrier_evolution(p, None, []),
        ]
        if p.mode == "basic":
            returned.append(dyn.time_evolution(p))
        for q in returned:
            assert set(vars(q)) == fields | {"occupied"}, q
        kept = fields | {"occupied"}
        assert [set(vars(row.state)) for row in rows[:-1]] == [kept] * rec.n_passes


def test_a_pass_makes_no_whole_path_copy(monkeypatch):
    copies, passed = [], []
    thawed, frozen, decoding_pass = dyn._thawed, dyn._frozen, dyn.decoding_pass

    def counted_thawed(p):
        copies.append("in")
        return thawed(p)

    def counted_frozen(w, in_place=True):
        copies.append("out" if in_place else "row")
        return frozen(w, in_place)

    def watched_pass(w):  # the list a pass rewrites: a basic copy's letters, else its boxes
        passed.append(w.letters if w.mode == "basic" else w.sites)
        return decoding_pass(w)

    for module in (dyn, sep):
        monkeypatch.setattr(module, "_thawed", counted_thawed)
        monkeypatch.setattr(module, "_frozen", counted_frozen)
    monkeypatch.setattr(sep, "decoding_pass", watched_pass)
    rng = random.Random(43)
    sites = [1] * 400
    for k in rng.sample(range(400), 60):
        sites[k] = rng.randint(2, 6)
    inhom = [(0, 1, 1, 0, 1), (1, 0, 0, 0, 0), (1, 0, 0, 1, 1), (2, 0, 0, 0, 0), (0, 0, 2, 0, 1)]
    for p in (dyn.BasicPath(tuple(sites), 6), dyn.InhomPath(tuple(inhom), 5, 2)):
        copies.clear(), passed.clear()
        rec = sep.separate(_rebuilt(p))
        assert rec.n_passes >= 5 and copies == ["in", "out"]
        assert all(sites is passed[0] for sites in passed)  # one working list
        copies.clear()
        assert sep.combine(rec.monochrome, rec.word) == p and copies == ["in", "out"]
        copies.clear()
        assert sep.separate(_rebuilt(p), []) == rec
        assert copies == ["in"] + ["row"] * rec.n_passes + ["out"]
        copies.clear()
        dyn.decoding_pass(p)  # a kept path is copied in and out
        assert copies == ["in", "out"]
