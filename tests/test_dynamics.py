import random
import re
from collections import Counter
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import chain, product, repeat
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from boxball import crystals as cr
from boxball import dynamics as dyn
from boxball import isomorphisms as iso
from boxball import separation as sep
from boxball.verify import basic_paths, random_basic_path, random_inhom_path
from conftest import (MEMOISED_CORES, clear_memoised_cores, first_row_core_disagreement, front,
                      seeded_basic_path, seeded_inhom_path)
from fixtures_data import COLOURED_ROWS, MONO_ROWS, S_TABLES, WIDTH


def test_parse_and_render():
    p = dyn.BasicPath.from_string("..2.3.")
    assert p.n == 3
    assert p.sites == (1, 1, 2, 1, 3)
    assert p.render() == "..2.3"
    assert p.render(8) == "..2.3..."
    assert front(p) == 5
    assert dyn.ball_count(p) == 2


def _render_per_cell(p, width=None):
    """`BasicPath.render` as one Python cell at a time."""
    cells = ["." if v == 1 else str(v) for v in p.sites]
    cells += ["."] * ((width or 0) - len(cells))
    return ("" if p.n <= 9 else ",").join(cells)


def test_render_matches_the_per_cell_formula():
    """Every row of up to 3 letters from 1..9, at widths below and above its
    length, with n <= 9 (the translate path) and n > 9 (the comma form)."""
    checked = 0
    for length in range(4):
        for sites in product(range(1, 10), repeat=length):
            for n in {max((2, *sites)), 9, 12}:
                p = dyn.BasicPath(sites, n)
                for width in (None, *range(length + 3)):
                    assert p.render(width) == _render_per_cell(p, width), (sites, n, width)
                    checked += 1
    assert checked > 15_000


@given(st.lists(st.integers(1, 9), max_size=80), st.none() | st.integers(0, 100))
def test_render_matches_the_per_cell_formula_on_long_rows(sites, width):
    for n in (9, 10):
        p = dyn.BasicPath(tuple(sites), n)
        assert p.render(width) == _render_per_cell(p, width)


def test_parse_rejects_bad_characters():
    with pytest.raises(ValueError, match="position 3"):
        dyn.BasicPath.from_string("..x.")
    with pytest.raises(ValueError):
        dyn.BasicPath.from_string("..0.")
    with pytest.raises(ValueError):
        dyn.BasicPath.from_string("..4.", n=3)


def test_canonical_trims_trailing_vacuum():
    vac = dyn.BasicPath.from_string("....")
    assert vac.sites == ()
    assert front(vac) == 0
    assert dyn.BasicPath((1, 2, 1, 1), 3) == dyn.BasicPath((1, 2), 3)


def test_move_letter_full_example():
    p = dyn.BasicPath.from_string("55432.....542....2")
    assert dyn.move_letter(p, 5).render() == "..43255....425...2"


def test_move_letter_small_cases():
    q = dyn.BasicPath.from_string("..22.", n=3)
    assert dyn.move_letter(q, 2).render() == "....22"
    assert dyn.move_letter(q, 3) == q
    assert dyn.move_letter(dyn.BasicPath.from_string("2", 2), 2).render() == ".2"
    with pytest.raises(ValueError):
        dyn.move_letter(q, 1)


def test_time_evolution_monochrome_rows():
    p = dyn.BasicPath.from_string(MONO_ROWS[0])
    for expected in MONO_ROWS[1:]:
        p = dyn.time_evolution(p)
        assert p.render(WIDTH) == expected


def test_time_evolution_coloured_rows():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    for expected in COLOURED_ROWS[1:]:
        p = dyn.time_evolution(p)
        assert p.render(WIDTH) == expected


def _literal_time_step(p):
    """Takahashi's rule read literally: for each letter from n down to 2, find
    its balls by scanning the sites again, then move each, leftmost first, to
    the nearest empty box on its right."""
    sites = list(p.sites)
    for letter in range(p.n, 1, -1):
        for pos in [k for k, v in enumerate(sites) if v == letter]:
            j = pos + 1
            while j < len(sites) and sites[j] != 1:
                j += 1
            if j == len(sites):
                sites.append(1)
            sites[j], sites[pos] = letter, 1
    return dyn.BasicPath(tuple(sites), p.n)


def test_time_evolution_matches_the_literal_rule():
    for n in range(2, 5):
        for p in basic_paths(n, 7):
            assert dyn.time_evolution(p) == _literal_time_step(p), p
    for length, balls in ((4000, 1000), (10000, 100)):
        p = seeded_basic_path(length, length, balls, 6)
        expected = p
        for _ in range(20):
            p, expected = dyn.time_evolution(p), _literal_time_step(expected)
            assert p == expected


def test_a_time_step_chain_scans_once(constructed):
    """Only a constructor scans boxes for balls, and T constructs no path: along a chain of 20
    steps, the only paths constructed are the seeded one and each step's twin, the path its
    rendering makes."""
    p = seeded_basic_path(20, 2000, 300, 6)
    for _ in range(20):
        made = len(constructed)
        p = dyn.time_evolution(p)
        assert len(constructed) == made
        twin = dyn.BasicPath.from_string(p.render(), p.n)
        assert type(p.sites) is tuple and p == twin and hash(p) == hash(twin)
    assert len(constructed) == 1 + 20  # the seeded path and the twins


def test_small_capacity_carriers():
    p = dyn.BasicPath.from_string(".22.", 3)
    assert dyn.carrier_evolution(p, 1).render() == "..22"
    assert dyn.carrier_evolution(p, 2).render() == "...22"
    with pytest.raises(ValueError):
        dyn.carrier_evolution(p, 0)


def test_unbounded_carrier_matches_time_evolution():
    for text in (MONO_ROWS[0], COLOURED_ROWS[0]):
        p = dyn.BasicPath.from_string(text)
        assert dyn.carrier_evolution(p) == dyn.time_evolution(p)
    rng = random.Random(9)
    for _ in range(100):
        p = random_basic_path(rng, rng.randint(2, 5), 40, 15)
        assert dyn.carrier_evolution(p) == dyn.time_evolution(p)


def test_carrier_stabilizes_beyond_ball_count():
    rng = random.Random(10)
    for _ in range(50):
        p = random_basic_path(rng, rng.randint(2, 4), 30, 10)
        balls = max(1, dyn.ball_count(p))
        base = dyn.carrier_evolution(p, balls)
        for extra in (1, 2, 5):
            assert dyn.carrier_evolution(p, balls + extra) == base
        assert dyn.carrier_evolution(p, None) == base


def test_carrier_evolution_fixes_vacuum():
    vac = dyn.BasicPath((), 3)
    assert dyn.carrier_evolution(vac, 3) == vac
    ivac = dyn.InhomPath((), 3, 2)
    assert dyn.carrier_evolution(ivac, 3) == ivac


def test_decoding_pass_short_example():
    p = dyn.BasicPath.from_string("55432..")
    q, b = dyn.decoding_pass(p)
    assert q.render(7) == ".55422."
    assert b == cr.col(1, 3, 5)


def test_decoding_pass_full_row():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    q, b = dyn.decoding_pass(p)
    assert q.render(WIDTH) == S_TABLES[0][0][1]
    assert b == cr.col(1, 2, 5)


def test_decoding_pass_monochrome_fixed_point():
    p = dyn.BasicPath.from_string("..2.22", 3)
    q, b = dyn.decoding_pass(p)
    assert q == p
    assert b == cr.col(1, 2, 3)


def test_front_preserved_when_a_two_is_removed():
    rng = random.Random(12)
    hits = 0
    for _ in range(300):
        p = random_basic_path(rng, rng.randint(2, 5), 30, 12)
        if front(p) == 0:
            continue
        q, b = dyn.decoding_pass(p)
        if b.bottom == 2:
            assert front(q) == front(p)
            hits += 1
    assert hits > 20


def test_decoding_weight_delta():
    # one copy of the removed letter leaves, one 2 arrives
    rng = random.Random(13)
    for _ in range(200):
        p = random_basic_path(rng, rng.randint(3, 5), 30, 12)
        q, b = dyn.decoding_pass(p)
        before = Counter(v for v in p.sites if v >= 2)
        after = Counter(v for v in q.sites if v >= 2)
        before[b.bottom] -= 1
        before[2] += 1
        assert +before == +after


def test_encoding_inverts_decoding():
    rng = random.Random(14)
    for _ in range(200):
        p = random_basic_path(rng, rng.randint(2, 5), 40, 15)
        q, b = dyn.decoding_pass(p)
        assert dyn.encoding_pass(q, b.bottom) == p


def test_encoding_rejects_undecodable_pairs():
    p = dyn.BasicPath.from_string("2", 5)
    with pytest.raises(dyn.InvalidWordError):
        dyn.encoding_pass(p, 5)
    with pytest.raises(dyn.InvalidWordError):
        dyn.encoding_pass(p, 1)
    # a busy carrier unloads into an empty site 1 and leaves as (1, top)
    with pytest.raises(dyn.InvalidWordError):
        dyn.encoding_pass(dyn.BasicPath.from_string(".3", 4), 4)
    assert dyn.encoding_pass(dyn.BasicPath.from_string(".2", 3), 3).render() == "3"


def _letter_site(v, n):
    c = [0] * n
    c[v - 1] = 1
    return tuple(c)


def _as_inhom(p: dyn.BasicPath) -> dyn.InhomPath:
    return dyn.InhomPath(tuple(_letter_site(v, p.n) for v in p.sites), p.n, 1)


def _as_basic(p: dyn.InhomPath) -> dyn.BasicPath:
    return dyn.BasicPath(tuple(c.index(1) + 1 for c in p.sites), p.n)


def test_inhom_with_unit_capacities_matches_basic():
    rng = random.Random(15)
    for _ in range(60):
        p = random_basic_path(rng, rng.randint(2, 4), 25, 10)
        ip = _as_inhom(p)
        for cap in (1, 2, None):
            assert _as_basic(dyn.carrier_evolution(ip, cap)) == dyn.carrier_evolution(p, cap)
        q, b = dyn.decoding_pass(p)
        iq, ib = dyn.decoding_pass(ip)
        assert _as_basic(iq) == q
        assert ib == b
        if dyn.ball_count(q) and not q == p:
            assert _as_basic(dyn.encoding_pass(iq, ib.bottom)) == dyn.encoding_pass(q, b.bottom)


def test_inhom_validation_and_canonical_form():
    with pytest.raises(ValueError):
        dyn.InhomPath(((1, -1, 1),), 3)
    with pytest.raises(ValueError):
        dyn.InhomPath(((0, 0, 0),), 3)
    with pytest.raises(ValueError):
        dyn.InhomPath(((1, 0),), 3)
    trimmed = dyn.InhomPath(((1, 0, 1), (2, 0, 0)), 3, 2)
    assert trimmed.sites == ((1, 0, 1),)
    kept = dyn.InhomPath(((1, 0, 1), (3, 0, 0)), 3, 2)
    assert len(kept.sites) == 2
    assert tuple(sum(c) for c in kept.sites) == (2, 3)


@pytest.mark.parametrize("bad", [(1, 0), (True, 0, 1), (2, -1, 1), (0, 0, 0)],
                         ids=["wrong-length", "bool", "negative", "all-zero"])
def test_the_first_bad_count_vector_is_named(bad):
    """Each bad site follows a good one and precedes a site bad in another way."""
    later = (0, 0, 0) if bad != (0, 0, 0) else (1, 0)
    with pytest.raises(ValueError, match=rf"^bad count vector at site 2: {re.escape(str(bad))}$"):
        dyn.InhomPath(((1, 0, 1), list(bad), later), 3, 2)


BAD_STATES = {
    "letter-float": lambda: dyn.BasicPath((1, 2.5), 3),
    "letter-int-valued-float": lambda: dyn.BasicPath((2.0,), 3),
    "letter-bool": lambda: dyn.BasicPath((1, True), 3),
    "letter-str": lambda: dyn.BasicPath(("2",), 3),
    "letter-0": lambda: dyn.BasicPath((0, 2), 3),
    "letter-above-n": lambda: dyn.BasicPath((2, 4), 3),
    "n-float": lambda: dyn.BasicPath((1, 2), 3.0),
    "n-bool": lambda: dyn.BasicPath((1, 2), True),
    "counts-float": lambda: dyn.InhomPath(((1.5, 0.5),), 2),
    "counts-bool": lambda: dyn.InhomPath(((True, 0),), 2),
    "inhom-n-float": lambda: dyn.InhomPath(((1, 1),), 2.0),
    "tail-float": lambda: dyn.InhomPath(((1, 1),), 2, 2.0),
    "tail-bool": lambda: dyn.InhomPath(((1, 1),), 2, True),
}


@pytest.mark.parametrize("make", BAD_STATES.values(), ids=list(BAD_STATES))
def test_states_hold_ints_only(make):
    with pytest.raises(ValueError):
        make()


def test_inhom_front_and_counts():
    ip = dyn.InhomPath(((1, 0, 1), (2, 0, 0), (1, 1, 0)), 3, 2)
    assert front(ip) == 3
    assert dyn.ball_count(ip) == 2
    assert ip.render() == "[1,0,1][2,0,0][1,1,0]"


def test_inhom_decode_encode_round_trip():
    rng = random.Random(16)
    for _ in range(60):
        p = random_inhom_path(rng, rng.randint(2, 5))
        q, b = dyn.decoding_pass(p)
        assert dyn.encoding_pass(q, b.bottom) == p


def _with_sites(p, sites):
    """A new path of `p`'s kind, alphabet and tail capacity holding `sites`."""
    if p.mode == "basic":
        return dyn.BasicPath(sites, p.n)
    return dyn.InhomPath(sites, p.n, p.tail_capacity)


def replay_trace(p, trace):
    """Rebuild the output path of a sweep of `p` from the recorded per-site results."""
    return _with_sites(p, tuple(s.site_after for s in trace))


def test_trace_replay():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    q, b = dyn.decoding_pass(p)
    trace = []
    assert dyn.decoding_pass(p, trace) == (q, b)
    assert replay_trace(p, trace) == q
    assert all(step.tag for step in trace)
    r = dyn.carrier_evolution(p, 2)
    trace2 = []
    assert dyn.carrier_evolution(p, 2, trace2) == r
    assert replay_trace(p, trace2) == r
    both = list(trace)
    dyn.carrier_evolution(p, 2, both)
    assert both[len(trace):] == trace2  # each sweep numbers its steps from 1
    rng = random.Random(17)
    ip = random_inhom_path(rng, 4)
    iq, ib = dyn.decoding_pass(ip)
    itrace = []
    assert dyn.decoding_pass(ip, itrace) == (iq, ib)
    assert replay_trace(ip, itrace) == iq


def test_count_row_core_matches_row_box_core():
    assert first_row_core_disagreement() == (None, 40005)


# ---------------------------------------------------------------------------
# the sweeps against a dense reference that visits every site


def _dense_row_sweep(p, capacity):
    """(evolved path, carrier leaving the sites, one trace step per site)."""
    balls = dyn.ball_count(p)
    carrier = empty = dyn._empty_row(p, capacity if capacity is not None else max(1, balls))
    out, steps = [], []
    for k, site in enumerate(chain(p.sites, repeat(p.vacuum))):
        if k >= len(p.sites) and carrier == empty:
            break
        assert k <= len(p.sites) + balls + 2, "carrier failed to unload"
        emitted, new, tag, _ = p.row_core(carrier, site)
        steps.append(dyn.TraceStep(k + 1, tag, carrier, new, site, emitted))
        out.append(emitted)
        carrier = new
    return _with_sites(p, tuple(out)), carrier, tuple(steps)


def _tuple_row_sweep(p, capacity):
    """The basic row sweep with sorted-tuple carriers and `iso.row_box_core`:
    (evolved path, carrier leaving the sites, (tag, carrier before, carrier
    after, box, emitted box) per site)."""
    balls = dyn.ball_count(p)
    carrier = empty = (1,) * (capacity if capacity is not None else max(1, balls))
    out, steps = [], []
    for k, site in enumerate(chain(p.sites, repeat(1))):
        if k >= len(p.sites) and carrier == empty:
            break
        assert k <= len(p.sites) + balls + 2, "carrier failed to unload"
        emitted, new, tag = iso.row_box_core(carrier, site)
        steps.append((tag, carrier, new, site, emitted))
        out.append(emitted)
        carrier = new
    return dyn.BasicPath(tuple(out), p.n), carrier, steps


def _dense_decoding_pass(p):
    """(path, outgoing carrier, carrier leaving the sites, one trace step per site)."""
    top, bottom = 1, 2
    out, steps = [], []
    for k, site in enumerate(chain(p.sites, repeat(p.vacuum))):
        if k >= len(p.sites) and top == 1:
            break
        assert k <= len(p.sites), "decoding carrier failed to settle"
        emitted, (t2, b2), tag, _ = p.col_core((top, bottom), site)
        steps.append(dyn.TraceStep(k + 1, tag, (top, bottom), (t2, b2), site, emitted))
        out.append(emitted)
        top, bottom = t2, b2
    q = _with_sites(p, tuple(out))
    return q, cr.ColumnPair(1, bottom, p.n), (top, bottom), tuple(steps)


def _dense_encoding_pass(p, letter):
    """(the encoded path, or None when the carrier does not emerge as (1,2);
    the (site, top, bottom) of each step, right to left)."""
    core = iso.box_col_core if p.mode == "basic" else p.inv_col_core
    top, bottom = 1, letter
    out, steps = [], []
    for site in reversed(p.sites):
        steps.append((site, top, bottom))
        top, bottom, orig = core(site, top, bottom)[:3]
        out.append(orig)
    encoded = _with_sites(p, tuple(reversed(out))) if (top, bottom) == (1, 2) else None
    return encoded, steps


def _assert_sweeps_match_dense(p, letter):
    for cap in (1, 2, 3, None):
        q, carrier, steps = _dense_row_sweep(p, cap)
        assert carrier == dyn._empty_row(p, cap or max(1, dyn.ball_count(p)))  # idle
        assert dyn.carrier_evolution(p, cap) == q
        trace = []
        assert (dyn.carrier_evolution(p, cap, trace), tuple(trace)) == (q, steps)
        if isinstance(p, dyn.BasicPath):
            entries = cr.counts_to_entries
            tuple_q, tuple_carrier, tuple_steps = _tuple_row_sweep(p, cap)
            assert (q, entries(carrier)) == (tuple_q, tuple_carrier)
            assert [
                (s.tag, entries(s.carrier_before), entries(s.carrier_after), s.site_before,
                 s.site_after)
                for s in steps
            ] == tuple_steps
    q, outgoing, carrier, steps = _dense_decoding_pass(p)
    assert carrier == (1, outgoing.bottom)
    assert dyn.decoding_pass(p) == (q, outgoing)
    trace = []
    assert (dyn.decoding_pass(p, trace), tuple(trace)) == ((q, outgoing), steps)
    assert dyn.encoding_pass(q, outgoing.bottom) == p == _dense_encoding_pass(q, outgoing.bottom)[0]
    encoded, _ = _dense_encoding_pass(p, letter)
    if encoded is None:
        with pytest.raises(dyn.InvalidWordError):
            dyn.encoding_pass(p, letter)
    else:
        assert dyn.encoding_pass(p, letter) == encoded


@st.composite
def sparse_basic_paths(draw):
    """(path, word letter): up to 200 sites, at most 12 balls, letters at
    the first and last site."""
    n = draw(st.integers(2, 12))
    letter = st.integers(2, n)
    length = draw(st.integers(1, 200))
    sites = [1] * length
    for k, v in draw(st.dictionaries(st.integers(0, length - 1), letter, max_size=10)).items():
        sites[k] = v
    sites[0], sites[-1] = draw(letter), draw(letter)
    return dyn.BasicPath(tuple(sites), n), draw(letter)


@st.composite
def dense_basic_paths(draw):
    """(path, word letter): up to 80 sites, half of them 2s and the rest empty
    or coloured, so runs of 2s lie between and after the coloured boxes."""
    n = draw(st.integers(2, 6))
    box = st.sampled_from((2, 2, 2, 2, 1, 1, *range(3, n + 1)))
    sites = tuple(draw(st.lists(box, min_size=1, max_size=80)))
    return dyn.BasicPath(sites, n), draw(st.integers(2, n))


@st.composite
def inhom_paths(draw):
    """(path, word letter): up to 12 sites of capacity 1 to 4, about half of
    them empty, and a tail capacity of 2 to 4."""
    n = draw(st.integers(2, 5))
    empty = st.integers(1, 4).map(lambda c: [1] * c)
    loaded = st.lists(st.integers(1, n), min_size=1, max_size=4)
    box = st.one_of(empty, loaded).map(lambda vs: tuple(vs.count(v) for v in range(1, n + 1)))
    sites = tuple(draw(st.lists(box, max_size=12)))
    return dyn.InhomPath(sites, n, draw(st.integers(2, 4))), draw(st.integers(2, n))


@settings(max_examples=150, deadline=None)
@given(sparse_basic_paths())
# the encoding carrier leaves site 1 busy, or unloads into an empty site 1
# and leaves as (1, top): valid only when top is 2
@example((dyn.BasicPath.from_string("2", 5), 5))
@example((dyn.BasicPath.from_string("22", 3), 3))
@example((dyn.BasicPath.from_string(".3", 4), 4))
@example((dyn.BasicPath.from_string(".2", 3), 3))
def test_sparse_basic_sweeps_match_dense_reference(case):
    _assert_sweeps_match_dense(*case)


@settings(max_examples=150, deadline=None)
@given(inhom_paths())
def test_inhom_sweeps_match_dense_reference(case):
    _assert_sweeps_match_dense(*case)


@settings(max_examples=150, deadline=None)
@given(dense_basic_paths())
@example((dyn.BasicPath.from_string("32.2", 3), 2))  # (1,3) turns into (1,2) at the last 2
def test_dense_basic_sweeps_match_dense_reference(case):
    _assert_sweeps_match_dense(*case)


def test_the_seeded_column_passes_a_box_without_colour_unchanged():
    """Why every walker sends a box without colour through the swap: the seeded carrier
    (1,2) gives back the box and itself through each column core, on every row of 1s and 2s
    of capacity 1-6 at n = 2-6, through cases I-III forward and 3-5 inverse."""
    forward, inverse, rows = set(), set(), 0
    for n, capacity in product(range(2, 7), range(1, 7)):
        for twos in range(capacity + 1):
            entries = (1,) * (capacity - twos) + (2,) * twos
            counts = cr.entries_to_counts(entries, n)
            new, top, bottom, tag = iso.col_row_core(1, 2, entries)
            assert (new, top, bottom) == (entries, 1, 2)
            forward.add(tag)
            top, bottom, orig, tag = iso.row_col_core(entries, 1, 2)
            assert (top, bottom, orig) == (1, 2, entries)
            inverse.add(tag)
            assert dyn.InhomPath.col_core((1, 2), counts)[:2] == (counts, (1, 2))
            assert dyn.InhomPath.inv_col_core(counts, 1, 2)[:3] == (1, 2, counts)
            rows += 1
    assert rows == 135 and forward == {"I", "II", "III"} and inverse == {"3", "4", "5"}
    for g in (1, 2):
        assert iso.col_box_core(1, 2, g)[:3] == (g, 1, 2)
        assert iso.box_col_core(g, 1, 2)[:3] == (1, 2, g)


def _holds(p, site, least):
    """Whether the box `site` of `p` holds a letter >= `least`, read off the box."""
    return site >= least if p.mode == "basic" else any(site[least - 1 :])


def _skipped(p, top, site):
    """The idle steps an untraced column sweep skips: an idle carrier at an
    empty box.  Every box holding a ball goes through the swap, a box without
    colour too, which the seeded carrier (1,2) passes unchanged."""
    return top == 1 and not _holds(p, site, 2)


@contextmanager
def _recorded(cls, name):
    """The argument tuples of every call of the swap core `cls.name`."""
    core, calls = getattr(cls, name), []

    def recorded(*args):
        calls.append(args)
        return core(*args)

    with mock.patch.object(cls, name, staticmethod(recorded)):
        yield calls


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_basic_paths(), dense_basic_paths(), inhom_paths()))
def test_column_sweeps_call_the_core_once_per_busy_step(case):
    """Untraced inhomogeneous decoding and encoding passes call their core once
    per step of the dense reference, in order and with its arguments, but for
    the idle steps at empty boxes: at every box holding a ball, and at every
    empty box a busy carrier reaches.  Untraced basic passes run the swaps
    inline: a decoding pass calls no core, and a basic path has no inverse one.
    Both give the dense reference's output."""
    p, letter = case
    basic = p.mode == "basic"
    assert hasattr(type(p), "inv_col_core") != basic

    def inverse_calls():  # nothing to record on a basic path
        return nullcontext([]) if basic else _recorded(type(p), "inv_col_core")

    q, outgoing, _, steps = _dense_decoding_pass(p)
    expected = [
        (s.carrier_before, s.site_before)
        for s in steps
        if not _skipped(p, s.carrier_before[0], s.site_before)
    ]
    with _recorded(type(p), "col_core") as calls, inverse_calls() as inv:
        assert dyn.decoding_pass(p) == (q, outgoing)
    assert calls == ([] if basic else expected) and inv == []
    for path, word_letter in ((q, outgoing.bottom), (p, letter)):
        encoded, steps = _dense_encoding_pass(path, word_letter)
        expected = [(site, top, bottom) for site, top, bottom in steps
                    if not _skipped(p, top, site)]
        with inverse_calls() as calls, _recorded(type(p), "col_core") as col:
            if encoded is None:
                with pytest.raises(dyn.InvalidWordError):
                    dyn.encoding_pass(path, word_letter)
            else:
                assert dyn.encoding_pass(path, word_letter) == encoded
        assert calls == ([] if basic else expected) and col == []


def _first_colour(p):
    """The first box of `p` holding a letter >= 3, read off its sites; None if none does."""
    return next((k for k, site in enumerate(p.sites) if _holds(p, site, 3)), None)


def _boxes_before(p, f):
    """The boxes of `p` before box `f`, vacuum-padded; every stored box when `f` is None."""
    return p.sites if f is None else p.sites[:f] + (p.vacuum,) * (f - len(p.sites))


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_basic_paths(), dense_basic_paths(), inhom_paths()))
def test_passes_leave_the_boxes_before_the_first_colour(case):
    """Why `separate` and `combine` may walk from the first colour, read off the sites: a
    decoding pass leaves every box before the first colour as it was, so the first colour
    never moves left over a decoding (on basic paths its box empties, so it moves right),
    and an encoding pass leaves every box before its result's first colour."""
    p, letter = case
    rows = []
    sep.separate(p, rows)
    firsts = [_first_colour(row.state) for row in rows[:-1]]
    assert firsts == (sorted(set(firsts)) if p.mode == "basic" else sorted(firsts))
    for row, after in zip(rows, rows[1:]):
        assert dyn.decoding_pass(row.state)[0] == after.state  # a standalone pass agrees
        f = _first_colour(row.state)
        assert _boxes_before(after.state, f) == _boxes_before(row.state, f)
    for q in (p, *(row.state for row in rows)):
        try:
            encoded = dyn.encoding_pass(q, letter)
        except dyn.InvalidWordError:
            continue
        f = _first_colour(encoded)
        assert _boxes_before(encoded, f) == _boxes_before(q, f)


def test_inline_basic_passes_match_the_crystal_maps():
    """The basic paths' untraced passes, whose swaps are inline, against the
    dense references driven by `col_box_core` / `box_col_core`, on every path
    with n <= 4 and L <= 6 (n = 2, 3 up to L = 7): the decoded path, the
    outgoing carrier and the index, and for every word letter the encoded
    path, or an InvalidWordError exactly when the reference carrier does not
    emerge as (1,2)."""
    paths = 0
    for n, longest in ((2, 7), (3, 7), (4, 6)):
        for p in basic_paths(n, longest):
            q, outgoing, _, _ = _dense_decoding_pass(p)
            decoded, carrier = dyn.decoding_pass(p)
            assert (decoded, carrier) == (q, outgoing), p
            assert vars(decoded)["occupied"] == _fresh_scan(q), p
            for letter in range(2, n + 1):
                encoded, _ = _dense_encoding_pass(p, letter)
                if encoded is None:
                    with pytest.raises(dyn.InvalidWordError, match="not decodable"):
                        dyn.encoding_pass(p, letter)
                    continue
                got = dyn.encoding_pass(p, letter)
                assert got == encoded, (p, letter)
                assert vars(got)["occupied"] == _fresh_scan(encoded), (p, letter)
            paths += 1
    assert paths == 2**7 + 3**7 + 4**6


def _core_driven_sweeps():
    """Give basic paths `InhomPath`'s untraced forward sweeps, which call the path's cores."""
    inhom = vars(dyn.InhomPath)
    return mock.patch.multiple(
        dyn.BasicPath, **{name: inhom[name] for name in ("row_sweep", "col_sweep")}
    )


def _row_swept(p, capacities):
    """Per capacity, the untraced T_l image of `p` and the index its sweep gave it."""
    return [(q, vars(q)["occupied"]) for q in (dyn.carrier_evolution(p, c) for c in capacities)]


def _decoded(p):
    """(hash of every row, monochrome part, its index, word)."""
    rows = []
    rec = sep.separate(p, SimpleNamespace(append=lambda step: rows.append(hash(step.state.sites))))
    return rows, rec.monochrome, rec.monochrome.occupied, rec.word


def _combined(mono, word):
    """(`combine(mono, word)`, its index), or None on an InvalidWordError."""
    try:
        q = sep.combine(mono, word)
    except dyn.InvalidWordError:
        return None
    return q, q.occupied


def _unit_capacity_combined(mono, word):
    """`_combined` of a basic `mono` through its unit-capacity image, whose encoding passes
    call `row_col_core`: no core the inline basic kernel mirrors."""
    got = _combined(_as_inhom(mono), word)
    return got and (_as_basic(got[0]), got[1])


def test_chained_basic_passes_match_the_core_driven_sweeps_on_every_small_path():
    """`separate` and `combine` carry one working copy and its `colourless` count from pass
    to pass, which a standalone pass on a fresh copy never does.  On every basic path with
    n <= 4 and L <= 6: `_decoded` inline against the core-driven sweeps, and the monochrome
    part combined with its word and with every word over 2..n of at most 2 letters against
    the unit-capacity image, the same path and index or an InvalidWordError on both sides."""
    paths = [p for n in (2, 3, 4) for p in basic_paths(n, 6)]
    got = [_decoded(p) for p in paths]
    with _core_driven_sweeps():
        want = [_decoded(p) for p in paths]
    assert got == want and len(got) == 2**6 + 3**6 + 4**6
    reference, outcomes = {}, Counter()
    for p, (_, mono, _, word) in zip(paths, got):
        words = [word, *(w for k in range(3) for w in product(range(2, p.n + 1), repeat=k))]
        for y in words:
            combined = _combined(mono, y)
            if (mono, y) not in reference:
                reference[mono, y] = _unit_capacity_combined(mono, y)
            assert combined == reference[mono, y], (p, y)
            outcomes[combined is None] += 1
        assert _combined(mono, word)[0] == p
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("length, balls", [(4000, 1000), (10_000, 100)])
def test_inline_basic_passes_match_the_core_driven_sweep_on_long_paths(length, balls):
    p = seeded_basic_path(length + balls, length, balls, 6)
    capacities = (1, 2, 3, 50, None)

    def swept():  # fresh paths, each scanning its own index
        fresh = partial(dyn.BasicPath, p.sites, 6)
        return _decoded(fresh()), _row_swept(fresh(), capacities)

    got = swept()
    with _core_driven_sweeps():
        want = swept()
    assert got == want
    _, mono, _, word = got[0]
    combined = _combined(mono, word)
    assert combined == _unit_capacity_combined(mono, word)
    assert combined[0] == p and len(word) > balls // 2


def test_the_inline_row_sweep_matches_the_core_driven_sweep_on_every_small_path():
    """Every basic path with n = 4 and L <= 7, at capacities 1, 2, 3 and inf: the
    T_l image and its index."""
    capacities = (1, 2, 3, None)
    paths = list(basic_paths(4, 7))
    got = [_row_swept(p, capacities) for p in paths]
    with _core_driven_sweeps():
        want = [_row_swept(p, capacities) for p in paths]
    assert got == want and len(got) == 4**7
    assert all(vars(q)["occupied"] == _fresh_scan(q) for row in got for q, _ in row)


@pytest.mark.parametrize(
    "sites",
    [(3,) * 10**4, (6,) * 10**4 + (2,) * 10**4, (4,) * 20_000],
    ids=["block-of-3s", "6s-then-2s", "run-of-20000"],
)
def test_t_inf_on_long_blocks_of_equal_letters_is_t(sites):
    """A block loads the carrier with thousands of balls at once, and lands each ball of a
    letter round past the one before it: a carrier kept as a flat list, or a landing search
    that rescans the block, is quadratic here.  `time_evolution` shares no code with T_inf."""
    p = dyn.BasicPath(sites, max(sites))
    want = dyn.time_evolution(p)
    assert dyn.carrier_evolution(p) == want and want.sites != p.sites
    assert vars(want)["occupied"] == _fresh_scan(want)


@pytest.mark.parametrize("letter", [3.0, True, 2.5])
def test_passes_take_int_letters_only(letter):
    """A word letter whose type is not int, a bool too, is rejected before it
    can reach a path, as the path constructors reject it."""
    for mono in (dyn.BasicPath.from_string("2.22", 3),
                 dyn.InhomPath(((1, 1, 0), (2, 0, 0), (0, 2, 0)), 3, 2)):
        with pytest.raises(dyn.InvalidWordError, match="ints in 2..3"):
            dyn.encoding_pass(mono, letter)
        with pytest.raises(dyn.InvalidWordError, match="ints in 2..3"):
            sep.combine(mono, (letter,))


@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_sweeps_take_int_capacities_and_letters_only(bad, fresh_cores):
    """A carrier capacity or `move_letter` letter whose type is not int, a bool
    too, is rejected before any core runs: a float carrier would enter the
    memoised row cores, where 2.0 hits 2, and break every later int call."""
    basic = dyn.BasicPath.from_string("55432.....542....2")
    inhom = dyn.InhomPath(((1, 1, 0), (2, 0, 0), (0, 1, 1)), 3, 2)
    want = [dyn.carrier_evolution(p, 2) for p in (basic, inhom)]  # on cleared caches
    clear_memoised_cores()
    for p, q in zip((basic, inhom), want):
        trace = []
        with pytest.raises(ValueError, match="capacity must be an int"):
            dyn.carrier_evolution(p, bad)
        with pytest.raises(ValueError, match="capacity must be an int"):
            dyn.carrier_evolution(p, bad, trace)
        assert trace == []
        assert dyn.carrier_evolution(p, 2) == q
    with pytest.raises(ValueError, match="letter must be an int"):
        dyn.move_letter(basic, bad)


def _fresh_scan(p):
    """The boxes of `p` holding a ball, read off its sites without the path's index."""
    if p.mode == "basic":
        return tuple(k for k, v in enumerate(p.sites) if v != 1)
    return tuple(k for k, c in enumerate(p.sites) if c[0] != sum(c))


def _fresh_balls(p):
    """The number of letters >= 2 in `p`, read off its sites without the path's index."""
    if p.mode == "basic":
        return sum(v != 1 for v in p.sites)
    return sum(sum(c) - c[0] for c in p.sites)


def _sweep_outputs(p):
    """(input, output) of every sweep kind on `p`, untraced and traced, and of
    T on a basic path; each output is yielded before it is swept itself."""
    for capacity in (1, 2, 3, None):
        yield p, dyn.carrier_evolution(p, capacity)
        yield p, dyn.carrier_evolution(p, capacity, [])
    decoded, carrier = dyn.decoding_pass(p)
    yield p, decoded
    yield p, dyn.decoding_pass(p, [])[0]
    yield decoded, dyn.encoding_pass(decoded, carrier.bottom)
    if p.mode == "basic":
        yield p, dyn.time_evolution(p)
    for letter in range(2, p.n + 1):
        try:
            encoded = dyn.encoding_pass(p, letter)
        except dyn.InvalidWordError:
            continue
        yield p, encoded


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_basic_paths(), dense_basic_paths(), inhom_paths()))
def test_sweeps_keep_the_input_index_and_index_the_output(case):
    p, _ = case
    held = {id(p): dict(vars(p))}  # each input's vars() as it was before its sweeps
    for before, q in _sweep_outputs(p):
        assert vars(before) == held[id(before)]  # the input is unchanged, index included
        assert "occupied" in vars(q)  # set by the sweep
        assert q.occupied == _fresh_scan(q)
        assert front(q) == max((k + 1 for k in _fresh_scan(q)), default=0)
        assert dyn.ball_count(q) == _fresh_balls(q)
        held[id(q)] = dict(vars(q))  # after the reads above: a swept path keeps the boxes read


def test_an_untraced_chain_returns_basic_paths_without_their_boxes():
    """A basic path that an untraced call returns holds its balls alone: its boxes are made
    on first read and kept, so a chain of steps on a long sparse path copies O(B) a step."""
    p = seeded_basic_path(8, 10_000, 100, 6)

    def unboxed(q):
        assert "sites" not in vars(q) and type(q.occupied) is tuple, q.occupied
        return q

    for capacity in (1, 3, None):
        q = p
        for _ in range(20):
            q = unboxed(dyn.carrier_evolution(q, capacity))
    q, removed = p, []
    for _ in range(20):
        q, carrier = dyn.decoding_pass(q)
        unboxed(q)
        removed.append(carrier.bottom)
    for letter in reversed(removed):
        q = unboxed(dyn.encoding_pass(q, letter))
    for _ in range(20):
        rec = sep.separate(q)
        q = unboxed(sep.combine(unboxed(rec.monochrome), rec.word))
    assert q == p and q.sites == p.sites and "sites" in vars(q)


def test_constructors_index_their_path():
    """A constructor builds its path's index; a basic path holds only its balls, and makes its
    boxes on first read."""
    basic = [dyn.BasicPath.from_string("..2.3"), dyn.BasicPath([2, 1, 1], 3),
             dyn.BasicPath.from_string("..."), seeded_basic_path(48, 300, 40, 6)]
    for p in basic:
        index = vars(p)["occupied"]
        assert vars(p).keys() == {"n", "occupied", "letters"}  # no boxes until they are read
        assert index == _fresh_scan(p) and "sites" in vars(p)
        assert vars(p)["letters"] == tuple(p.sites[k] for k in index)
    assert basic[0].occupied == (2, 4) and basic[1].sites == (2,) and basic[2].sites == ()
    q = dyn.carrier_evolution(basic[0], 1)
    assert vars(basic[0])["occupied"] == (2, 4) and basic[0].occupied == (2, 4)  # swept: kept
    assert q.occupied == (3, 5)
    inhom = [dyn.InhomPath(((2, 0), (1, 1), (3, 0), (1, 0)), 2, 1), seeded_inhom_path(48, 30, 5)]
    for p in inhom:
        assert vars(p)["occupied"] == _fresh_scan(p)
    assert inhom[0].occupied == (1,) and len(inhom[0].sites) == 3  # the trailing vacuum trimmed


def _path_calls(n, word):
    """(name, call on a path) of every public function that takes a path, on paths
    over 1..n; `combine` recombines its path with `word`."""
    for cap in (1, 2, 3, None):
        evolve = partial(dyn.carrier_evolution, capacity=cap)
        yield f"carrier_evolution {cap}", evolve
        yield f"carrier_evolution {cap} traced", partial(evolve, trace=[])
        yield f"check_commutation {cap}", partial(sep.check_commutation, capacity=cap)
    yield "decoding_pass", dyn.decoding_pass
    yield "decoding_pass traced", partial(dyn.decoding_pass, trace=[])
    for letter in range(2, n + 1):
        yield f"encoding_pass {letter}", partial(dyn.encoding_pass, removed_letter=letter)
        yield f"move_letter {letter}", partial(dyn.move_letter, letter=letter)
    yield "time_evolution", dyn.time_evolution
    yield "separate", sep.separate
    yield "separate rows", partial(sep.separate, steps=[])
    yield "combine", partial(sep.combine, word=word)


def _built(p, build):
    """`p` built again by its constructor from `build` (tuple, list or iter) of its sites."""
    if p.mode == "basic":
        return dyn.BasicPath(build(p.sites), p.n)
    return dyn.InhomPath(build(build(c) for c in p.sites), p.n, p.tail_capacity)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_basic_paths(), dense_basic_paths(), inhom_paths()),
       st.sampled_from((tuple, list, iter)), st.booleans())
def test_no_public_function_changes_a_path_it_is_given(case, build, indexed):
    """Each call, on a coloured path and on its monochrome part, leaves its input's
    `sites` object and, if it had one, its index object in place, and returns a new
    path; a path without an index may only gain a right one."""
    source, _ = case
    record = sep.separate(source)
    for subject in (source, record.monochrome):
        for name, call in _path_calls(source.n, record.word):
            p = _built(subject, build)
            if indexed:
                p.occupied
            sites, index = p.sites, vars(p).get("occupied")
            try:
                out = call(p)
            except ValueError as exc:  # a word the path cannot take, or T on mixed boxes
                moves = name.startswith(("move_letter", "time_evolution"))
                assert type(exc) is dyn.InvalidWordError or moves and p.mode == "inhom", name
                out = None
            assert type(p.sites) is tuple and p.sites is sites, name
            if index is not None:
                assert vars(p)["occupied"] is index, name
            assert p == subject and hash(p) == hash(subject), name
            assert p.occupied == _fresh_scan(p), name
            assert (out[0] if isinstance(out, tuple) else out) is not p, name


def _kept_paths(out):
    """The paths a public call returned: a path, a pass's path, a record's monochrome part."""
    if isinstance(out, tuple):
        return [out[0]]
    if isinstance(out, sep.SeparationRecord):
        return [out.monochrome]
    return [] if isinstance(out, sep.CommutationReport) else [out]


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_basic_paths(), dense_basic_paths(), inhom_paths()))
def test_a_returned_path_is_its_working_copy_frozen_in_place(case):
    """Each call's output, and the monochrome part of its record, has tuple sites and
    index, holds no `colourless` count, names its vacuum box, and evolves and decodes as
    its twin built by the constructor does."""
    source, _ = case
    record = sep.separate(source)
    for subject in (source, record.monochrome):
        for name, call in _path_calls(source.n, record.word):
            try:
                out = call(subject)
            except ValueError:  # a word the path cannot take, or T on mixed boxes
                continue
            for q in _kept_paths(out):
                for p in (q, sep.separate(q).monochrome):
                    twin = _built(p, tuple)
                    assert "colourless" not in vars(p), name
                    assert type(p.sites) is tuple and type(p.occupied) is tuple, name
                    assert p == twin and p.occupied == twin.occupied, name
                    assert hash(p) == hash(twin) and p.render() == twin.render(), name
                    assert len(p.sites) == len(twin.sites), name
                    assert sep.is_monochrome(p) == sep.is_monochrome(twin), name
                    if p.mode == "inhom":
                        assert p.vacuum == (p.tail_capacity,) + (0,) * (p.n - 1), name
                    assert dyn.decoding_pass(p) == dyn.decoding_pass(twin), name
                    assert dyn.carrier_evolution(p, 1) == dyn.carrier_evolution(twin, 1), name
                    assert sep.separate(p) == sep.separate(twin), name


def test_constructors_store_any_iterable_of_ints_as_a_tuple():
    p, want = dyn.BasicPath([3, 2, 1, 1], 3), dyn.BasicPath((3, 2), 3)
    assert p == want and type(p.sites) is tuple and hash(p) == hash(want)
    q, _ = dyn.decoding_pass(p)
    assert q is not p and p.render() == "32" and q.render() == ".22"
    assert dyn.BasicPath(iter([3, 2]), 3).sites == (3, 2)
    for sites in ((1, 4), [1, 4], iter([1, 4])):
        with pytest.raises(ValueError) as exc:
            dyn.BasicPath(sites, 3)
        assert str(exc.value) == "letters must be ints in 1..3: (1, 4)"


def test_letter_moves_reject_mixed_capacities():
    p = dyn.InhomPath(((1, 1, 0), (2, 0, 0), (0, 1, 1)), 3, 2)
    sites, index = p.sites, p.occupied
    for call in (partial(dyn.time_evolution, p), partial(dyn.move_letter, p, 2)):
        with pytest.raises(ValueError, match="their T is InhomPath.time_step"):
            call()
        assert p.sites is sites and vars(p)["occupied"] is index
    assert p.time_step() == dyn.carrier_evolution(p, None)


# ---------------------------------------------------------------------------
# the memoised count-vector cores


def _counts(n, capacities=(1, 2, 3)):
    return [row.counts() for c in capacities for row in cr.iter_crystal((c,), n)]


def _columns(n):
    return [(col.top, col.bottom) for col in cr.iter_crystal((1, 1), n)]


def _core_domains():
    """(memoised class core, its plain function, every argument tuple) at
    small scope: carriers and boxes of capacity <= 3, n <= 4."""
    for n in range(2, 5):
        rows = _counts(n)
        yield dyn.BasicPath.row_core, dyn._row_box_counts, [
            (c, beta) for c in rows for beta in range(1, n + 1)]
        yield dyn.InhomPath.row_core, dyn._r_core, list(product(rows, rows))
        yield dyn.InhomPath.inf_row_core, dyn._r_core, list(product(rows, rows))
        yield dyn.InhomPath.col_core, dyn._col_row_counts, [
            ((t, b), c) for t, b in _columns(n) for c in rows]
        yield dyn.InhomPath.inv_col_core, dyn._row_col_counts, [
            (c, t, b) for t, b in _columns(n) for c in rows]


def test_memoised_cores_match_their_plain_functions_cold_and_warm(fresh_cores):
    seen = set()
    for core, plain, domain in _core_domains():
        assert core.__wrapped__ is plain
        seen.add(core)
        core.cache_clear()
        for args in domain:
            want = plain(*args)
            assert core(*args) == want, (plain.__name__, args)  # cold: a miss
            assert core(*args) == want, (plain.__name__, args)  # warm: a hit
            box, held = (want[2], want[4]) if len(want) == 5 else (want[0], want[3])
            ball = box != 1 if type(box) is int else box[0] != sum(box)
            assert held is ball, (plain.__name__, args)  # the emitted box's occupancy
        assert core.cache_info().hits == len(domain)
    assert seen == set(MEMOISED_CORES) and len(seen) == 5


def test_t_inf_sweeps_leave_the_finite_capacity_memo_to_other_paths(fresh_cores):
    """Unbounded row sweeps of an inhomogeneous path, traced or not, call `inf_row_core` and
    never `row_core`: T_inf on a path with more distinct swaps than a memo holds evicts none
    of the T_2 swaps of another path, which a second T_2 sweep then finds, all of them."""
    p, q = seeded_inhom_path(47, 30, 5), seeded_inhom_path(48, 150, 5)
    row = dyn.InhomPath.row_core
    t2 = dyn.carrier_evolution(p, 2)
    warm = row.cache_info()
    assert warm.misses > 10
    unbounded = partial(dyn.carrier_evolution, capacity=None)
    for sweep in (dyn.InhomPath.time_step, unbounded, partial(unbounded, trace=[])) * 7:
        q = sweep(q)
    assert row.cache_info() == warm  # T_inf made no finite-capacity call
    assert dyn.carrier_evolution(p, 2) == t2
    again = row.cache_info()
    assert again.misses == warm.misses and again.hits == warm.hits + warm.hits + warm.misses
    inf = dyn.InhomPath.inf_row_core.cache_info()
    assert inf.misses > 1024 and inf.currsize == 1024  # more keys than the memo holds


def test_untraced_inhom_walks_test_no_box_once_the_index_is_built(constructed):
    """An untraced walk of an inhomogeneous path takes each visited box's occupancy from its
    core's `held` field: the walks construct no path, and each index they build is the boxes
    holding a ball."""
    rng, sites = random.Random(46), []
    for _ in range(30):
        counts = [0] * 5
        for _ in range(rng.randint(1, 2)):
            counts[rng.randint(2, 5) - 1 if rng.random() < 0.5 else 0] += 1
        sites.append(tuple(counts))
    p = dyn.InhomPath(sites, 5, 2)
    assert p.occupied and dyn.ball_count(p) > 5
    record = sep.separate(p)
    walks = [dyn.carrier_evolution(p, 2), dyn.carrier_evolution(p, None)]
    q, outgoing = dyn.decoding_pass(p)
    walks += [q, dyn.encoding_pass(q, outgoing.bottom), sep.separate(p).monochrome,
              sep.combine(record.monochrome, record.word)]
    assert constructed == [p]
    assert walks[3] == walks[5] == p and walks[4] == record.monochrome
    for q in walks:
        assert q.occupied == _fresh_scan(q), q


def test_memos_are_bounded_and_isomorphisms_uncached():
    for core in MEMOISED_CORES:
        assert isinstance(core.cache_info().maxsize, int)
    assert not [name for name, f in vars(iso).items() if hasattr(f, "cache_info")]
    assert not hasattr(dyn.BasicPath.col_core, "cache_info")


def _traced_evolution(p, capacity):
    """(evolved path, its trace) of one traced row sweep."""
    trace = []
    return dyn.carrier_evolution(p, capacity, trace), trace


@pytest.mark.parametrize("capacity", [2, None])
def test_traced_sweeps_agree_cold_warm_and_uncached(capacity, fresh_cores, monkeypatch):
    for p in (random_basic_path(random.Random(21), 6), random_inhom_path(random.Random(22), 5)):
        assert dyn.ball_count(p)
        clear_memoised_cores()
        cold = _traced_evolution(p, capacity)
        warm = _traced_evolution(p, capacity)
        with monkeypatch.context() as m:
            for name in ("row_core", "inf_row_core"):
                m.setattr(type(p), name, staticmethod(getattr(type(p), name).__wrapped__))
            plain = _traced_evolution(p, capacity)
        assert cold == warm == plain
        assert [s.tag for s in cold[1]] == [s.tag for s in plain[1]]
        assert dyn.carrier_evolution(p, capacity) == cold[0]


def test_fresh_cores_expose_a_fault_planted_after_a_warm_sweep(monkeypatch, request):
    """A wrong `combinatorial_r` planted after a sweep has filled the memo of
    `InhomPath.row_core` is masked until the `fresh_cores` fixture clears it."""
    clear_memoised_cores()
    p = random_inhom_path(random.Random(23), 5)
    good = dyn.carrier_evolution(p, 2)
    assert good != p
    monkeypatch.setattr(dyn, "combinatorial_r", lambda x, y: (y, x))  # the carrier passes by
    assert dyn.carrier_evolution(p, 2) == good  # masked: every swap is a cache hit
    request.getfixturevalue("fresh_cores")
    assert dyn.carrier_evolution(p, 2) == p  # seen: the fault moves no ball
