import random
from collections import Counter

import pytest

from boxball import crystals as cr
from boxball import dynamics as dyn
from boxball.verify import random_basic_path, random_inhom_path
from fixtures_data import COLOURED_ROWS, MONO_ROWS, S_TABLES, WIDTH


def test_parse_and_render():
    p = dyn.BasicPath.from_string("..2.3.")
    assert p.n == 3
    assert p.sites == (1, 1, 2, 1, 3)
    assert p.render() == "..2.3"
    assert p.render(8) == "..2.3..."
    assert dyn.front(p) == 5
    assert dyn.ball_count(p) == 2


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
    assert dyn.front(vac) == 0
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
    assert b == dyn.initial_carrier(3)


def test_front_preserved_when_a_two_is_removed():
    rng = random.Random(12)
    hits = 0
    for _ in range(300):
        p = random_basic_path(rng, rng.randint(2, 5), 30, 12)
        if dyn.front(p) == 0:
            continue
        q, b = dyn.decoding_pass(p)
        if b.bottom == 2:
            assert dyn.front(q) == dyn.front(p)
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
    assert kept.capacities == (2, 3)


def test_inhom_front_and_counts():
    ip = dyn.InhomPath(((1, 0, 1), (2, 0, 0), (1, 1, 0)), 3, 2)
    assert dyn.front(ip) == 3
    assert dyn.ball_count(ip) == 2
    assert ip.render() == "[1,0,1][2,0,0][1,1,0]"


def test_inhom_decode_encode_round_trip():
    rng = random.Random(16)
    for _ in range(60):
        p = random_inhom_path(rng, rng.randint(2, 5))
        q, b = dyn.decoding_pass(p)
        assert dyn.encoding_pass(q, b.bottom) == p


def test_trace_replay():
    p = dyn.BasicPath.from_string(COLOURED_ROWS[0])
    q, b = dyn.decoding_pass(p)
    trace = dyn.decoding_pass_traced(p)
    assert dyn.replay_trace(trace) == q
    assert trace.before == p and trace.after == q
    assert all(step.tag for step in trace.steps)
    r = dyn.carrier_evolution(p, 2)
    trace2 = dyn.carrier_evolution_traced(p, 2)
    assert dyn.replay_trace(trace2) == r
    rng = random.Random(17)
    ip = random_inhom_path(rng, 4)
    iq, ib = dyn.decoding_pass(ip)
    itrace = dyn.decoding_pass_traced(ip)
    assert dyn.replay_trace(itrace) == iq
