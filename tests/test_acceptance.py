"""End-to-end acceptance suite.

One test per numbered criterion, each enforcing its stated tolerance and
printing a single pass/fail line (run with `pytest -s` to see them live).
"""

import random
import time

from boxball import crystals as cr
from boxball import dynamics as dyn
from boxball import isomorphisms as iso
from boxball import separation as sep
from boxball import verify
from fixtures_data import COLOURED_ROWS, MONO_ROWS, S_TABLES, WIDTH, WORD


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _best_time(fn, repeats=5):
    fn()  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_monochrome_evolution():
    start = dyn.BasicPath.from_string(MONO_ROWS[0])

    def run():
        rows = [start]
        for _ in range(3):
            rows.append(dyn.time_evolution(rows[-1]))
        return rows

    rows = run()
    elapsed = _best_time(run)
    ok = [r.render(WIDTH) for r in rows] == MONO_ROWS and elapsed < 0.001
    report(1, "monochrome evolution rows t=1..3", ok, f"{elapsed * 1e3:.3f} ms")


def test_criterion_02_coloured_evolution():
    start = dyn.BasicPath.from_string(COLOURED_ROWS[0])

    def run():
        rows = [start]
        for _ in range(3):
            rows.append(dyn.time_evolution(rows[-1]))
        return rows

    rows = run()
    elapsed = _best_time(run)
    ok = [r.render(WIDTH) for r in rows] == COLOURED_ROWS and elapsed < 0.001
    report(2, "coloured evolution rows t=1..3", ok, f"{elapsed * 1e3:.3f} ms")


def test_criterion_03_decoding_table():
    start = dyn.BasicPath.from_string(COLOURED_ROWS[0])

    def run():
        return sep.separate(start)

    rec = run()
    elapsed = _best_time(run)
    rows, removals = S_TABLES[0]
    steps = rec.steps
    ok = (
        [s.state.render(WIDTH) for s in steps] == rows
        and [s.removed for s in steps[:-1]] == removals
        and "".join(map(str, rec.word)) == WORD
        and rec.monochrome.render(WIDTH) == MONO_ROWS[0]
        and elapsed < 0.001
    )
    report(3, "decoding table for the coloured start row", ok, f"{elapsed * 1e3:.3f} ms")


def test_criterion_04_tables_for_evolved_rows():
    ok = True
    for t in (1, 2, 3):
        rec = sep.separate(dyn.BasicPath.from_string(COLOURED_ROWS[t]))
        rows, removals = S_TABLES[t]
        steps = rec.steps
        ok = (
            ok
            and [s.state.render(WIDTH) for s in steps] == rows
            and [s.removed for s in steps[:-1]] == removals
            and "".join(map(str, rec.word)) == WORD
            and rec.monochrome.render(WIDTH) == MONO_ROWS[t]
        )
    report(4, "decoding tables for rows t=1..3 match end to end", ok)


def test_criterion_05_commutation_suite_basic():
    rng = random.Random(42)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        p = verify.random_basic_path(rng, rng.randint(2, 5), 60, 25)
        record = sep.separate(p)
        for cap in (1, 2, 3, None):
            if not sep.check_commutation(p, cap, record).passed:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30
    report(5, "commutation on 1000 random basic paths", ok, f"{elapsed:.1f}s, {failures} failures")


def test_criterion_06_commutation_suite_inhom():
    rng = random.Random(43)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(300):
        p = verify.random_inhom_path(rng, rng.randint(2, 5))
        record = sep.separate(p)
        for cap in (1, 2, 3, None):
            if not sep.check_commutation(p, cap, record).passed:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60
    report(6, "commutation on 300 random inhomogeneous paths", ok, f"{elapsed:.1f}s, {failures} failures")


def test_criterion_07_symmetric_group_relations():
    t0 = time.perf_counter()
    reps = [
        verify.check_symmetric_group([(3,), (1,), (1, 1)], 3),
        verify.check_symmetric_group([(2,), (3,), (1, 1)], 3),
        verify.check_symmetric_group([(2,), (2,), (2,)], 4, seed=42, count=1000),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reps) and elapsed < 60
    detail = "; ".join(r.counterexample or "ok" for r in reps)
    report(7, "involution, far commutation and braid relations", ok, f"{elapsed:.1f}s, {detail}")


def test_criterion_08_fixture_chains():
    rep = verify.check_highest_weight_chains()
    report(8, "six-step highest weight cycles", rep.passed, rep.counterexample or "")


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    shapes = [(1,), (2,), (3,), (4,), (1, 1)]
    for n in (2, 3, 4):
        for a in shapes:
            for b in shapes:
                rep = verify.check_swap_against_oracle(a, b, n)
                if not rep.passed:
                    mismatches.append(rep.counterexample)
    # the count-vector map and the box swap realize the same isomorphism
    for b in cr.iter_crystal((3,), 3):
        for c in cr.iter_crystal((1,), 3):
            x2, y2 = iso.combinatorial_r(b.counts(), c.counts())
            res = iso.swap_pair(b, c)
            if cr.counts_to_row(x2) != res.left or cr.counts_to_row(y2) != res.right:
                mismatches.append(f"count map disagrees at {b}*{c}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120
    report(9, "closed forms equal the propagation oracle", ok, f"{elapsed:.1f}s")


def test_criterion_10_unbounded_carrier_oracle():
    rng = random.Random(7)
    failures = 0
    for _ in range(1000):
        p = verify.random_basic_path(rng, rng.randint(2, 6), 50, 30)
        balls = max(1, dyn.ball_count(p))
        base = dyn.carrier_evolution(p, balls)
        if dyn.time_evolution(p) != base:
            failures += 1
        if dyn.carrier_evolution(p, balls + 1) != base or dyn.carrier_evolution(p, balls + 3) != base:
            failures += 1
    report(10, "letter moves equal the unbounded carrier; capacities stabilize", failures == 0,
           f"{failures} failures")


def test_criterion_11_round_trips():
    rng = random.Random(8)
    failures = 0
    for _ in range(500):
        p = verify.random_basic_path(rng, rng.randint(2, 5), 50, 20)
        rec = sep.separate(p)
        if sep.combine(rec.monochrome, rec.word) != p:
            failures += 1
    shapes = [(1,), (2,), (3,), (4,), (1, 1)]
    for n in (2, 3, 4):
        for a in shapes:
            for b in shapes:
                for t in cr.iter_tensor([a, b], n):
                    res = iso.swap_pair(*t.factors)
                    back = iso.swap_pair(res.left, res.right)
                    if (back.left, back.right) != t.factors:
                        failures += 1
    report(11, "decode/recombine and swap round trips", failures == 0, f"{failures} failures")


def test_criterion_12_decomposition_fixtures():
    reps = [verify.check_decomposition(f) for f in verify.standard_decomposition_fixtures()]
    ok = all(r.passed for r in reps)
    detail = "; ".join(r.counterexample for r in reps if not r.passed)
    report(12, "highest weight multisets match the summand lists", ok, detail)
