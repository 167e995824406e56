"""Seeded inputs and the ops each workload runs, with their output checks.

An op is one timed call into the program (`Op.run`) plus an untimed check
(`Op.check`) that turns its result into a digest of canonical integer forms
and a list of broken invariants.  Digests never use `render()` (ambiguous for
n > 9) and never include `elapsed` fields.

Library calls go through module attributes looked up at call time
(`bb.separate(...)`), so the traced run can wrap them after the ops are
built.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import boxball as bb
from boxball import verify

import replay
import spec

ROOT = Path(__file__).resolve().parent.parent
CAPACITIES = (1, 2, 3, None)


@dataclass
class Outcome:
    digest: str
    problems: list[str]
    elements: int = 0


@dataclass
class Op:
    key: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    paths: tuple = field(default=())  # inputs the L0 replay sweeps
    argv: list[str] | None = None  # cli ops only
    once: bool = False  # runs in the first round only


# ---------------------------------------------------------------------------
# canonical forms, digests, invariants


def is_inhom(p) -> bool:
    return hasattr(p, "tail_capacity")


def canon(p) -> tuple:
    if is_inhom(p):
        return ("inhom", p.n, p.tail_capacity, tuple(tuple(c) for c in p.sites))
    return ("basic", p.n, tuple(p.sites))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def census(p) -> tuple[int, ...]:
    """Number of letters 2..n."""
    out = [0] * (p.n + 1)
    if is_inhom(p):
        for counts in p.sites:
            for letter, c in enumerate(counts, start=1):
                out[letter] += c
    else:
        for v in p.sites:
            out[v] += 1
    return tuple(out[2:])


def decode_problems(p, mono, word) -> list[str]:
    """Invariants of a separation that need no reference output."""
    problems = []
    cm, cp = census(mono), census(p)
    if any(cm[1:]):
        problems.append("monochrome part holds letters above 2")
    if sum(cm) != sum(cp):
        problems.append(f"ball count {sum(cp)} -> {sum(cm)}")
    for letter in range(3, p.n + 1):
        if word.count(letter) != cp[letter - 2]:
            problems.append(f"letter {letter}: {cp[letter - 2]} in path, "
                            f"{word.count(letter)} in word")
    return problems


def strip_elapsed(text: bytes) -> bytes:
    """Drop the timing from `verify` report lines: '(domain 800, 0.29s)'."""
    return re.sub(rb", \d+\.\d+s\)", b")", text)


# ---------------------------------------------------------------------------
# seeded input generators


def basic_path(rng: random.Random, length: int, balls: int, n: int):
    sites = [1] * length
    for k in rng.sample(range(length), balls):
        sites[k] = rng.randint(2, n)
    return bb.BasicPath(tuple(sites), n)


def inhom_path(rng: random.Random, n_sites: int, n: int):
    """Capacities 1..4, each box filled with a random number of balls."""
    sites = []
    for _ in range(n_sites):
        cap = rng.randint(1, 4)
        counts = [cap] + [0] * (n - 1)
        for _ in range(rng.randint(0, cap)):
            letter = rng.randint(2, n)
            counts[0] -= 1
            counts[letter - 1] += 1
        sites.append(tuple(counts))
    return bb.InhomPath(tuple(sites), n, rng.randint(1, 4))


def make_path(rng, spec):
    """spec: ("basic", L, B, n) or ("inhom", sites, n)."""
    if spec[0] == "basic":
        return basic_path(rng, *spec[1:])
    return inhom_path(rng, *spec[1:])


def spec_label(spec) -> str:
    if spec[0] == "basic":
        return f"L{spec[1]}/B{spec[2]}/n{spec[3]}"
    return f"inhom{spec[1]}/n{spec[2]}"


# ---------------------------------------------------------------------------
# sizes


# Each run repeats one round of ops (same inputs) a fixed number of times,
# seconds / ROUND_S, so that parent and change always run identical work;
# ROUND_S is a round's duration at the full scale on a 2-core x86 virtual
# machine with Python 3.11, at the reference speed of hostspeed.py, plus
# its share of the ops marked `once`, which run in the first round only.
ROUND_S = {"decode": 6.5, "evolve": 5.0, "verify": 5.0, "cli": 6.5}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


# Sizes per input class.  "tiny" is the self-check and golden scale.  The
# counts place op_p50_s and op_tail_s inside one input class each (see
# the comment at each workload).
SIZES = {
    "decode": {
        # (path spec, count[, "once"]); the 3-s L4000/B1000 op runs once
        # (it sets the step table's peak memory), so a 20-s run has 3
        # rounds: 7 samples of the long ops, then the 9 of L1500/B375/n3,
        # whose middle holds the tail, then the 30 of L1000/B250/n6, whose
        # middle holds p50
        "full": [
            (("basic", 4000, 1000, 6), 1, "once"),
            (("basic", 2000, 500, 6), 1),
            (("basic", 10000, 100, 6), 1),
            (("basic", 1500, 375, 3), 3),
            (("basic", 1000, 250, 6), 10),
            (("inhom", 100, 5), 3),
        ],
        "tiny": [
            (("basic", 120, 30, 6), 1, "once"),
            (("basic", 60, 15, 3), 2),
            (("basic", 600, 6, 6), 1),
            (("inhom", 12, 5), 2),
        ],
    },
    "evolve": {
        # (basic path specs, inhom path specs, steps per op); per round: 8
        # ops above ~0.1 s (T_inf on L4000; T_inf, T, T_3 on L10000), 6 of
        # 60-70 ms (T, T_3 on L4000; Tnat on L10000), 8 below 45 ms (the
        # inhom ops, Tnat on L4000).  Over 4 rounds p50 falls in the middle
        # of the 60-70 ms ops, the tail among the T_inf ops on L10000/B100
        "full": ([("basic", 4000, 1000, 6)] * 2 + [("basic", 10000, 100, 6)] * 2,
                 [("inhom", 150, 5)] * 3, 20),
        "tiny": ([("basic", 120, 30, 6), ("basic", 300, 3, 6)], [("inhom", 12, 5)], 3),
    },
    "verify": {
        # per 4 rounds: 6 samples above the ~40-ms oracle checks, whose
        # 20 samples hold the tail; p50 among the path checks
        "full": {
            "braid": ([(3,), (1,), (1, 1), (2,)], 4),
            "composition": (2, 3, 3, 3),
            "oracle": [((3,), (1,), 4), ((1, 1), (1,), 4), ((3,), (1, 1), 5),
                       ((1, 1), (3,), 5), ((4,), (1,), 5), ((4,), (2,), 4),
                       ((2,), (4,), 4)],
            "decompositions": 6,
            "basic_paths": 2300,
            "inhom_paths": 1300,
        },
        "tiny": {
            "braid": ([(2,), (1,), (1, 1)], 3),
            "composition": (2, 1, 1, 3),
            "oracle": [((2,), (1,), 3), ((1, 1), (1,), 3)],
            "decompositions": 2,
            "basic_paths": 20,
            "inhom_paths": 10,
        },
    },
    "cli": {
        # (separate file, trace file, inhom doc, evolve file, evolve steps,
        #  theorem path count, files for separate and for separate --json,
        #  inhom docs, theorem runs); the --trace and evolve ops run once, so
        #  a 20-s run has 3 rounds: 3 samples of those, then 9 of separate,
        #  whose lower part holds the tail, then 9 of separate --json, whose
        #  middle holds p50, then 12 shorter ones
        "full": (("basic", 2000, 500, 6), ("basic", 1000, 250, 6), ("inhom", 150, 5),
                 ("basic", 4000, 1000, 6), 200, 200, 3, 2, 2),
        "tiny": (("basic", 60, 15, 6), ("basic", 40, 10, 6), ("inhom", 10, 5),
                 ("basic", 120, 30, 6), 5, 10, 1, 1, 1),
    },
}


def build(workload: str, seed: int, scale: str, workdir: Path,
          spawner: Spawner | None = None) -> list[Op]:
    """The workload's ops; the cli workload's run through `spawner`."""
    rng = random.Random(f"{workload}/{seed}")
    sizes = SIZES[workload][scale]
    if workload == "cli":
        return cli_ops(rng, sizes, workdir, spawner)
    return OPS_OF[workload](rng, sizes, workdir)


# ---------------------------------------------------------------------------
# decode: separate, combine, check the round trip


def decode_ops(rng, sizes, workdir) -> list[Op]:
    ops = []
    for spec, count, *flags in sizes:
        for _ in range(count):
            p = make_path(rng, spec)
            op = _decode_op(f"decode#{len(ops)}", spec_label(spec), p)
            op.once = "once" in flags
            ops.append(op)
    return ops


def _decode_op(key, kind, p) -> Op:
    def run():
        rec = bb.separate(p)
        return rec.monochrome, rec.word, bb.combine(rec.monochrome, rec.word) == p

    def check(res) -> Outcome:
        mono, word, round_trip = res
        problems = decode_problems(p, mono, word)
        if not round_trip:
            problems.append("combine(separate(p)) != p")
        return Outcome(digest(canon(mono), tuple(word)), problems)

    return Op(key, kind, run, check, (p,))


# ---------------------------------------------------------------------------
# evolve: K successive steps of one operator


def _decoding_step(q):
    out, carrier = bb.decoding_pass(q)
    return out, carrier.bottom


# operator -> one step: (next path, letter removed or None)
STEPS = {
    "T": lambda q: (bb.time_evolution(q), None),
    "T2": lambda q: (bb.carrier_evolution(q, 2), None),
    "T3": lambda q: (bb.carrier_evolution(q, 3), None),
    "Tinf": lambda q: (bb.carrier_evolution(q, None), None),
    "Tnat": _decoding_step,
}


def evolve_ops(rng, sizes, workdir) -> list[Op]:
    basic_specs, inhom_specs, steps = sizes
    plan = []
    for specs, names in ((basic_specs, ("T", "T3", "Tinf", "Tnat")),
                         (inhom_specs, ("T2", "Tinf"))):
        for spec in specs:
            p = make_path(rng, spec)
            plan.extend((spec, p, name) for name in names)
    return [_evolve_op(f"evolve#{i}", f"{name}:{spec_label(spec)}", p, name, steps)
            for i, (spec, p, name) in enumerate(plan)]


def _evolve_op(key, kind, p, name, steps) -> Op:
    step = STEPS[name]

    def run():
        states, removed = [p], []
        cur = p
        for _ in range(steps):
            cur, letter = step(cur)
            states.append(cur)
            removed.append(letter)
        return states, removed

    def check(res) -> Outcome:
        states, removed = res
        problems = []
        base = census(p)
        for t, (q, letter) in enumerate(zip(states[1:], removed), start=1):
            want = base
            if letter is not None:
                # a decoding pass swaps the removed letter for a 2
                want = list(base)
                want[0] += 1
                want[letter - 2] -= 1
                want = tuple(want)
            if census(q) != want:
                problems.append(f"step {t}: census {census(q)}, expected {want}")
                break
            base = want
        if name == "Tinf" and not is_inhom(p) and bb.time_evolution(p) != states[1]:
            problems.append("T != T_inf on the first step")
        return Outcome(digest(*(canon(q) for q in states), tuple(removed)), problems)

    return Op(key, kind, run, check, (p,))


# ---------------------------------------------------------------------------
# verify: verifier calls and per-path commutation checks


def verify_ops(rng, sizes, workdir) -> list[Op]:
    ops: list[Op] = []

    def add(kind, call, once=False):
        ops.append(Op(f"verify#{len(ops)}", kind, call, _check_report, once=once))

    # the two 1-s verifiers run once, so a run has more rounds of the rest
    shapes, n = sizes["braid"]
    add("symmetric-group", lambda: verify.check_symmetric_group(shapes, n), once=True)
    args = sizes["composition"]  # (l, N carriers, L boxes, n)
    add("composition", lambda: verify.check_carrier_composition(*args), once=True)
    for pair in sizes["oracle"]:
        add("oracle", lambda pair=pair: verify.check_swap_against_oracle(*pair))
    for fixture in verify.standard_decomposition_fixtures()[: sizes["decompositions"]]:
        add("decomposition", lambda f=fixture: verify.check_decomposition(f))
    add("chains", verify.check_highest_weight_chains)
    for _ in range(sizes["basic_paths"]):
        p = verify.random_basic_path(rng, rng.randint(2, 5))
        ops.append(_commutation_op(f"verify#{len(ops)}", "path-basic", p))
    for _ in range(sizes["inhom_paths"]):
        p = verify.random_inhom_path(rng, rng.randint(2, 4))
        ops.append(_commutation_op(f"verify#{len(ops)}", "path-inhom", p))
    return ops


def _check_report(rep) -> Outcome:
    problems = [] if rep.passed else [f"{rep.relation}: {rep.counterexample}"]
    return Outcome(digest(rep.relation, rep.domain, rep.counterexample), problems,
                   rep.domain)


def _commutation_op(key, kind, p) -> Op:
    def run():
        rec = bb.separate(p)
        return rec, [bb.check_commutation(p, cap, rec) for cap in CAPACITIES]

    def check(res) -> Outcome:
        rec, reports = res
        problems = decode_problems(p, rec.monochrome, rec.word)
        problems += [str(r) for r in reports if not r.passed]
        parts = [(r.passed, r.capacity, tuple(r.word)) for r in reports]
        return Outcome(digest(canon(rec.monochrome), tuple(rec.word), parts), problems,
                       len(reports))

    return Op(key, kind, run, check, (p,))


# ---------------------------------------------------------------------------
# cli: one `python -m boxball` process per op


def _state_doc(p) -> str:
    if is_inhom(p):
        return json.dumps({
            "n": p.n, "mode": "inhom", "tail_capacity": p.tail_capacity,
            "sites": [{"capacity": sum(c), "counts": list(c)} for c in p.sites],
        })
    return "".join("." if v == 1 else str(v) for v in p.sites) + "\n"


def _parse_state(text, n):
    """A state as the CLI prints it: ASCII row, or a list of count vectors."""
    if isinstance(text, str):
        return canon(bb.BasicPath.from_string(text, n))
    return ("counts", tuple(tuple(c) for c in text))


def _ref_canon(p):
    return ("counts", tuple(tuple(c) for c in p.sites)) if is_inhom(p) else canon(p)


class Spawner:
    """perfbench/spawner.py in a child: starts the cli processes, so that
    their peak memory is theirs and not the worker's (see there)."""

    def __init__(self) -> None:
        self.maxrss_kib = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=spec.child_env(),
            cwd=str(ROOT))

    def run(self, argv: list[str], timeout: float) -> tuple[int, bytes, bytes]:
        request = {"argv": argv, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        head = json.loads(self.proc.stdout.readline())
        reply = self.proc.stdout
        return head["code"], reply.read(head["out"]), reply.read(head["err"])

    def close(self) -> None:
        """Ends the spawner and keeps its children's largest peak memory."""
        self.proc.stdin.close()
        try:
            tail = self.proc.stdout.read()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.maxrss_kib = json.loads(tail)["maxrss_kib"]


def cli_ops(rng, sizes, workdir, spawner: Spawner) -> list[Op]:
    (sep_spec, trace_spec, inhom_spec, evolve_spec, steps, count, n_sep, n_inhom,
     n_theorem) = sizes
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def write(p) -> str:
        path = workdir / f"input{len(list(workdir.iterdir()))}.txt"
        path.write_text(_state_doc(p))
        return str(path)

    sep_inputs = []
    for _ in range(n_sep):
        p = make_path(rng, sep_spec)
        sep_inputs.append((p, write(p)))
    for p, f in sep_inputs:
        ops.append(_cli_op(ops, spawner, "separate", ["separate", f], p,
                           _check_separate_text))
    for p, f in sep_inputs:
        ops.append(_cli_op(ops, spawner, "separate-json", ["separate", "--json", f], p,
                           _check_separate_json))
    p = make_path(rng, trace_spec)
    ops.append(_cli_op(ops, spawner, "separate-trace", ["separate", "--trace", write(p)],
                       p, _check_separate_text))
    for _ in range(n_inhom):
        p = make_path(rng, inhom_spec)
        ops.append(_cli_op(ops, spawner, "separate-json-inhom",
                           ["separate", "--json", write(p)], p, _check_separate_json))
    p = make_path(rng, evolve_spec)
    f = write(p)
    ops.append(_cli_op(ops, spawner, "evolve-T", ["evolve", "--steps", str(steps), f], p,
                       _evolve_checker(steps, "T")))
    ops.append(_cli_op(ops, spawner, "evolve-Tl3-json",
                       ["evolve", "--steps", str(steps), "--operator", "Tl:3", "--json", f],
                       p, _evolve_checker(steps, "Tl:3")))
    for _ in range(n_theorem):
        argv = ["verify", "theorem", "--n", "5", "--count", str(count),
                "--seed", str(rng.randrange(2**31))]
        ops.append(_cli_op(ops, spawner, "verify-theorem", argv, None, _check_theorem))
    for op in ops:  # the 1-s ops run once, so a run has more rounds of the rest
        op.once = op.kind in ("separate-trace", "evolve-T", "evolve-Tl3-json")
    return ops


def _cli_op(ops, spawner, kind, argv, p, checker) -> Op:
    cmd = [sys.executable, "-m", "boxball", *argv]

    def run():
        return spawner.run(cmd, timeout=120)

    def check(res) -> Outcome:
        code, out, err = res
        problems = [] if code == 0 else [f"exit {code}: {err.decode()[-300:]}"]
        if code == 0:
            try:
                problems += checker(p, out.decode(), argv)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unparseable output: {exc!r}")
        return Outcome(hashlib.sha256(strip_elapsed(out)).hexdigest(), problems)

    return Op(f"cli#{len(ops)}", kind, run, check, (p,) if p is not None else (), argv)


@functools.lru_cache(maxsize=8)
def _library_separation(p):
    return bb.separate(p)


@functools.lru_cache(maxsize=2)
def _library_rows(p, operator, steps):
    rows, cur = [canon(p)], p
    for _ in range(steps):
        cur = bb.time_evolution(cur) if operator == "T" else bb.carrier_evolution(cur, 3)
        if census(cur) != census(p):
            raise ValueError(f"library {operator} broke the census")
        rows.append(canon(cur))
    return rows


def _compare_separation(p, mono, word, states, removed) -> list[str]:
    rec = _library_separation(p)
    problems = decode_problems(p, rec.monochrome, rec.word)
    if mono != _ref_canon(rec.monochrome):
        problems.append("monochrome part differs from the library's")
    if word != tuple(rec.word):
        problems.append(f"word {word} differs from the library's {tuple(rec.word)}")
    if len(states) != len(rec.steps):
        problems.append(f"{len(states)} step rows, library has {len(rec.steps)}")
    else:
        for k, (s, r, step) in enumerate(zip(states, removed, rec.steps)):
            if s != _ref_canon(step.state) or r != step.removed:
                problems.append(f"step row s={k} differs from the library's")
                break
    return problems


def _check_separate_text(p, out, argv) -> list[str]:
    lines = out.splitlines()
    rows = [ln.split() for ln in lines if ln.startswith("s=")]
    word_line = [ln for ln in lines if ln.startswith("word")][0].split()
    word = tuple(int(c) for c in (word_line[1] if len(word_line) > 1 else ""))
    states = [_parse_state(r[1], p.n) for r in rows]
    removed = [int(r[2]) if len(r) > 2 else None for r in rows]
    problems = _compare_separation(p, states[-1], word, states, removed)
    if "--trace" in argv:
        problems += _check_trace_lines(lines, states, removed)
    return problems


def _check_trace_lines(lines, states, removed) -> list[str]:
    traces = [ln.split() for ln in lines if ln.startswith("trace ")]
    if len(traces) != len(states) - 1:
        return [f"{len(traces)} trace lines for {len(states) - 1} passes"]
    for k, parts in enumerate(traces):
        tags = [tok.split(":")[1] for tok in parts[3:]]
        sites = states[k][2]
        want = [tag for _, tag in replay.decoding_sweep(sites)]
        if parts[2] != f"([1/{removed[k]}])" or tags != want:
            return [f"trace line s={k} differs from a col_box_core sweep"]
    return []


def _check_separate_json(p, out, argv) -> list[str]:
    doc = json.loads(out)
    word = doc["word"]
    word = tuple(int(c) for c in word) if isinstance(word, str) else tuple(word)
    states = [_parse_state(s["state"], p.n) for s in doc["steps"]]
    removed = [s.get("removed") for s in doc["steps"]]
    return _compare_separation(p, _parse_state(doc["monochrome"], p.n), word, states,
                               removed)


def _evolve_checker(steps, operator):
    def check(p, out, argv) -> list[str]:
        if "--json" in argv:
            rows = [canon(bb.BasicPath.from_string(r["state"], r["n"]))
                    for r in json.loads(out)["rows"]]
        else:
            rows = [_parse_state(ln.split()[1], p.n) for ln in out.splitlines()]
        want = _library_rows(p, operator, steps)
        if len(rows) != len(want):
            return [f"{len(rows)} rows for {steps} steps"]
        for t, (row, ref) in enumerate(zip(rows, want)):
            if row != ref:
                return [f"row t={t} differs from the library's {operator}"]
        return []

    return check


def _check_theorem(p, out, argv) -> list[str]:
    return [] if out.startswith("pass  theorem[") else [f"theorem suite: {out[:200]}"]


OPS_OF = {"decode": decode_ops, "evolve": evolve_ops, "verify": verify_ops}
