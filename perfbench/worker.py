"""One workload in a fresh interpreter; started by run.py, never by hand.

    worker.py --probe
    worker.py WORKLOAD SEED SECONDS TRACE SCALE EXPECTED_JSON WORKDIR
    worker.py --cli-inproc OPS_JSON

The worker imports boxball from the checkout's `src/`, makes one untimed
warm-up call per entry point, and prints `READY` (run.py times set-up up to
that line).  It then checks the golden ops against the recorded digests,
runs the seeded ops one at a time as a closed loop with one client, for a
fixed number of rounds, checks each result outside the timed region, and
prints one JSON line of results.  Between ops it times the host
reference loop (hostspeed.py) and scales each op time by the reference
times nearest it, so a host that slows down for a while does not show as a
slower program.  With TRACE=1 it runs each op again traced right after its
untraced run, and adds the per-layer metrics (unscaled), the tracing
overhead and the L0 replay.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SEED = 0

t_start = time.perf_counter()
import boxball  # noqa: E402
import boxball.cli  # noqa: E402
from boxball import verify  # noqa: E402

IMPORT_S = time.perf_counter() - t_start

if not Path(boxball.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"boxball was imported from {boxball.__file__}, not from {ROOT / 'src'}")

import hostspeed  # noqa: E402
import ops as opsmod  # noqa: E402
import replay  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402


@contextlib.contextmanager
def captured_stdio(stdin_text: str = ""):
    """Feed `stdin_text` to sys.stdin and collect sys.stdout."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), out
    try:
        yield out
    finally:
        sys.stdin, sys.stdout = saved


def warm_up() -> None:
    """One call per entry point on a tiny input."""
    p = boxball.BasicPath.from_string("32..2")
    q = boxball.InhomPath(((1, 1, 0), (2, 0, 0)), 3, 1)
    for path in (p, q):
        rec = boxball.separate(path)
        boxball.combine(rec.monochrome, rec.word)
        boxball.carrier_evolution(path, 2)
        boxball.carrier_evolution(path, None)
        boxball.decoding_pass(path)
        boxball.check_commutation(path, 1, rec)
    boxball.time_evolution(p)
    verify.check_symmetric_group([(1,), (1,)], 2)
    verify.check_carrier_composition(1, 1, 1, 2)
    verify.check_swap_against_oracle((1,), (1, 1), 3)
    verify.check_decomposition(verify.row_box_fixture(1, 2))
    verify.random_basic_path(random.Random(0), 3)
    verify.random_inhom_path(random.Random(0), 3)
    with captured_stdio("32..2\n"):
        boxball.cli.main(["separate"])


def run_round(ops, later: bool, first: list, samples: list, failures: list,
              meter: hostspeed.Meter, tracer: tracing.Tracer | None, traced: list) -> None:
    """Run each op once, then check it outside the timed region; in later
    rounds its digest must match round one's.  With a tracer, each op then
    runs again traced, so the traced and untraced runs of an op share the
    machine's state; `traced` collects the traced op times.  The meter
    times the host reference loop between ops.  In `later` rounds the ops
    marked `once` are skipped."""
    for i, op in enumerate(ops):
        if later and op.once:
            continue
        meter.tick()
        t0 = time.perf_counter()
        try:
            result = op.run()
            dt = time.perf_counter() - t0
            outcome = op.check(result)
        except Exception as exc:  # a raising op is a failed op, not a crash
            samples.append((op.kind, time.perf_counter() - t0, 0, False, t0))
            failures.append(f"{op.key} raised {exc!r}")
            if len(first) == i:
                first.append(None)
            continue
        del result
        problems = list(outcome.problems)
        if len(first) == i:
            first.append(outcome)
        elif first[i] is None or first[i].digest != outcome.digest:
            problems.append("output changed between rounds")
        failures.extend(f"{op.key}: {msg}" for msg in problems)
        samples.append((op.kind, dt, outcome.elements, not problems, t0))
        if tracer is not None:
            traced.append(timed_under(tracer, op.run))


def timed_under(tracer: tracing.Tracer, call) -> float:
    tracer.install()
    try:
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0
    finally:
        tracer.uninstall()


def run_rounds(ops, rounds: int, meter: hostspeed.Meter,
               tracer: tracing.Tracer | None = None):
    samples, failures, first, traced = [], [], [], []
    for r in range(rounds):
        run_round(ops, r > 0, first, samples, failures, meter, tracer, traced)
    meter.sample()
    return samples, failures, first, traced


def scaled(samples: list, meter: hostspeed.Meter) -> list:
    """Each op time times the host-speed factor around it."""
    return [(kind, dt * meter.scale(t0, t0 + dt), elements, ok)
            for kind, dt, elements, ok, t0 in samples]


def golden(workload: str, expected_path: Path, workdir: Path, spawner):
    """The tiny golden ops against the digests recorded at the seed commit."""
    expected = json.loads(expected_path.read_text()).get(workload, {})
    ops = opsmod.build(workload, GOLDEN_SEED, "tiny", workdir / "golden", spawner)
    failures, failed = [], 0
    for op in ops:
        try:
            outcome = op.check(op.run())
        except Exception as exc:
            failures.append(f"golden {op.key} raised {exc!r}")
            failed += 1
            continue
        problems = list(outcome.problems)
        if expected.get(op.key) != outcome.digest:
            problems.append(f"digest {outcome.digest[:16]} != recorded "
                            f"{str(expected.get(op.key))[:16]}")
        failures.extend(f"golden {op.key}: {m}" for m in problems)
        failed += bool(problems)
    return len(ops), failed, failures


def layer_metrics(workload, ops, samples, tracer, traced, workdir) -> dict:
    """Per-layer metrics from the traced runs, the overhead, the L0 replay."""
    if workload == "cli":
        layer = cli_traced(ops, workdir)
    else:
        layer = tracer.metrics()
        layer["trace.overhead_ratio"] = sum(traced) / sum(s[1] for s in samples)
    records = replay.record_inputs([p for op in ops for p in op.paths])
    for core, (ns, calls) in replay.time_cores(records).items():
        layer[f"isomorphisms.{core}.ns_per_call"] = ns
        layer[f"isomorphisms.{core}.calls"] = calls
    return layer


def cli_traced(ops, workdir) -> dict:
    """Run every cli op's argv through boxball.cli.main in a child process."""
    ops_file = workdir / "cli-ops.json"
    ops_file.write_text(json.dumps([op.argv for op in ops]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--cli-inproc", str(ops_file)],
        capture_output=True, env=spec.child_env(), cwd=str(ROOT), timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"traced cli child failed: {proc.stderr.decode()[-500:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def cli_inproc(ops_path: str) -> None:
    """Each argv through boxball.cli.main, untraced and then traced."""
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    size = 0
    for argv in json.loads(Path(ops_path).read_text()):
        with captured_stdio() as out:
            t0 = time.perf_counter()
            code = boxball.cli.main(argv)
            untraced += time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"boxball {' '.join(argv)} exited {code}")
        size += len(out.getvalue().encode())
        with captured_stdio():
            traced += timed_under(tracer, lambda: boxball.cli.main(argv))
    layer = tracer.metrics()
    layer["trace.overhead_ratio"] = traced / untraced
    layer["cli.import_s"] = IMPORT_S
    layer["cli.output_bytes"] = size
    if "separation.separate.total_s" in layer:
        layer["cli.separate.s"] = layer["separation.separate.total_s"]
    print(json.dumps(layer))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cli-inproc"]:
        cli_inproc(argv[1])
        return 0
    warm_up()
    print("READY", flush=True)
    if argv[:1] == ["--probe"]:
        return 0
    workload, seed, seconds, trace, scale, expected, workdir = argv
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    spawner = opsmod.Spawner() if workload == "cli" else None
    try:
        golden_attempted, golden_failed, failures = golden(workload, Path(expected),
                                                           workdir, spawner)
        ops = opsmod.build(workload, seed, scale, workdir / "inputs", spawner)
        # a traced run runs each op untraced and traced, in a third of the
        # rounds of an untraced run (the cli workload traces in a child)
        rounds = opsmod.rounds_for(workload, seconds / 3 if trace else seconds)
        tracer = tracing.Tracer() if trace and workload != "cli" else None
        meter = hostspeed.Meter()
        samples, op_failures, first, traced = run_rounds(ops, rounds, meter, tracer)
        result = {}
        if trace:
            result["layer"] = layer_metrics(workload, ops, samples, tracer, traced,
                                            workdir)
    finally:
        if spawner is not None:
            spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    # ru_maxrss is in KiB on Linux; the cli workload's ops are the
    # spawner's child processes
    maxrss = spawner.maxrss_kib if spawner else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    result.update({
        "samples": scaled(samples, meter),
        "unscaled_s": [s[1] for s in samples],
        "host_ref_s": meter.times,
        "attempted": golden_attempted + len(samples),
        "failed": golden_failed + sum(1 for s in samples if not s[3]),
        "failures": (failures + op_failures)[:50],
        "rounds": rounds,
        "ops_per_round": sum(not op.once for op in ops),
        "once_ops": sum(op.once for op in ops),
        "output_digest": opsmod.digest(*(o.digest if o else None for o in first)),
        "peak_rss_mib": maxrss / 1024,
        "boxball_version": getattr(boxball, "__version__", "unknown"),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
