"""Seeded benchmark of the boxball library and CLI.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 20 --trace 0

Workloads: decode, evolve, verify, cli (see spec.py), or `all`.  Each runs
in a fresh child interpreter (worker.py) as a closed loop with one client:
ops run one after another and each is timed on its own.  `--seconds` sets
the amount of work: the workload's round of ops repeats seconds /
ops.ROUND_S times (at least once), so two commits run identical ops.
`--trace 0` prints every end-to-end metric, with op and set-up times
scaled to a fixed host speed (hostspeed.py); `--trace 1` reruns the ops with spans
around the calls into each module and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; every run also writes a result file
under perfbench/results/<--out>/ for compare.py.  The exit code is non-zero
when any op fails its checks or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spec
import stats

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
PROBES = 11  # extra fresh interpreters timed for setup_s
REFS_PER_SPAWN = 3  # host reference loops timed before each interpreter start
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def build() -> None:
    """The program is pure Python: byte-compile it so no timed import compiles."""
    if not (ROOT / "src" / "boxball" / "__init__.py").is_file():
        raise BenchError(f"no boxball package under {ROOT / 'src'}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "boxball")],
                   check=True, stdout=subprocess.DEVNULL, timeout=60)


def spawn(args: list[str], deadline: float):
    """Start worker.py; return (seconds until READY, stdout lines after it)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=spec.child_env(), cwd=str(ROOT))
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline")
    if ready.strip() != b"READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): "
                         f"{(ready + err).decode(errors='replace')[-2000:]}")
    return setup, out.decode().splitlines()


def host_reference() -> list[float]:
    return [hostspeed.timed_reference() for _ in range(REFS_PER_SPAWN)]


def run_workload(workload: str, args, deadline: float) -> dict:
    setups, refs = [], []
    if not args.trace:
        for _ in range(PROBES):
            refs += host_reference()
            setups.append(spawn(["--probe"], deadline)[0])
    refs += host_reference()
    workdir = RESULTS / f".work-{os.getpid()}-{workload}"
    setup, lines = spawn([workload, str(args.seed), str(args.seconds), str(args.trace),
                          args.scale, str(args.expected), str(workdir)], deadline)
    raw = json.loads(lines[-1])
    setups.append(setup)

    lat = [s[1] for s in raw["samples"]]
    busy = sum(lat)
    tail, pct, n = stats.tail(lat)
    metrics = {
        "setup_s": statistics.median(setups) * hostspeed.REF_S / statistics.median(refs),
        "ops_per_s": len(lat) / busy,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "peak_rss_mib": raw["peak_rss_mib"],
        "fail_ratio": raw["failed"] / raw["attempted"],
    }
    if workload == "verify":
        metrics["elements_per_s"] = sum(s[2] for s in raw["samples"]) / busy
    if args.trace:
        metrics = {"fail_ratio": metrics["fail_ratio"], **raw["layer"]}
    kinds: dict[str, list[float]] = {}
    for kind, dt, _, _ in raw["samples"]:
        kinds.setdefault(kind, []).append(dt)
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "boxball_version": raw["boxball_version"],
            "why": spec.WORKLOADS[workload],
        },
        "metrics": metrics,
        "tail": {"percentile": pct, "samples": n},
        "host": {
            "ref_s": hostspeed.REF_S,
            "run_ref_s": stats.quartiles(raw["host_ref_s"]),
            "run_refs": len(raw["host_ref_s"]),
            "setup_ref_s": statistics.median(refs),
            "unscaled_setup_s": statistics.median(setups),
            "unscaled_op_p50_s": statistics.median(raw["unscaled_s"]),
            "unscaled_ops_per_s": len(lat) / sum(raw["unscaled_s"]),
        },
        "rounds": raw["rounds"],
        "ops_per_round": raw["ops_per_round"],
        "once_ops": raw["once_ops"],
        "kind_median_s": {k: statistics.median(v) for k, v in sorted(kinds.items())},
        "latencies": [(kind, dt) for kind, dt, _, _ in raw["samples"]],
        "output_digest": raw["output_digest"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
    }


def report(res: dict) -> None:
    units = {n: u for n, (u, _, _) in spec.metric_table().items()}
    m = res["meta"]
    print(f"# {res['workload']}: seed {res['seed']}, scale {res['scale']}, "
          f"{res['rounds']} round(s) of {res['ops_per_round']} ops "
          f"(+{res['once_ops']} in the first), trace {res['trace']}")
    print(f"#   python {m['python']}, nproc {m['nproc']}, {m['platform']}, "
          f"commit {m['git_commit']}")
    for name, value in res["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{res['tail']['percentile']:.1f}, n={res['tail']['samples']})"
        elif name == "setup_s":
            note = (f"  (median of {PROBES + 1} interpreter starts; "
                    f"unscaled {res['host']['unscaled_setup_s']:.6g} s)")
        elif name == "op_p50_s":
            note = f"  (unscaled {res['host']['unscaled_op_p50_s']:.6g} s)"
        elif name == "fail_ratio":
            note = f"  ({res['failed']} of {res['attempted']} ops failed)"
        print(f"{name:48s} {value:14.6g} {units.get(name, _layer_unit(name))}{note}")
    h = res["host"]
    q1, med, q3 = (1e3 * t for t in h["run_ref_s"])
    print(f"# host reference loop: {h['run_refs']} calls, quartiles {q1:.3f} {med:.3f} "
          f"{q3:.3f} ms; times are scaled to {1e3 * h['ref_s']:g} ms of this loop")
    print(f"# output digest {res['output_digest']}")
    for msg in res["failures"]:
        print(f"# FAIL {msg}")


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"ns_per_call": "ns", "us_per_site": "us", "s_per_element": "s/elem",
            "overhead_ratio": "ratio", "output_bytes": "bytes"}.get(
        suffix, "s" if suffix.endswith("_s") or suffix == "s" else "count")


def contract_metrics(res: dict) -> dict:
    """The metrics BENCHMARK.json names, for the final JSON line."""
    names = spec.PER_LAYER if res["trace"] else spec.END_TO_END
    return {n: {"value": res["metrics"][n], "unit": u} for n, u, *_ in names
            if n in res["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: the self-check's small inputs")
    parser.add_argument("--expected", type=Path, default=BENCH / "expected.json",
                        help="recorded digests of the golden ops")
    parser.add_argument("--out", default="latest", help="result directory name")
    args = parser.parse_args(argv)
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        build()
        results = [run_workload(w, args, time.monotonic() + DEADLINE_S)
                   for w in workloads]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    outdir = RESULTS / args.out
    outdir.mkdir(parents=True, exist_ok=True)
    for res in results:
        report(res)
        name = f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
        (outdir / name).write_text(json.dumps(res, indent=1))
    if len(results) == 1:
        metrics = contract_metrics(results[0])
    else:
        metrics = {f"{r['workload']}.{n}": v for r in results
                   for n, v in contract_metrics(r).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
