"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json matches spec.py.
2. Every workload runs at the tiny scale, untraced and traced; the final
   JSON line has exactly the contract's keys and metrics, and the result
   file holds every metric named for that workload below.
3. With one expected digest corrupted, every workload reports failed ops
   and exits non-zero.
4. In a directory holding only BENCHMARK.json and perfbench/, the run exits
   non-zero without printing a result.
5. compare.py's verdicts on synthetic runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import spec

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "results" / "selfcheck"

E2E = ["setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mib", "fail_ratio"]
_PASSES = [f"dynamics.decoding_pass.{m}" for m in ("calls", "self_s", "us_per_site")]
_CORES = [f"isomorphisms.{c}.ns_per_call" for c in (
    "col_box_core", "box_col_core", "row_box_core", "col_row_core", "row_col_core",
    "combinatorial_r")]
# metrics each workload's traced run must report: its layers that do work
LAYERS = {
    "decode": _CORES + _PASSES + [
        "dynamics.encoding_pass.calls", "dynamics.encoding_pass.self_s",
        "dynamics.encoding_pass.us_per_site", "separation.separate.calls",
        "separation.separate.self_s", "separation.separate.passes",
        "separation.is_monochrome.calls", "separation.is_monochrome.self_s",
        "separation.combine.self_s", "trace.overhead_ratio"],
    "evolve": _CORES + _PASSES + [
        "dynamics.time_evolution.us_per_site",
        "dynamics.carrier_evolution.finite.us_per_site",
        "dynamics.carrier_evolution.inf.us_per_site", "trace.overhead_ratio"],
    "verify": _CORES + _PASSES + [
        "isomorphisms.swap_adjacent.calls", "isomorphisms.swap_adjacent.self_s",
        "crystals.iter_tensor.elements", "crystals.iter_tensor.self_s",
        "crystals.lowering.calls", "crystals.lowering.self_s",
        "crystals.highest_weights.self_s", "separation.separate.calls",
        "separation.separate.self_s", "separation.separate.passes",
        "separation.check_commutation.calls", "separation.check_commutation.self_s",
        "verify.check_symmetric_group.s_per_element",
        "verify.check_carrier_composition.s_per_element",
        "verify.check_swap_against_oracle.s_per_element",
        "verify.check_decomposition.s_per_element", "verify.isomorphism_table.self_s",
        "trace.overhead_ratio"],
    "cli": _CORES + _PASSES + [
        "cli.parse_state.self_s", "cli.separate.s", "cli.main.self_s",
        "cli.output_bytes", "cli.import_s", "trace.overhead_ratio"],
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def last_json(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def tiny_runs() -> None:
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            code, lines = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                               "--trace", str(trace), "--scale", "tiny",
                               "--out", "selfcheck"])
            doc = last_json(lines)
            label = f"{workload} --trace {trace}"
            check(code == 0 and doc is not None, f"{label}: exit 0 with a JSON line")
            if doc is None:
                continue
            want = {n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)}
            check(set(doc) == {"correct", "attempted", "failed", "metrics"}
                  and doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
                  f"{label}: correct, attempted >= 1, failed 0")
            check(set(doc["metrics"]) == want and all(
                isinstance(m["value"], (int, float)) and m["value"] > 0
                for m in doc["metrics"].values()),
                f"{label}: every contract metric, each a positive number")
            res = json.loads((ROOT / "perfbench" / "results" / "selfcheck" /
                              f"{workload}-seed1-trace{trace}.json").read_text())
            named = LAYERS[workload] if trace else E2E + (
                ["elements_per_s"] if workload == "verify" else [])
            missing = [n for n in named if n not in res["metrics"]]
            check(not missing, f"{label}: report has every named metric {missing or ''}")


def corrupted_digest() -> None:
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for digests in expected.values():
        key = sorted(digests)[0]
        digests[key] = "0" * 64
    WORK.mkdir(parents=True, exist_ok=True)
    corrupt = WORK / "expected-corrupt.json"
    corrupt.write_text(json.dumps(expected))
    for workload in spec.WORKLOADS:
        code, lines = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                           "--scale", "tiny", "--expected", str(corrupt),
                           "--out", "selfcheck-corrupt"])
        doc = last_json(lines)
        check(code != 0 and doc is not None and doc["failed"] > 0 and not doc["correct"],
              f"{workload}: a corrupted expected digest fails the run")


def bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = run(["--workload", "decode", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
    check(code != 0 and last_json(lines) is None,
          "without the program: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)


def verdicts() -> None:
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    cases = [([v * 0.8 for v in parent], "lower", 0.1, "better"),
             ([v * 1.3 for v in parent], "lower", 0.1, "worse"),
             ([v * 1.05 for v in parent], "lower", 0.1, "unresolved"),
             ([v * 1.3 for v in parent], "higher", 0.1, "better"),
             ([v * 1.3 for v in parent], "lower", None, "worse")]
    for change, better, bound, want in cases:
        got = compare.verdict(parent, change, list(zip(parent, change)), better, bound)
        check(got == want, f"compare verdict {want} ({better} is better, bound {bound})")


def main() -> int:
    manifest = (ROOT / "BENCHMARK.json").read_text()
    check(manifest == spec.manifest_text(), "BENCHMARK.json matches spec.py")
    verdicts()
    tiny_runs()
    corrupted_digest()
    bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
