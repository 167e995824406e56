"""What the benchmark measures: workloads, metrics, units, directions, bounds.

`BENCHMARK.json` at the repository root is generated from this file:

    python3 perfbench/spec.py --write

and `perfbench/selfcheck.py` fails when the committed file drifts from it.
Metrics listed under `END_TO_END` and `PER_LAYER` are the ones every run of
every workload prints in its final JSON line; the other metrics below are
printed in the report lines and kept in the result files.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# name -> one-line reason the workload is in the benchmark
WORKLOADS = {
    "decode": "separate+combine round trips on dense, sparse and inhomogeneous paths;"
    " the decoding and encoding sweeps and the step table dominate",
    "evolve": "K steps of T, T_3, T_inf and Tnat on long paths; carrier sweeps and"
    " row_box_core dominate and separation is idle, the no-change case for decode work",
    "verify": "exhaustive verifiers plus thousands of short-path commutation checks;"
    " crystal enumeration and per-call overhead dominate",
    "cli": "one boxball process per op on seeded files; interpreter start, import,"
    " the full step table, rendering and JSON are paid on every op",
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# The time bounds are the largest allowed: on the 2-core x86 virtual machine
# the benchmark was tuned on, the host's speed drifts by up to 1.6x over
# minutes.  Op times are scaled by a reference loop (hostspeed.py), which
# brings ten-seed spreads of the op metrics to 1-13%.  setup_s, scaled
# the same way, spreads by up to 17%, and its median moved by up to 11%
# between sets of runs.  Peak memory spreads by up to 5%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

# Printed and compared, but not in BENCHMARK.json: fail_ratio is 0 on a
# correct program and elements_per_s exists for `verify` only.
REPORT_ONLY = [
    ("fail_ratio", "1", "lower", 0.0),
    ("elements_per_s", "elem/s", "higher", 0.25),
]

# Per-layer metrics measured in every workload's traced run.  The traced run
# prints many more (see tracing.py); these are the ones present everywhere.
PER_LAYER = [
    ("isomorphisms.col_box_core.ns_per_call", "ns", "lower"),
    ("isomorphisms.box_col_core.ns_per_call", "ns", "lower"),
    ("isomorphisms.row_box_core.ns_per_call", "ns", "lower"),
    ("isomorphisms.col_row_core.ns_per_call", "ns", "lower"),
    ("isomorphisms.row_col_core.ns_per_call", "ns", "lower"),
    ("isomorphisms.combinatorial_r.ns_per_call", "ns", "lower"),
    ("dynamics.decoding_pass.self_s", "s", "lower"),
    ("dynamics.decoding_pass.us_per_site", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def child_env() -> dict:
    """Environment of every process that imports boxball: the checkout's
    `src/` first on the path, and no domain-cap override."""
    env = dict(os.environ)
    env.pop("BBS_MAX_DOMAIN", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def metric_table() -> dict[str, tuple[str, str, float | None]]:
    """name -> (unit, better, bound) for every metric compare mode knows."""
    out = {n: (u, b, bound) for n, u, b, bound in END_TO_END + REPORT_ONLY}
    out.update({n: (u, b, None) for n, u, b in PER_LAYER})
    return out


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.stdout.write(manifest_text())
    else:
        (ROOT / "BENCHMARK.json").write_text(manifest_text())
