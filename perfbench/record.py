"""Record the output digests of every workload's golden ops.

    python3 perfbench/record.py

The golden ops are the workload's ops at the "tiny" scale and seed 0.  Run
this only on a commit whose outputs are known to be right: every run checks
its golden ops against the file this writes (perfbench/expected.json).
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ops  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    expected = {}
    workdir = ROOT / "perfbench" / "results" / ".record"
    try:
        for workload in spec.WORKLOADS:
            expected[workload] = {}
            spawner = ops.Spawner() if workload == "cli" else None
            try:
                golden = ops.build(workload, worker.GOLDEN_SEED, "tiny",
                                   workdir / workload, spawner)
                for op in golden:
                    outcome = op.check(op.run())
                    if outcome.problems:
                        print(f"{op.key}: {outcome.problems}", file=sys.stderr)
                        return 1
                    expected[workload][op.key] = outcome.digest
            finally:
                if spawner is not None:
                    spawner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = ROOT / "perfbench" / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, expected.values()))} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
