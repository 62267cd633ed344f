"""Self-test of the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that the machine-independent per-layer work counters
(``layers.EXACT``) repeat exactly across two traced runs at a fixed seed
on ``ops-inline`` and ``recompile-stream``.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import EXACT  # noqa: E402

SEED = 7
WORKLOADS = ("ops-inline", "recompile-stream")


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run not correct: {result} {out.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        differing = {n: (first[n], second[n]) for n in EXACT if first[n] != second[n]}
        if differing:
            raise SystemExit(f"{workload}: work counters differ between runs: {differing}")
        print(f"{workload}: {len(EXACT)} work counters repeat exactly")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
