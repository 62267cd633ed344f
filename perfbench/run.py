"""End-to-end compile benchmark of the AMOS reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ops-inline --seed 1 --seconds 30 --trace 0

Runs one workload (see ``perfbench/NOTES.md``) in a child process under
a deadline, prints every metric by name with its unit and sample count,
and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, taken from traced passes
that alternate with untraced ones.  ``BENCHMARK.json`` at the root of
the checkout names the metrics of each kind and their units.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import WORKLOADS  # noqa: E402

#: Set-up is timed this many times in separate processes, plus once in
#: the measuring process; the median is reported.
SETUP_PROBES = 4

#: Wall-clock budget of one run, set-up probes included.  A run past it
#: is killed with every process it started and counted as failed.
DEADLINE_S = 165.0

MARK = "@perfbench "


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Child:
    """A ``workload.py`` process whose ``@perfbench`` lines are read by a
    thread, so the parent can wait on them with a deadline."""

    def __init__(self, argv: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(MARK):
                self.lines.put(json.loads(line[len(MARK):]))
            else:
                sys.stderr.write(line)
        self.lines.put(None)

    def next(self, deadline: float):
        """The next message, None at end of output; raises TimeoutError
        when the deadline passes first."""
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError
        try:
            return self.lines.get(timeout=remaining)
        except queue.Empty:
            raise TimeoutError from None

    def stop(self) -> None:
        """Kill the child's whole process group (pool workers included)
        if anything is left of it, and reap the child."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.reader.join(timeout=5)


def time_setup(argv: list[str], deadline: float) -> float:
    """Seconds from starting a probe process to its ``ready`` line."""
    child = Child(argv + ["--probe"])
    try:
        message = child.next(deadline)
        if message is None or message["type"] != "ready":
            raise RuntimeError("set-up probe ended without becoming ready")
        return time.perf_counter() - child.started
    finally:
        child.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources (src/repro) are missing under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    # A terminated run still unwinds, so the workload's process group
    # is killed on the way out instead of being orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + DEADLINE_S
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    argv = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    passes, done, timed_out = [], None, False
    try:
        setup = [time_setup(argv, deadline) for _ in range(SETUP_PROBES)]
        child = Child(argv)
        try:
            while True:
                message = child.next(deadline)
                if message is None:
                    break
                if message["type"] == "ready":
                    setup.append(time.perf_counter() - child.started)
                elif message["type"] == "pass":
                    passes.append(message)
                elif message["type"] == "done":
                    done = message
        except TimeoutError:
            timed_out = True
        finally:
            child.stop()
    except (RuntimeError, TimeoutError) as exc:
        print(f"perfbench: set-up failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    requests = [ms for p in untraced for ms in p["requests_ms"]]
    attempted = sum(len(p["requests_ms"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors: list[str] = []
    if done is not None:
        attempted, failed, errors = done["attempted"], done["failed"], done["errors"]
    else:
        # Killed at the deadline or crashed: the run as a whole failed.
        attempted = max(attempted, 1)
        failed = attempted
        errors = ["run exceeded its deadline" if timed_out else f"workload exited with code {child.proc.returncode}"]

    walls = [p["wall_s"] for p in untraced] or [DEADLINE_S]
    samples = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), len(walls)),
        "request_p50_ms": (statistics.median(requests) if requests else walls[0] * 1e3, len(requests)),
        "request_p90_ms": (percentile(requests, 0.9) if requests else walls[0] * 1e3, len(requests)),
        "kernel_us_geomean": (done["kernel_us_geomean"] if done else 0.0, done["distinct_requests"] if done else 0),
        "peak_rss_mb": (done["peak_rss_mb"] if done else 0.0, 1),
    }
    print(f"perfbench {args.workload} seed={args.seed}")
    for p in passes:
        kind = "traced" if p["traced"] else "timed"
        print(f"  {kind} pass: wall_s={p['wall_s']:.4f} requests={len(p['requests_ms'])} failed={p['failed']}")
    print(f"{'metric':34} {'value':>14} {'unit':10} {'n':>6}")
    for name, unit in end_to_end:
        value, n = samples[name]
        print(f"{name:34} {value:14.6g} {unit:10} {n:6d}")
    print(f"{'error_rate':34} {failed / attempted:14.6g} {'ratio':10} {attempted:6d}")
    for error in errors:
        print(f"perfbench: failure: {error}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name, unit in per_layer:
            if not traced:
                value = 0.0
            elif name == "trace.overhead_ratio":
                value = statistics.median(p["wall_s"] for p in traced) / statistics.median(walls) - 1.0
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:34} {value:14.6g} {unit:10} {len(traced):6d}")
    else:
        metrics = {name: {"value": samples[name][0], "unit": unit} for name, unit in end_to_end}
    result = {"correct": done is not None and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
