"""Benchmark entry point: set-up probes, one measured worker, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a discdet checkout; no install is needed, the worker
puts ``src`` on its path.  The workloads and metrics are declared in
``BENCHMARK.json``; ``perfbench/README.md`` explains them.

setup_s is the time from starting a fresh worker interpreter to its READY
line (interpreter start, imports, input generation).  An untraced run sets
up SETUPS times, once for the measured worker and SETUPS - 1 times for
workers that stop at READY, and reports the median rescaled to the
reference speed of ``refspeed``: seconds times KERNEL_REF_S over the
measured run's median kernel time.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from refspeed import KERNEL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7
DEADLINE_S = 175  # a run must end within 180 s


def start_worker(args, setup_only):
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # A session of its own lets a timeout stop the worker and anything it starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    ready = proc.stdout.readline().strip() == "READY"
    return proc, time.perf_counter() - start, ready


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    began = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src/discdet/__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a discdet checkout (it needs src/discdet and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    setups = []
    for _ in range(0 if args.trace else SETUPS - 1):  # traced runs report no setup_s
        proc, took, ready = start_worker(args, setup_only=True)
        proc.communicate()
        if not ready or proc.returncode != 0:
            print("perfbench: worker set-up failed", file=sys.stderr)
            return 1
        setups.append(took)
    proc, took, ready = start_worker(args, setup_only=False)
    setups.append(took)
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - began)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: worker ran past the deadline", file=sys.stderr)
        return 1
    if not ready or proc.returncode != 0 or not out.strip():
        print(f"perfbench: worker failed (exit {proc.returncode})", file=sys.stderr)
        return 1

    result = json.loads(out.strip().splitlines()[-1])
    measured = result["metrics"]
    if not args.trace:
        kernel_s = measured["kernel_s"]
        print(f"perfbench: set-ups {[round(s, 4) for s in setups]} s, median kernel "
              f"{kernel_s * 1e3:.4f} ms", file=sys.stderr)
        measured["setup_s"] = median(setups) * KERNEL_REF_S / kernel_s
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
