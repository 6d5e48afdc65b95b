"""Benchmark of the metaring toolkit: one workload, one JSON line.

    python3 perfbench/run.py --workload {sweep_scaled,sweep_desk,fit_batch}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh interpreter
(worker.py) with BLAS pinned to one thread; a few more fresh interpreters
only set up, so that setup_s is a median.  The last line of standard output
is {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_scaled", "sweep_desk", "fit_batch")
SETUP_PROBES = 8        # plus the measuring worker's own set-up
WORKER_TIMEOUT_S = 150
# Multithreaded BLAS reorders the sums in the fit's normal equations, so the
# 6001-point fits would differ in their last bits with the thread count.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn(args, root: Path, work: Path, env: dict, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--work", str(work)]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    # the worker reads the same CLOCK_MONOTONIC to measure its set-up
    proc = subprocess.Popen(cmd + ["--t0", repr(time.monotonic())], env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args()

    root = Path.cwd()
    needed = (root / "src" / "metaring" / "__init__.py", root / "configs" / "default.json",
              root / "configs" / "trace_s11.csv", root / "BENCHMARK.json")
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a metaring checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = json.loads((root / "BENCHMARK.json").read_text())

    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    base = root / ".perfbench_run"
    work = base / f"{args.workload}-{os.getpid()}"
    try:
        setups = [spawn(args, root, work, env, True)["setup_s"]
                  for _ in range(1 if args.tiny else SETUP_PROBES)]
        result = spawn(args, root, work, env, False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups + [result["setup_s"]])
    # names and units come from BENCHMARK.json, so the two cannot drift apart
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
