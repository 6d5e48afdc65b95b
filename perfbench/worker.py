"""One benchmark workload in a fresh interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS pinned
to one thread.  It imports the package, builds the workload's inputs, runs
the fixed operation list, checks every output and prints one JSON line.
With ``--trace 1`` it runs the list twice, untraced and then traced, and
reports the per-layer totals of the traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# what the installed `metaring` console script executes
CONSOLE = "import sys; from metaring.cli import main; sys.exit(main())"
DESK_TIMEOUT_S = 60
# Seconds one round takes on the reference machine (2 CPUs).  The round count
# follows from --seconds alone, so every run of one length does the same work.
ROUND_S = {"sweep_scaled": 1.8, "sweep_desk": 0.5, "fit_batch": 7.3}
TINY_ROUNDS = 2
# calibration kernels timed after set-up and after every operation (about a
# tenth of the run)
SETUP_KERNELS = 8
KERNELS_PER_OP = {"sweep_scaled": 8, "sweep_desk": 3, "fit_batch": 1}
OP_ERRORS = (ValueError, RuntimeError, OSError)


class Sweep:
    """One sweep per round; the first output is checked, later ones compared to it."""

    ops_per_round = 1

    def __init__(self, cfg: dict, cfg_path: Path, work: Path):
        from metaring.config import load_config

        load_config(cfg_path)
        self.cfg, self.cfg_path, self.work = cfg, cfg_path, work
        self.first = None
        self.output_bytes = 0

    def verify(self, i: int) -> list:
        import checks

        out = self.work / f"op{i}"
        try:
            if not out.is_dir():
                return []
            if self.first is None:
                problems = checks.check_sweep(out, self.cfg)
                self.first = checks.digests(out)
                self.output_bytes = sum((out / n).stat().st_size for n in self.first)
                return problems
            return checks.compare_digests(self.first, checks.digests(out), f"operation {i}")
        finally:
            shutil.rmtree(out, ignore_errors=True)


class SweepScaled(Sweep):
    """In-process metaring.cli.run("sweep") on the scaled config."""

    def __init__(self, args, root: Path, work: Path):
        import inputs

        cfg = inputs.scaled_config(root / "configs" / "default.json",
                                   root / "configs" / "trace_s11.csv", args.seed, args.tiny)
        cfg_path = work / "scaled.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))
        super().__init__(cfg, cfg_path, work)

    def run_op(self, i: int, traced: bool):
        import metaring.cli

        start = time.perf_counter()
        try:
            metaring.cli.run("sweep", self.cfg_path, self.work / f"op{i}")
            failed = False
        except OP_ERRORS as exc:
            print(f"operation {i}: {exc!r}", file=sys.stderr)
            failed = True
        return time.perf_counter() - start, failed


class SweepDesk(Sweep):
    """`metaring sweep --config configs/default.json` as a subprocess."""

    def __init__(self, args, root: Path, work: Path):
        cfg_path = root / "configs" / "default.json"
        super().__init__(json.loads(cfg_path.read_text()), cfg_path, work)
        self.children = []  # layer totals written by each traced child

    def run_op(self, i: int, traced: bool):
        env = dict(os.environ)
        if traced:
            trace_file = self.work / f"trace{i}.json"
            env["PERFBENCH_TRACE_OUT"] = str(trace_file)
            cmd = [sys.executable, str(HERE / "traced_cli.py")]
        else:
            cmd = [sys.executable, "-c", CONSOLE]
        cmd += ["sweep", "--config", str(self.cfg_path), "--out", str(self.work / f"op{i}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=DESK_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(f"operation {i}: exit code {proc.returncode}", file=sys.stderr)
        elif traced:
            self.children.append(json.loads(trace_file.read_text()))
        return elapsed, proc.returncode != 0


class FitBatch:
    """metaring.fitting.fit_reflection_resonance on the seeded trace batch."""

    output_bytes = 0

    def __init__(self, args, root: Path, work: Path):
        import inputs
        from metaring.fitting import Trace

        self.batch = [(label, Trace(frequency=freq, response=z))
                      for label, freq, z in inputs.fit_batch(args.seed, args.tiny)]
        self.truth = {"f0": inputs.F0, "q_in": inputs.Q_IN, "q_ex": inputs.Q_EX}
        self.ops_per_round = len(self.batch)
        self.results = {}
        self.last = None

    def run_op(self, i: int, traced: bool):
        import metaring.fitting

        label, trace = self.batch[i % len(self.batch)]
        start = time.perf_counter()
        try:
            self.last = metaring.fitting.fit_reflection_resonance(trace)
        except OP_ERRORS as exc:
            print(f"fit {label}: {exc!r}", file=sys.stderr)
            self.last = None
        elapsed = time.perf_counter() - start
        # a fit that stops without converging is the known stop-rule fault
        return elapsed, self.last is None or not self.last.converged

    def verify(self, i: int) -> list:
        import checks

        label = self.batch[i % len(self.batch)][0]
        if self.last is None:
            return []
        params = {k: repr(v) for k, v in self.last.parameters.items()}
        if self.results.setdefault(label, params) != params:
            return [f"fit {label}: parameters differ between rounds"]
        return checks.check_fit(label, self.last.parameters, self.truth)


WORKLOADS = {"sweep_scaled": SweepScaled, "sweep_desk": SweepDesk, "fit_batch": FitBatch}


def run_pass(workload, n_ops: int, traced: bool, offset: int, calibration, kernels: int):
    """Run the operation list once; op times come back at the reference speed."""
    measured, failed, problems = [], 0, []
    for i in range(offset, offset + n_ops):
        elapsed, bad = workload.run_op(i, traced)
        measured.append((elapsed, len(calibration.samples)))
        calibration.measure(kernels)
        failed += bad
        problems += workload.verify(i)
    times = [calibration.to_reference(elapsed, at) for elapsed, at in measured]
    return times, failed, problems


def peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import metaring  # noqa: F401  (numpy comes with it)
    import metaring.cli  # noqa: F401
    import_s = time.perf_counter() - start
    sys.path.insert(0, str(HERE))
    from calibrate import NOMINAL_S, Calibration

    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args, args.root, args.work)
    # CLOCK_MONOTONIC is shared by all processes of the machine
    setup_s = time.monotonic() - args.t0
    calibration = Calibration()
    calibration.measure(SETUP_KERNELS)
    setup_s = calibration.to_reference(setup_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = TINY_ROUNDS if args.tiny else max(1, int(args.seconds / ROUND_S[args.workload]))
    n_ops = rounds * workload.ops_per_round
    kernels = KERNELS_PER_OP[args.workload]
    times, failed, problems = run_pass(workload, n_ops, False, 0, calibration, kernels)
    result = {"setup_s": setup_s, "attempted": n_ops, "failed": failed, "problems": problems}
    if not args.trace:
        result["metrics"] = {
            "op_s_p50": statistics.median(times),
            "ops_per_s": n_ops / sum(times),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        import tracer

        recorder = tracer.Tracer()
        desk = isinstance(workload, SweepDesk)
        if not desk:
            recorder.install()
        traced_times, traced_failed, traced_problems = run_pass(
            workload, n_ops, True, n_ops, calibration, kernels)
        totals = recorder.totals()
        if desk:
            # each desk child traces itself (traced_cli.py) and times its own import
            for child in workload.children:
                for key, value in child.items():
                    totals[key] += value
            import_s = statistics.median(c["process.import_s"] for c in workload.children)
        # counts repeat exactly from round to round, so they divide evenly
        layers = {key: value // rounds if isinstance(value, int) and value % rounds == 0
                  else value / rounds for key, value in totals.items()}
        layers["process.import_s"] = import_s
        layers["cli.output_bytes"] = workload.output_bytes
        layers = {key: calibration.to_reference(value) if key.endswith("_s") else value
                  for key, value in layers.items()}
        layers["trace.overhead_s"] = (sum(traced_times) - sum(times)) / rounds
        result.update(attempted=2 * n_ops, failed=failed + traced_failed,
                      problems=problems + traced_problems, metrics=layers)
    print(f"perfbench: calibration kernel median {statistics.median(calibration.samples):.6f} s"
          f" against {NOMINAL_S} s; times are reported at that reference speed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
