"""Self-test of the benchmark.

    python3 perfbench/selftest.py      (from the root of a checkout)

1. Runs every workload at a tiny size, untraced and traced, and checks that
   the result line is correct and names exactly the metrics of BENCHMARK.json.
2. Writes a tiny scaled sweep, shows that every output check passes on it,
   then corrupts one value at a time and shows that the check of that file
   rejects it.  The same is shown for the rerun digests and the fit check.
3. Shows that run.py refuses a directory that is not a checkout.

Exits 0 when every step passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402

WORK = ROOT / ".perfbench_run" / "selftest"
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_workloads(spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            expect(result.get("correct") is True and result.get("attempted", 0) >= 1
                   and set(result.get("metrics", {})) == names,
                   f"{workload} --trace {trace}: correct result with the listed metrics"
                   + ("" if result else f" ({proc.stderr.strip()[-300:]})"))


def edit_csv(path: Path, column: str, pick, change) -> None:
    """Replace one cell: in the first row j where pick(j, row) holds, v -> change(v)."""
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    col = names.index(column)
    for j, line in enumerate(rows):
        cells = line.split(",")
        row = dict(zip(names, cells))
        if pick(j, row):
            cells[col] = change(cells[col])
            rows[j] = ",".join(cells)
            path.write_text("\n".join([header] + rows) + "\n")
            return
    raise LookupError(f"{path.name}: no row to corrupt")


def scale(factor: float):
    return lambda v: repr(float(v) * factor)


def shift(delta: float):
    return lambda v: repr(float(v) + delta)


def row_index(k: int):
    return lambda j, row: j == k


def bifurcated(j: int, row: dict) -> bool:
    return row["bifurcated"] == "true"


# (file, column, row picker, change): each a single perturbed value
CORRUPTIONS = (
    ("modes.csv", "f_hz", row_index(3), scale(1 + 1e-9)),
    ("modes.csv", "m", row_index(0), shift(1)),
    ("fsr_curve.csv", "f_hz", row_index(2), shift(5.0)),
    ("fsr_curve.csv", "fsr_hz", row_index(4), shift(5.0)),
    ("mismatch.csv", "delta_f_hz", row_index(1), shift(1.0)),
    ("tuning.csv", "df_over_f", row_index(5), scale(1 + 1e-9)),
    ("tuning.csv", "c3", row_index(inputs.TINY_POINTS - 1), scale(1.01)),
    ("tuning.csv", "c4", row_index(7), scale(1.001)),
    ("pump.csv", "r2", row_index(7), shift(1e-9)),
    ("spectrum.csv", "t2", row_index(4), scale(1 + 1e-9)),
    ("fringe.csv", "p_ratio", row_index(10), shift(1e-6)),
    ("saturation.csv", "n_mid", bifurcated, scale(1 + 1e-6)),
    ("saturation.csv", "n_high", bifurcated, lambda v: ""),
    ("saturation.csv", "n_low", lambda j, row: row["n_low"] != "", scale(1 + 1e-6)),
)


def corrupt_outputs() -> None:
    import metaring.cli

    cfg = inputs.scaled_config(ROOT / "configs" / "default.json",
                               ROOT / "configs" / "trace_s11.csv", 5, tiny=True)
    cfg_path = WORK / "scaled.json"
    cfg_path.write_text(json.dumps(cfg))
    base = WORK / "base"
    metaring.cli.run("sweep", cfg_path, base)
    expect(checks.check_sweep(base, cfg) == [], "tiny sweep passes every output check")

    for name, column, pick, change in CORRUPTIONS:
        bad = WORK / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(base, bad)
        edit_csv(bad / name, column, pick, change)
        problems = checks.SWEEP_CHECKS[name](bad, cfg)
        expect(bool(problems), f"{name}: one corrupted {column} value is rejected"
               + (f" ({problems[0]})" if problems else ""))

    first = checks.digests(base)
    bad = WORK / "bad"
    (bad / "pairs.csv").write_text((base / "pairs.csv").read_text().replace("0.9", "0.8", 1))
    expect(bool(checks.compare_digests(first, checks.digests(bad), "rerun")),
           "a rerun whose pairs.csv differs is rejected")

    truth = {"f0": inputs.F0, "q_in": inputs.Q_IN, "q_ex": inputs.Q_EX}
    off = dict(truth, q_in=inputs.Q_IN * 1.02)
    expect(checks.check_fit("exact", truth, truth) == [], "exact fit parameters pass")
    expect(bool(checks.check_fit("off", off, truth)), "a Q_in 2 % off is rejected")


def bare_directory(spec_path: Path) -> None:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec_path, bare / spec_path.name)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fit_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "a directory without the program is refused")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        run_workloads(spec)
        corrupt_outputs()
        bare_directory(spec_path)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
