"""Time two versions of ``metaring._csv`` side by side on the benchmark's tables.

    PYTHONPATH=src python tools/csv_pairs.py PARENT_CSV_PY CHANGE_CSV_PY

Both files are loaded as separate modules in one process.  The CSV tables
of perfbench's seed-1 scaled sweep (``perfbench/inputs.py``, read here and
not changed) are planned once through the package on ``PYTHONPATH``.  Each
of 40 rounds then writes all of them through each version, in alternating order,
into new files (opening an existing file to overwrite it costs more on some
file systems), takes each side's time as the best of 3 writes, and asserts
that both versions wrote the same bytes.  It times the serial kernel: every
table in this one process, through one workspace, as a run below
``cli._FORK_CELLS`` float cells, or on one CPU, writes them; a run as large
as this one writes its tables in two processes where it may use two CPUs.
The output is each side's median and quartiles in ms, the change's wins and
the ratio of the medians.
"""

import argparse
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ROUNDS = 40


def load(path: Path, name: str):
    """The Python file at ``path`` as a module named ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scaled_tables(scratch: Path) -> list:
    """[(file name, header, columns)] of every CSV of the seed-1 scaled sweep."""
    from metaring import cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    config = scratch / "scaled.json"
    config.write_text(json.dumps(inputs.scaled_config(
        ROOT / "configs" / "default.json", ROOT / "configs" / "trace_s11.csv", SEED)))
    outputs = cli.plan(cli.load_config(config))
    return [(name, *content) for files in outputs.values() for name, content in files
            if name.endswith(".csv")]


def write_all(module, tables: list, out: Path) -> float:
    """Seconds to write every table into new files in ``out`` through one
    fresh workspace, in this one process."""
    for name, *_ in tables:
        (out / name).unlink(missing_ok=True)
    start = time.perf_counter()
    work = module.Workspace()
    for name, header, columns in tables:
        module.write_csv(out / name, header, columns, work)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's _csv.py")
    parser.add_argument("change", type=Path, help="the change's _csv.py")
    args = parser.parse_args()
    sides = {"parent": load(args.parent, "csv_parent"), "change": load(args.change, "csv_change")}
    times = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        tables = scaled_tables(scratch)
        for side in sides:
            (scratch / side).mkdir()
            write_all(sides[side], tables, scratch / side)  # warm-up
        for round_ in range(ROUNDS):
            order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
            for side in order:
                times[side].append(min(write_all(sides[side], tables, scratch / side)
                                       for _ in range(3)))
            for name, *_ in tables:
                written = {(scratch / side / name).read_bytes() for side in sides}
                if len(written) != 1:
                    raise SystemExit(f"round {round_}: the versions wrote different {name}")
    parent, change = (np.array(times[side]) * 1e3 for side in sides)
    print(f"{len(tables)} tables, {ROUNDS} rounds, each the best of 3 writes; ms:")
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        print(f"  {side:6}  median {median:7.3f}  quartiles {q1:7.3f} {q3:7.3f}")
    wins = int(np.count_nonzero(change < parent))
    print(f"  change faster in {wins} of {ROUNDS} rounds; "
          f"median ratio {np.median(change) / np.median(parent):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
