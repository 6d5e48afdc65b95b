"""Every data file of ``metaring sweep`` against its recorded sha256.

``tests/data/sweep_sha256.json`` holds the hashes for two configs: the
shipped ``configs/default.json``, and a copy with ten times the cells and
2001 points on every sweep axis, so the CSV writer is covered on tables of
8 to 2001 rows, from a part of one block to two blocks.
Beside them it records the Python and numpy versions, the machine and
numpy's enabled CPU features.  Elsewhere libm and numpy's SIMD loops may
round differently, so the test skips and names the difference.

A change that moves bits on purpose rewrites the file with
``PYTHONPATH=src python tests/test_sweep_bytes.py``, which prints every
``config/file`` key whose hash changed, was added or was removed, and the
change says why in CHANGES.md.
"""

import hashlib
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from metaring.cli import run

ROOT = Path(__file__).resolve().parent.parent
DEFAULT = ROOT / "configs" / "default.json"
RECORD = Path(__file__).resolve().parent / "data" / "sweep_sha256.json"


def environment() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def configs() -> dict:
    raw = json.loads(DEFAULT.read_text())
    raw["device"]["ring"]["cell_count"] = 32000
    for axis in ("field", "pump", "detuning", "phase"):
        raw["sweep"][axis]["points"] = 2001
    return {"default": json.loads(DEFAULT.read_text()), "scaled": raw}


def sweep_hashes(work: Path) -> dict:
    """{"config/file": sha256} over every data file of a sweep of each config."""
    hashes = {}
    for name, raw in configs().items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(raw))
        shutil.copy(DEFAULT.parent / raw["fit"]["trace_csv"], work / raw["fit"]["trace_csv"])
        manifest = run("sweep", path, work / name)
        for output in manifest.output_paths:
            digest = hashlib.sha256((work / name / output).read_bytes()).hexdigest()
            hashes[f"{name}/{output}"] = digest
    return hashes


def test_sweep_data_files_match_recorded_hashes(tmp_path):
    record = json.loads(RECORD.read_text())
    here = environment()
    differences = []
    for key, value in record["environment"].items():
        if key == "cpu_features" and value != here[key]:
            only_there = sorted(set(value) - set(here[key]))
            only_here = sorted(set(here[key]) - set(value))
            differences.append(f"cpu_features recorded only {only_there}, here only {only_here}")
        elif value != here[key]:
            differences.append(f"{key} recorded {value!r}, here {here[key]!r}")
    if differences:
        pytest.skip("hashes recorded in another environment: " + "; ".join(differences))
    assert sweep_hashes(tmp_path) == record["sha256"]


def moved_keys(old: dict, new: dict) -> list:
    """One line per key of ``old`` or ``new`` whose hash moved."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"removed {key}")
        elif key not in old:
            lines.append(f"added {key}")
        elif old[key] != new[key]:
            lines.append(f"changed {key}")
    return lines


if __name__ == "__main__":
    old = json.loads(RECORD.read_text())["sha256"] if RECORD.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        record = {"environment": environment(), "sha256": sweep_hashes(Path(work))}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for line in moved_keys(old, record["sha256"]):
        print(line, file=sys.stderr)
    print(f"wrote {len(record['sha256'])} hashes to {RECORD}", file=sys.stderr)
