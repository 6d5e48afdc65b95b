"""perfbench's hooks and output checks still hold on the package.

``perfbench/tracer.py`` replaces ``cli.load_config``, the runners in
``cli._RUNNERS`` and public functions of the model modules by name, so a
rename there shows up here rather than only in a traced benchmark run.  The
wrappers stay installed for the whole process, so the sweep runs in a child.
The scaled sweep's output checks run here too, so an output they refuse
fails the suite before it fails the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import metaring.cli
from conftest import ROOT, perfbench_module

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
import metaring.cli

recorder = tracer.Tracer()
recorder.install()
metaring.cli.run("sweep", sys.argv[2], sys.argv[3])
print(json.dumps(recorder.totals()))
"""


def test_tracer_installs_and_sees_every_layer(tmp_path, default_config_path):
    env = dict(os.environ, PYTHONPATH=str(Path(metaring.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(default_config_path),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(proc.stdout.splitlines()[-1])
    runners = [f"cli.{name}_s" for name in metaring.cli._RUNNERS]
    assert all(totals[metric] > 0 for metric in ["config.load_s", *runners]), totals
    assert totals["fitting.model_evals"] >= 1


def test_scaled_sweep_passes_the_benchmark_checks(tmp_path):
    checks, inputs = perfbench_module("checks"), perfbench_module("inputs")
    cfg = inputs.scaled_config(ROOT / "configs" / "default.json",
                               ROOT / "configs" / "trace_s11.csv", seed=1)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(cfg))
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        metaring.cli.run("sweep", path, out)
    assert checks.check_sweep(first, cfg) == []
    assert checks.compare_digests(checks.digests(first), checks.digests(second), "rerun") == []
