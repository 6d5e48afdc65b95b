"""The `metaring` console command with the per-layer tracer installed.

    PERFBENCH_TRACE_OUT=<file> python3 perfbench/traced_cli.py <metaring arguments>

Runs ``metaring.cli.main`` on the arguments and writes the layer totals of
this one process, its import time included, as JSON to the named file.
"""

import json
import os
import sys
import time
from pathlib import Path

start = time.perf_counter()
import metaring.cli  # noqa: E402  (numpy comes with it)

import_s = time.perf_counter() - start
sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    recorder = Tracer()
    recorder.install()
    code = metaring.cli.main(sys.argv[1:])
    totals = recorder.totals()
    totals["process.import_s"] = import_s
    Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps(totals))
    sys.exit(code)
