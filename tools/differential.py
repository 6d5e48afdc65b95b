"""Compare the ``metaring validate`` answers of two package trees on seeded configs.

    python tools/differential.py PARENT_SRC CHANGE_SRC --seed S --count N

Each tree argument is a ``src`` directory that holds a ``metaring`` package
tree.  Config k of a seed is ``configs/default.json`` plus literal edits of
its microloop and field leaves, drawn by ``edits`` from the distributions
below, so the same seed and count give the same configs on any machine.
Each tree validates every config in one child process with ``PYTHONPATH``
set to the tree, through ``metaring.cli.main(["validate", ...])``; an
answer is the exit code and the standard error, or the exception that
escaped ``main`` (exit 1).  Each config whose answer differs between the
trees is printed with its edits and both answers, then a count of the moves
by exit code.  The script exits 1 if any answer moved.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT = ROOT / "configs" / "default.json"

# The distributions of the edits.  i_star_wide is log-uniform over a range
# whose low end puts the mixing coefficients past the float range, and
# inductance_wide log-uniform around the shipped 1.425 nH.  width_ratio is 1
# a quarter of the time, 1 - 10^-u with u uniform a quarter of the time, and
# log-uniform down to 1e-3 otherwise.  The narrow wire follows width_ratio
# exactly, or, one time in eight, is off by a relative d up to twice the
# 1e-12 the loop's check allows.  The field stop drives c times the lower i*,
# negative a quarter of the time: c is 1 - 10^-u or 1 + 10^-u (at the bound
# and past it) a quarter of the time each, and log-uniform otherwise.  The
# axis has 0 or 1 point one time in eight each, and 10^v points, v uniform,
# otherwise.
I_STAR_WIDE_LOG10 = (-170.0, -1.0)
INDUCTANCE_WIDE_LOG10 = (-12.0, -6.0)
WIDTH_RATIO_LOG10 = (-3.0, 0.0)
NEAR_ONE_LOG10 = (-15.0, -1.0)
NARROW_OFFSET = 2e-12
STOP_FRACTION_LOG10 = (-6.0, 0.0)
NEAR_BOUND_LOG10 = (-14.0, 0.0)
POINTS_LOG10 = (0.0, 4.0)

CHILD = """
import io, json, sys
from contextlib import redirect_stderr
from metaring.cli import main
answers = []
for path in json.loads(sys.stdin.read()):
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            code = main(["validate", "--config", path])
    except Exception as exc:  # an answer too: validate crashed
        code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
    answers.append([code, err.getvalue()])
print(json.dumps(answers))
"""


def edits(rng: np.random.Generator, loop: dict) -> dict:
    """Literal edits of the shipped config, as {"json.path": value}."""
    def log_uniform(bounds):
        return float(10.0 ** rng.uniform(*bounds))

    i_star_wide = log_uniform(I_STAR_WIDE_LOG10)
    inductance_wide = log_uniform(INDUCTANCE_WIDE_LOG10)
    kind = rng.integers(4)
    width_ratio = (1.0 if kind == 0
                   else 1.0 - log_uniform(NEAR_ONE_LOG10) if kind == 1
                   else log_uniform(WIDTH_RATIO_LOG10))
    offset = NARROW_OFFSET * rng.uniform(-1.0, 1.0) if rng.integers(8) == 0 else 0.0
    i_star_narrow = width_ratio * i_star_wide * (1.0 + offset)
    kind = rng.integers(4)
    fraction = (1.0 - log_uniform(NEAR_BOUND_LOG10) if kind == 0
                else 1.0 + log_uniform(NEAR_BOUND_LOG10) if kind == 1
                else log_uniform(STOP_FRACTION_LOG10))
    sign = -1.0 if rng.integers(4) == 0 else 1.0
    stop_t = (sign * fraction * min(i_star_narrow, i_star_wide)
              * loop["loop_dc_inductance"] / loop["gap"])
    kind = rng.integers(8)
    points = int(kind) if kind < 2 else int(10.0 ** rng.uniform(*POINTS_LOG10))
    return {
        "device.microloop.width_ratio": width_ratio,
        "device.microloop.inductance_wide": inductance_wide,
        "device.microloop.inductance_narrow": inductance_wide / width_ratio,
        "device.microloop.i_star_wide": i_star_wide,
        "device.microloop.i_star_narrow": i_star_narrow,
        "sweep.field.stop_mT": stop_t * 1e3,
        "sweep.field.points": points,
    }


def edited(raw: dict, changes: dict) -> dict:
    config = json.loads(json.dumps(raw))
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        node = config
        for key in parents:
            node = node[key]
        node[leaf] = value
    config["fit"]["trace_csv"] = str(DEFAULT.parent / raw["fit"]["trace_csv"])
    return config


def answers(trees: dict, paths: list) -> dict:
    """Each tree's answers to every config, from one child process a tree."""
    children = {}
    for side, src in trees.items():
        env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
        children[side] = subprocess.Popen(
            [sys.executable, "-c", CHILD], env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    results = {}
    for side, child in children.items():
        out, err = child.communicate(json.dumps(paths))
        if child.returncode != 0:
            raise SystemExit(f"{side} tree's child failed:\n{err}")
        results[side] = [tuple(answer) for answer in json.loads(out)]
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's src directory")
    parser.add_argument("change", type=Path, help="the change's src directory")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    raw = json.loads(DEFAULT.read_text())
    rng = np.random.default_rng(args.seed)
    cases = [edits(rng, raw["device"]["microloop"]) for _ in range(args.count)]
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for k, changes in enumerate(cases):
            path = Path(work) / f"config_{k}.json"
            path.write_text(json.dumps(edited(raw, changes)))
            paths.append(str(path))
        results = answers({"parent": args.parent, "change": args.change}, paths)
    moves = Counter()
    for k, changes in enumerate(cases):
        parent, change = results["parent"][k], results["change"][k]
        if parent != change:
            moves[f"exit {parent[0]} -> {change[0]}"] += 1
            print(f"config {k} {json.dumps(changes)}")
            for side, (code, err) in (("parent", parent), ("change", change)):
                print(f"  {side}: exit {code}" + "".join(f"\n    {line}"
                                                        for line in err.splitlines()))
    print(f"{sum(moves.values())} of {len(cases)} answers moved"
          + "".join(f"; {move}: {count}" for move, count in sorted(moves.items())))
    return 1 if moves else 0


if __name__ == "__main__":
    sys.exit(main())
