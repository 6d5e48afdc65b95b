"""Compare and time two versions of the package's reflection fit side by side.

    python tools/fit_pairs.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds a ``metaring`` package tree;
both are loaded as separate packages in one process.  Both fit the shipped
trace ``configs/trace_s11.csv``, that trace times 2**-40 and times 1e-13
(the fit's scale invariance), and every trace of perfbench's ``fit_batch``
for seeds 1-3 (``perfbench/inputs.py``, read here and not changed).  Each
fit whose ``to_dict()``, residual history or refusal differs between the two
is printed, and the script exits 1 if any does.  Then 40 rounds fit seed 1's
batch through each version, in alternating order, and the output is each
side's median and quartiles in ms a batch, its median count of minor page
faults (``ru_minflt``) a batch, the change's wins and the ratio of the
medians.  The page faults show allocator work that perfbench's ``fit_batch``
does not see, because its worker runs a calibration kernel after each fit.
"""

import argparse
import importlib
import importlib.util
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
ROUNDS = 40


def load(src: Path, name: str):
    """The package tree ``src/metaring`` as a package named ``name``."""
    init = src / "metaring" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.fitting")


def outcome(fitting, freq, response) -> str:
    """The fit's ``to_dict()`` and residual history, or its refusal, as text
    that differs wherever a bit does."""
    try:
        result = fitting.fit_reflection_resonance(fitting.Trace(freq, response))
    except (ValueError, RuntimeError) as exc:
        return f"refused: {exc!r}"
    return repr((result.to_dict(), result.residual_history))


def batch_cost(fitting, traces: list) -> tuple:
    """(seconds, minor page faults) of fitting every trace once."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for trace in traces:
        try:
            fitting.fit_reflection_resonance(trace)
        except (ValueError, RuntimeError):
            pass
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's src directory")
    parser.add_argument("change", type=Path, help="the change's src directory")
    args = parser.parse_args()
    sides = {"parent": load(args.parent, "metaring_parent"),
             "change": load(args.change, "metaring_change")}
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    shipped = sides["parent"].Trace.from_csv(ROOT / "configs" / "trace_s11.csv")
    cases = [("shipped trace", shipped.frequency, shipped.response)]
    cases += [(f"shipped trace times {factor!r}", shipped.frequency, shipped.response * factor)
              for factor in (2.0 ** -40, 1e-13)]
    cases += [(f"seed {seed} {label}", freq, z)
              for seed in SEEDS for label, freq, z in inputs.fit_batch(seed)]
    moved = 0
    for label, freq, z in cases:
        parent, change = (outcome(fitting, freq, z) for fitting in sides.values())
        if parent != change:
            moved += 1
            print(f"{label}:\n  parent {parent}\n  change {change}")
    print(f"{moved} of {len(cases)} fits moved")

    times = {side: [] for side in sides}
    faults = {side: [] for side in sides}
    traces = {side: [fitting.Trace(freq, z) for _, freq, z in inputs.fit_batch(SEEDS[0])]
              for side, fitting in sides.items()}
    for side, fitting in sides.items():
        batch_cost(fitting, traces[side])  # warm-up
    for round_ in range(ROUNDS):
        order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
        for side in order:
            seconds, minflt = batch_cost(sides[side], traces[side])
            times[side].append(seconds)
            faults[side].append(minflt)
    parent, change = (np.array(times[side]) * 1e3 for side in sides)
    print(f"seed {SEEDS[0]}'s batch of {len(traces['parent'])} fits, {ROUNDS} rounds; "
          "ms a batch:")
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        print(f"  {side:6}  median {median:8.2f}  quartiles {q1:8.2f} {q3:8.2f}  "
              f"minor faults {np.median(faults[side]):8.0f}")
    wins = int(np.count_nonzero(change < parent))
    print(f"  change faster in {wins} of {ROUNDS} rounds; "
          f"median ratio {np.median(change) / np.median(parent):.3f}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
