"""Per-layer spans and counters recorded from outside the package.

``install()`` replaces public functions of each ``metaring`` module with
wrappers that time the call (a span) or only count it.  Spans nest through a
stack, so a runner's self time is its duration minus the time of the traced
calls made directly inside it.  Everything is kept in memory and read once
at the end through ``Tracer.totals()``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute, metric): timed calls and counted calls
SPANS = (
    ("modes", "free_spectral_range", "modes.fsr_s"),
    ("dispersion", "fsr_curve", "dispersion.fsr_curve_s"),
    ("dispersion", "idc_enhancement_sweep", "dispersion.enhancement_s"),
    ("tuning", "nonlinearity_report", "tuning.report_s"),
    ("conversion", "kerr_steady_state", "conversion.kerr_s"),
    ("conversion", "scattering", "conversion.scattering_s"),
    ("conversion", "conversion_spectrum", "conversion.spectrum_s"),
)
COUNTS = (
    ("dispersion", "solve_mode_frequency", "dispersion.solve_calls"),
    ("dispersion", "cell_trace", "dispersion.trace_evals"),
    ("tuning", "loop_energy", "tuning.energy_evals"),
    ("conversion", "kerr_steady_state", "conversion.kerr_calls"),
    ("conversion", "scattering", "conversion.scattering_calls"),
    ("fitting", "reflection_s11", "fitting.model_evals"),
)
RUNNERS = ("modes", "dispersion", "tune", "convert", "fringe", "saturate", "fit")

TIME_METRICS = (
    ["process.import_s", "config.load_s"]
    + [f"cli.{name}_s" for name in RUNNERS]
    + ["cli.self_s"]
    + [metric for _, _, metric in SPANS]
    + ["fitting.fit_s", "fitting.csv_read_s"]
)
COUNT_METRICS = (
    ["cli.output_bytes"]
    + [metric for _, _, metric in COUNTS]
    + ["fitting.accepted_steps", "fitting.converged"]
)


class Tracer:
    def __init__(self) -> None:
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # time spent in traced children of each open span

    def span(self, metric: str, fn, self_metric: str = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                self.seconds[metric] += elapsed
                if self_metric:
                    self.seconds[self_metric] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed
        return wrapper

    def counter(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def fit_span(self, fn):
        timed = self.span("fitting.fit_s", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.counts["fitting.accepted_steps"] += len(result.residual_history) - 1
            self.counts["fitting.converged"] += int(result.converged)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer; lasts for the process."""
        import metaring.cli as cli
        from metaring import conversion, dispersion, fitting, modes, tuning

        layers = {"modes": modes, "dispersion": dispersion, "tuning": tuning,
                  "conversion": conversion, "fitting": fitting}
        # counters sit innermost, so a counted call that is also timed is
        # counted once and timed once
        for module, attr, metric in COUNTS:
            setattr(layers[module], attr, self.counter(metric, getattr(layers[module], attr)))
        for module, attr, metric in SPANS:
            setattr(layers[module], attr, self.span(metric, getattr(layers[module], attr)))
        fitting.fit_reflection_resonance = self.fit_span(fitting.fit_reflection_resonance)
        read = fitting.Trace.__dict__["from_csv"].__func__
        fitting.Trace.from_csv = classmethod(self.span("fitting.csv_read_s", read))
        cli.load_config = self.span("config.load_s", cli.load_config)
        for name in RUNNERS:
            cli._RUNNERS[name] = self.span(f"cli.{name}_s", cli._RUNNERS[name], "cli.self_s")

    def totals(self) -> dict:
        out = {metric: self.seconds.get(metric, 0.0) for metric in TIME_METRICS}
        out.update({metric: self.counts.get(metric, 0) for metric in COUNT_METRICS})
        return out
