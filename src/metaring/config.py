"""JSON configuration: schema, unit normalization, validation, loading.

Configs are plain JSON in SI units.  Three convenience suffixes are
accepted and converted on load: ``*_mT`` (millitesla, becomes ``*_T``),
``*_dBm`` (becomes ``*_W``) and ``*_dB`` (a power ratio in decibels, becomes
the linear ratio under the key without the suffix).  Everything else,
including ``*_hz`` keys, is already SI.

``_SCHEMA`` mirrors the JSON.  ``_walk`` checks each leaf's kind, fills in
defaults, reports every key the schema does not name and builds each section
with its constructor, which checks the section's physical bounds.

``load_config`` raises :class:`ConfigError` carrying one
``"json.path: message"`` violation per problem; ``validate_config`` returns
the same list without raising.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .conversion import ConverterParams, watts_from_dbm
from .core import MicroloopSpec, RingSpec, SegmentParams
from .dispersion import UnitCell
from .errors import ConfigError

# sweeps allocate their whole axis at once; far above any real sweep, this
# catches a typo before it exhausts memory
_MAX_SWEEP_POINTS = 1_000_000

_UNIT_SUFFIXES = {
    "mT": ("T", lambda v: v * 1e-3),
    "dBm": ("W", watts_from_dbm),
    "dB": ("", lambda v: 10.0 ** (v / 10.0)),
}


def _is_finite(value) -> bool:
    """A JSON number in the float range; not true/false, NaN or an infinity."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def normalize_units(node):
    """Recursively convert suffixed keys to their SI equivalents."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            base = key
            converted = value
            for suffix, (target, fn) in _UNIT_SUFFIXES.items():
                if key.endswith("_" + suffix):
                    stem = key[: -(len(suffix) + 1)]
                    base = f"{stem}_{target}" if target else stem
                    if _is_finite(value):
                        converted = fn(float(value))
                    elif isinstance(value, list) and all(map(_is_finite, value)):
                        converted = [fn(float(v)) for v in value]
                    break
            out[base] = normalize_units(converted)
        return out
    if isinstance(node, list):
        return [normalize_units(item) for item in node]
    return node


@dataclass(frozen=True)
class KerrScenario:
    """Mode used for the saturation sweep: linewidth from f/Q."""

    rate_hz: float
    quality_factor: float
    coupling_efficiency: float
    frequency_hz: float

    def __post_init__(self) -> None:
        if min(self.rate_hz, self.quality_factor, self.frequency_hz) <= 0:
            raise ValueError("kerr rate, quality factor and frequency must be positive")
        if not (0.0 < self.coupling_efficiency <= 1.0):
            raise ValueError("coupling_efficiency must lie in (0, 1]")

    @property
    def kappa(self) -> float:
        return self.frequency_hz / self.quality_factor

    @property
    def kappa_ex(self) -> float:
        return self.coupling_efficiency * self.kappa


@dataclass(frozen=True)
class FringeScenario:
    cooperativity: float
    eta_s: float
    eta_i: float

    def __post_init__(self) -> None:
        if self.cooperativity < 0:
            raise ValueError("cooperativity must be non-negative")
        for eta in (self.eta_s, self.eta_i):
            if not (0.0 <= eta <= 1.0):
                raise ValueError("fringe eta values must lie in [0, 1]")


@dataclass(frozen=True)
class Config:
    """Validated configuration with constructed domain objects."""

    ring: RingSpec
    microloop: MicroloopSpec
    cell: UnitCell
    converter: ConverterParams
    kerr: KerrScenario
    fringe: FringeScenario
    pairs: Tuple[Tuple[float, float], ...]
    sweeps: Dict[str, dict]
    fit_trace: Optional[Path]
    config_hash: str


def _hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _kind(noun: str, test: Callable, convert: Callable = lambda value: value) -> Callable:
    """A leaf kind: the converted value, or ``ValueError("must be <noun>, ...")``."""
    def check(value):
        if not test(value):
            raise ValueError(f"must be {noun}, got {value!r}")
        return convert(value)
    return check


def _is_pair(pair) -> bool:
    return (isinstance(pair, list) and len(pair) == 2
            and all(_is_finite(v) and 0.0 <= v <= 1.0 for v in pair))


_number = _kind("a finite number", _is_finite)
_number_or_null = _kind("a finite number or null", lambda v: v is None or _is_finite(v))
_integer = _kind("an integer", lambda v: _is_finite(v) and float(v).is_integer(), int)
_numbers = _kind("a list of finite numbers",
                 lambda v: isinstance(v, list) and all(map(_is_finite, v)), tuple)
_pairs = _kind("a list of [eta_s, eta_i] pairs with values in [0, 1]",
               lambda v: isinstance(v, list) and all(map(_is_pair, v)),
               lambda v: tuple((float(eta_s), float(eta_i)) for eta_s, eta_i in v))
_string = _kind("a non-empty string", lambda v: isinstance(v, str) and v != "")


def _points(value) -> int:
    points = _integer(value)
    if points < 0:
        raise ValueError("must be >= 0")
    if points > _MAX_SWEEP_POINTS:
        raise ValueError(f"must be <= {_MAX_SWEEP_POINTS}")
    return points


_REQUIRED = object()  # default of a leaf that must be given
_FAILED = object()    # a leaf or section that has already reported a violation


@dataclass(frozen=True)
class _Section:
    """A JSON object; a field is a section, a kind (required) or (kind, default)."""

    fields: dict
    build: Optional[Callable] = None  # None keeps the field values as a dict
    optional: bool = False            # missing or null builds to None


def _numbers_section(build, *keys: str) -> _Section:
    return _Section(dict.fromkeys(keys, _number), build)


def _converter(kerr, fringe, pairs, **rates):
    return ConverterParams(**rates), kerr, fringe, pairs


def _config(device, converter, sweep, fit):
    converter, kerr, fringe, pairs = converter
    trace = fit and fit["trace_csv"]
    return Config(**device, converter=converter, kerr=kerr, fringe=fringe, pairs=pairs,
                  sweeps=sweep, fit_trace=trace and Path(trace), config_hash="")


_SEGMENT = _numbers_section(
    SegmentParams, "inductance_per_length", "capacitance_per_length", "length")

_SCHEMA = _Section({
    "device": _Section({
        "ring": _Section({
            "cell_count": _integer,
            "kinetic_inductance_per_length": _number,
            "geometric_inductance_per_length": _number,
            "segment1": _SEGMENT,
            "segment2": replace(_SEGMENT, optional=True),
        }, RingSpec),
        "microloop": _numbers_section(
            MicroloopSpec, "width_ratio", "gap", "loop_dc_inductance", "inductance_wide",
            "inductance_narrow", "i_star_wide", "i_star_narrow"),
        "cell": _Section({"segment1": _SEGMENT, "segment2": _SEGMENT}, UnitCell),
    }),
    "converter": _Section({
        "kappa_s": _number, "kappa_i": _number, "eta_s": _number, "eta_i": _number,
        "g0": (_number, 0.0), "n_eff": (_number_or_null, None),
        "p0_norm": (_number_or_null, 1.0),
        "kerr": _numbers_section(
            KerrScenario, "rate_hz", "quality_factor", "coupling_efficiency", "frequency_hz"),
        "fringe": _Section({
            "cooperativity": _number, "eta_s": (_number, 1.0), "eta_i": (_number, 1.0),
        }, FringeScenario),
        "pairs": (_pairs, ()),
    }, _converter),
    "sweep": _Section({
        "field": _Section({"stop_T": _number, "points": _points}),
        "pump": _Section({"stop": _number, "points": _points}),
        "detuning": _Section({"span_hz": _number, "points": _points}),
        "phase": _Section({"points": _points}),
        "ratio": _Section({
            "signal_hz": _number, "offsets_hz": (_numbers, ()), "values": (_numbers, ()),
        }),
        "band": _numbers_section(None, "start_hz", "stop_hz"),
    }),
    "fit": _Section({"trace_csv": (_string, None)}, optional=True),
}, _config)


def _walk(node, spec: _Section, path: str, violations: List[str]):
    """The section built from ``node``, or ``_FAILED`` once a violation is recorded."""
    if node is None:
        if spec.optional:
            return None
        violations.append(f"{path}: required section is missing")
        return _FAILED
    if not isinstance(node, dict):
        violations.append(f"{path}: must be a JSON object")
        return _FAILED
    prefix = f"{path}." if path else ""
    violations.extend(f"{prefix}{key}: unknown key" for key in node if key not in spec.fields)
    values = {}
    for key, field in spec.fields.items():
        if isinstance(field, _Section):
            values[key] = _walk(node.get(key), field, prefix + key, violations)
            continue
        kind, default = field if isinstance(field, tuple) else (field, _REQUIRED)
        try:
            if key in node:
                values[key] = kind(node[key])
            elif default is _REQUIRED:
                raise ValueError("required value is missing")
            else:
                values[key] = default
        except ValueError as exc:
            violations.append(f"{prefix}{key}: {exc}")
            values[key] = _FAILED
    if any(value is _FAILED for value in values.values()):
        return _FAILED
    if spec.build is None:
        return values
    try:
        return spec.build(**values)
    except ValueError as exc:
        violations.append(f"{path}: {exc}")
        return _FAILED


def load_config(path) -> Config:
    """Parse, unit-normalize, validate and build a configuration."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: invalid JSON ({exc})"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be a JSON object"])
    raw = normalize_units(raw)
    violations: List[str] = []
    config = _walk(raw, _SCHEMA, "", violations)
    if violations:
        raise ConfigError(sorted(set(violations)))
    trace = config.fit_trace
    if trace is not None and not trace.is_absolute():
        trace = Path(path).parent / trace
    return replace(config, fit_trace=trace, config_hash=_hash(raw))


def validate_config(path) -> List[str]:
    """Violations as ``"json.path: message"`` strings; empty when valid."""
    try:
        load_config(path)
    except ConfigError as exc:
        return exc.violations
    return []
