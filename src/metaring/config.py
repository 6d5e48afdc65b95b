"""JSON configuration: schema, validation, loading.

Configs are plain JSON in SI units, ``*_hz`` keys included.  One key has a
second spelling: ``sweep.field.stop_mT`` in millitesla is read as
``sweep.field.stop_T``.  A value given twice, as a repeated JSON key or as
``stop_mT`` next to ``stop_T``, is a violation.

``_SCHEMA`` mirrors the JSON.  ``_walk`` rewrites a section's aliases, checks
each leaf's kind, fills in defaults, reports every key the schema does not
name and builds each section with its constructor, which checks the
section's physical bounds.  A bound that faults one field names it first
(``"rate_hz: must ..."``) and is reported under that field's path.  Where a
closed form would overflow, the bound is that form itself (``_evaluate``).
Every bound on how much a run allocates is checked here.  The bounds that
join sections belong to the runners whose work they bound, and ``cli.plan``
checks them.

``load_config`` raises :class:`ConfigError` carrying one
``"json.path: message"`` violation per problem.
"""

import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .conversion import (ConverterParams, bifurcation_drive_power, conversion_spectrum,
                         cooperativity, scattering)
from .core import LumpedCell, MicroloopSpec, RingSpec, SegmentParams, checked
from .dispersion import UnitCell
from .errors import ConfigError

# sweeps allocate their whole axis at once; far above any real sweep, this
# catches a typo before it exhausts memory
_MAX_SWEEP_POINTS = 1_000_000
# the modes runner evaluates every first-branch index 1 <= m <= N/2, and
# fsr_curve's window stops at N/2 too: with N at most this, each allocates
# at most N/2 = 999 999 entries, fewer than a sweep's _MAX_SWEEP_POINTS
_MAX_CELL_COUNT = 2 * _MAX_SWEEP_POINTS - 2
# a superconducting resonator's modes lie below its pair-breaking frequency,
# a few THz at most
_MAX_MODE_FREQUENCY_HZ = 1e13
# the Kerr cubic no longer needs this bound to stay in the float range; it
# stays because removing it moves validate's answers, which waits until those
# answers are committed data (ROADMAP item 11)
_MAX_CRITICAL_PHOTONS = 1e40


def _evaluate(form: Callable, *args):
    """``form(*args)``, or None where the closed form overflows, divides a float
    by zero or gives an invalid value."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return form(*args)
    except ArithmeticError:  # FloatingPointError, or ZeroDivisionError of a float
        return None


def _is_finite(value) -> bool:
    """A JSON number in the float range; not true/false, NaN or an infinity."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


class _JsonObject(dict):
    """A JSON object that remembers the keys its source gave more than once."""

    repeated: Tuple[str, ...] = ()


def _json_object(pairs: List[tuple]) -> _JsonObject:
    """``object_pairs_hook`` for ``json.loads``: the last value of a key wins."""
    obj = _JsonObject(pairs)
    obj.repeated = tuple(key for key, count in Counter(k for k, _ in pairs).items()
                         if count > 1)
    return obj


@checked
class KerrScenario(NamedTuple):
    """Mode used for the saturation sweep: linewidth from f/Q."""

    rate_hz: float
    quality_factor: float
    coupling_efficiency: float
    frequency_hz: float

    def _check(self) -> None:
        if min(self.rate_hz, self.quality_factor, self.frequency_hz) <= 0:
            raise ValueError("kerr rate, quality factor and frequency must be positive")
        if not (0.0 < self.coupling_efficiency <= 1.0):
            raise ValueError("coupling_efficiency must lie in (0, 1]")
        if self.frequency_hz > _MAX_MODE_FREQUENCY_HZ:
            raise ValueError(f"frequency_hz: must be <= {_MAX_MODE_FREQUENCY_HZ:g}, "
                             f"got {self.frequency_hz!r}")
        # the mean-field Kerr model needs at least one photon at the bifurcation
        photons = self.kappa / (math.sqrt(3.0) * self.rate_hz)
        if not 1.0 <= photons <= _MAX_CRITICAL_PHOTONS:
            raise ValueError(
                "rate_hz: must put the critical photon number kappa/(sqrt(3) rate_hz) "
                f"in [1, {_MAX_CRITICAL_PHOTONS:g}], got {photons!r}")
        try:  # the saturate runner writes this power, and in dBm
            power = bifurcation_drive_power(self.frequency_hz, self.rate_hz, self.kappa,
                                            self.kappa_ex)
        except (ArithmeticError, ValueError):  # kappa**3 overflows, or kappa_ex underflows
            power = math.nan
        if not 0.0 < power < math.inf:
            raise ValueError("coupling_efficiency: must keep the critical drive power "
                             "2 pi h f kappa^3/(3 sqrt(3) rate_hz kappa_ex) positive and finite")

    @property
    def kappa(self) -> float:
        return self.frequency_hz / self.quality_factor

    @property
    def kappa_ex(self) -> float:
        return self.coupling_efficiency * self.kappa


@checked
class FringeScenario(NamedTuple):
    cooperativity: float
    eta_s: float
    eta_i: float

    def _check(self) -> None:
        if self.cooperativity < 0:
            raise ValueError("cooperativity must be non-negative")
        for eta in (self.eta_s, self.eta_i):
            if not (0.0 <= eta <= 1.0):
                raise ValueError("fringe eta values must lie in [0, 1]")
        if _evaluate(scattering, self.cooperativity, self.eta_s, self.eta_i) is None:
            raise ValueError(_law_bound("cooperativity", self.cooperativity))


class Config(NamedTuple):
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
                 lambda v: isinstance(v, list) and all(map(_is_finite, v)),
                 lambda v: tuple(map(float, v)))
_pairs = _kind("a list of [eta_s, eta_i] pairs with values in [0, 1]",
               lambda v: isinstance(v, list) and all(map(_is_pair, v)),
               lambda v: tuple((float(eta_s), float(eta_i)) for eta_s, eta_i in v))
_string = _kind("a non-empty string", lambda v: isinstance(v, str) and v != "")


def _numbers_each(bound: str, test: Callable) -> Callable:
    """A list of finite numbers whose every entry is ``bound`` (passes ``test``)."""
    def check(value):
        numbers = _numbers(value)
        for number in numbers:
            if not test(number):
                raise ValueError(f"every entry must be {bound}, got {number!r}")
        return numbers
    return check


def _non_negative(value) -> float:
    number = _number(value)
    if number < 0:
        raise ValueError(f"must be >= 0, got {number!r}")
    return number


def _points(value) -> int:
    points = _integer(value)
    if points < 0:
        raise ValueError("must be >= 0")
    if points > _MAX_SWEEP_POINTS:
        raise ValueError(f"must be <= {_MAX_SWEEP_POINTS}")
    return points


def _cell_count(value) -> int:
    count = _integer(value)
    if count > _MAX_CELL_COUNT:
        raise ValueError(f"must be <= {_MAX_CELL_COUNT}, got {count}")
    return count


_REQUIRED = object()  # default of a leaf that must be given
_FAILED = object()    # a leaf or section that has already reported a violation


class _Section(NamedTuple):
    """A JSON object; a field is a section, a kind (required) or (kind, default)."""

    fields: dict
    build: Optional[Callable] = None  # None keeps the field values as a dict
    optional: bool = False            # missing or null builds to None
    aliases: Tuple[Tuple[str, str, float], ...] = ()  # (alias, key, scale to the key's unit)


def _numbers_section(build, *keys: str) -> _Section:
    return _Section(dict.fromkeys(keys, _number), build)


def _law_bound(field: str, c: float) -> str:
    return (f"{field}: must keep (1 + C)^2 of the conversion law 4C/(1 + C)^2 finite, "
            f"got C = {c!r}")


def _converter(kerr, fringe, pairs, **rates):
    if rates["p0_norm"] is None and rates["n_eff"] is None:
        raise ValueError("p0_norm: must be a finite number when n_eff is null, "
                         "since one of them sets the cooperativity")
    params = ConverterParams(**rates)
    if params.p0_norm is not None:  # it is the cooperativity, so g0 and n_eff would go unread
        for field, unset in (("g0", 0.0), ("n_eff", None)):
            if rates[field] != unset:
                raise ValueError(f"{field}: must be left out or {json.dumps(unset)} while p0_norm "
                                 "gives the cooperativity; give \"p0_norm\": null to derive "
                                 "it from g0 and n_eff")
    c = cooperativity(params)
    if _evaluate(scattering, c, params.eta_s, params.eta_i) is None:  # as the pairs table does
        field = "g0" if params.p0_norm is None else "p0_norm"
        raise ValueError(_law_bound(field, c))
    if _evaluate(conversion_spectrum, 0.0, params) is None:
        raise ValueError("linewidths and cooperativity must keep the conversion spectrum "
                         "finite at zero detuning, where its denominator is "
                         "(kappa_s kappa_i (1 + C)/4)^2")
    return dict(converter=params, kerr=kerr, fringe=fringe, pairs=pairs)


def _ratio_grid(**ratio) -> dict:
    pairs = len(ratio["values"]) * len(ratio["offsets_hz"])
    if pairs > _MAX_SWEEP_POINTS:  # the ratio sweep solves every pair's modes at once
        raise ValueError(f"values: must give at most {_MAX_SWEEP_POINTS} (ratio, offset) "
                         f"pairs with offsets_hz, got {pairs}")
    return ratio


_SEGMENT = _numbers_section(
    SegmentParams, "inductance_per_length", "capacitance_per_length", "length")

_SCHEMA = _Section({
    "device": _Section({
        "ring": _Section({
            "cell_count": _cell_count,
            "kinetic_inductance_per_length": _number,
            "geometric_inductance_per_length": _number,
            "segment1": _numbers_section(LumpedCell, "capacitance_per_length", "length"),
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
        "field": _Section({"stop_T": _number, "points": _points},
                          aliases=(("stop_mT", "stop_T", 1e-3),)),
        "pump": _Section({"stop": _non_negative, "points": _points}),
        "detuning": _Section({"span_hz": _number, "points": _points}),
        "phase": _Section({"points": _points}),
        "ratio": _Section({
            "signal_hz": _number,
            "offsets_hz": (_numbers_each("> 0", lambda v: v > 0), ()),
            "values": (_numbers_each(">= 1", lambda v: v >= 1), ()),
        }, _ratio_grid),
        "band": _Section({"start_hz": _non_negative, "stop_hz": _non_negative}),
    }),
    "fit": _Section({"trace_csv": (_string, None)}, optional=True),
})


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
    for alias, key, scale in spec.aliases:
        if alias in node:
            if key in node:
                violations.append(f"{prefix}{key}: given twice")
            value = node.pop(alias)
            # in place, so the config hash reads the value under its own key
            node[key] = value * scale if _is_finite(value) else value
    violations.extend(f"{prefix}{key}: unknown key" for key in node if key not in spec.fields)
    violations.extend(f"{prefix}{key}: given twice" for key in node.repeated)
    values = {}
    for key, field in spec.fields.items():
        if isinstance(field, _Section):  # a tuple too, so tested before (kind, default)
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
        field = str(exc).split(":", 1)[0].split(".", 1)[0]
        violations.append(f"{prefix}{exc}" if field in spec.fields else f"{path}: {exc}")
        return _FAILED


def load_config(path) -> Config:
    """Parse a configuration and build each section, checked against ``_SCHEMA``."""
    try:  # an unreadable file raises OSError, an I/O error
        raw = json.loads(Path(path).read_bytes().decode("utf-8"), object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: invalid JSON ({exc})"]) from None
    except (RecursionError, ValueError) as exc:  # not UTF-8, too deep, too many digits
        raise ConfigError([f"$: cannot be parsed ({exc})"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be a JSON object"])
    violations: List[str] = []
    sections = _walk(raw, _SCHEMA, "", violations)
    if violations:
        raise ConfigError(sorted(set(violations)))
    trace = sections["fit"] and sections["fit"]["trace_csv"]
    return Config(**sections["device"], **sections["converter"], sweeps=sections["sweep"],
                  fit_trace=trace and Path(path).parent / trace, config_hash=_hash(raw))
