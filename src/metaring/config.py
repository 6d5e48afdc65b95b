"""JSON configuration: schema, unit normalization, validation, loading.

Configs are plain JSON in SI units.  Three convenience suffixes are
accepted and converted on load: ``*_mT`` (millitesla, becomes ``*_T``),
``*_dBm`` (becomes ``*_W``) and ``*_dB`` (a power ratio in decibels, becomes
the linear ratio under the key without the suffix).  Everything else,
including ``*_hz`` keys, is already SI.

``load_config`` raises :class:`ConfigError` carrying one
``"json.path: message"`` violation per problem; ``validate_config`` returns
the same list without raising.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .conversion import ConverterParams, NoiseModel, TlsModel, watts_from_dbm
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
                    if isinstance(value, (int, float)):
                        converted = fn(float(value))
                    elif isinstance(value, list):
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
class SinglePhotonScenario:
    q_ex: float
    saturation_photons: float

    def __post_init__(self) -> None:
        if self.q_ex <= 0 or self.saturation_photons < 0:
            raise ValueError("q_ex must be positive and saturation_photons non-negative")


@dataclass(frozen=True)
class Config:
    """Validated configuration with constructed domain objects."""

    ring: RingSpec
    microloop: MicroloopSpec
    cell: UnitCell
    converter: ConverterParams
    noise: NoiseModel
    tls: TlsModel
    kerr: KerrScenario
    fringe: FringeScenario
    single_photon: SinglePhotonScenario
    pairs: Tuple[Tuple[float, float], ...]
    sweeps: Dict[str, dict]
    fit_trace: Optional[Path]
    config_hash: str


def _hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class _Builder:
    def __init__(self, raw: dict):
        self.raw = raw
        self.violations: List[str] = []

    def section(self, parent: dict, key: str, path: str) -> dict:
        node = parent.get(key) if isinstance(parent, dict) else None
        if node is None:
            self.violations.append(f"{path}: required section is missing")
            return {}
        if not isinstance(node, dict):
            self.violations.append(f"{path}: must be a JSON object")
            return {}
        return node

    def number(self, section: dict, path: str, key: str, default=None):
        if key not in section:
            if default is not None:
                return default
            self.violations.append(f"{path}.{key}: required number is missing")
            return float("nan")
        value = section[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            self.violations.append(f"{path}.{key}: must be a finite number, got {value!r}")
            return float("nan")
        return value

    def integer(self, section: dict, path: str, key: str, default=None) -> int:
        value = self.number(section, path, key, default)
        if isinstance(value, float) and not value.is_integer():
            self.violations.append(f"{path}.{key}: must be an integer, got {value!r}")
            return 0
        return int(value) if math.isfinite(value) else 0

    def build(self, factory, path: str, **kwargs):
        if any(isinstance(v, float) and math.isnan(v) for v in kwargs.values()):
            return None
        try:
            return factory(**kwargs)
        except ValueError as exc:
            self.violations.append(f"{path}: {exc}")
            return None


def _segment(builder: _Builder, parent: dict, path: str):
    section = builder.section(parent, path.rsplit(".", 1)[-1], path)
    full = path
    return builder.build(
        SegmentParams,
        full,
        inductance_per_length=builder.number(section, full, "inductance_per_length"),
        capacitance_per_length=builder.number(section, full, "capacitance_per_length"),
        length=builder.number(section, full, "length"),
    )


def _build_config(raw: dict) -> Config:
    b = _Builder(raw)

    device = b.section(raw, "device", "device")
    ring_raw = b.section(device, "ring", "device.ring") if device else {}
    seg1 = _segment(b, ring_raw, "device.ring.segment1") if ring_raw else None
    seg2 = None
    if ring_raw and ring_raw.get("segment2") is not None:
        seg2 = _segment(b, ring_raw, "device.ring.segment2")
    ring = None
    if ring_raw and seg1 is not None:
        ring = b.build(
            RingSpec,
            "device.ring",
            cell_count=b.integer(ring_raw, "device.ring", "cell_count"),
            segment1=seg1,
            segment2=seg2,
            geometric_inductance_per_length=b.number(
                ring_raw, "device.ring", "geometric_inductance_per_length"
            ),
            kinetic_inductance_per_length=b.number(
                ring_raw, "device.ring", "kinetic_inductance_per_length"
            ),
        )

    loop_raw = b.section(device, "microloop", "device.microloop") if device else {}
    microloop = None
    if loop_raw:
        microloop = b.build(
            MicroloopSpec,
            "device.microloop",
            width_ratio=b.number(loop_raw, "device.microloop", "width_ratio"),
            gap=b.number(loop_raw, "device.microloop", "gap"),
            loop_dc_inductance=b.number(loop_raw, "device.microloop", "loop_dc_inductance"),
            inductance_wide=b.number(loop_raw, "device.microloop", "inductance_wide"),
            inductance_narrow=b.number(loop_raw, "device.microloop", "inductance_narrow"),
            i_star_wide=b.number(loop_raw, "device.microloop", "i_star_wide"),
            i_star_narrow=b.number(loop_raw, "device.microloop", "i_star_narrow"),
        )

    cell_raw = b.section(device, "cell", "device.cell") if device else {}
    cell = None
    if cell_raw:
        cseg1 = _segment(b, cell_raw, "device.cell.segment1")
        cseg2 = _segment(b, cell_raw, "device.cell.segment2")
        if cseg1 is not None and cseg2 is not None:
            cell = b.build(UnitCell, "device.cell", segment1=cseg1, segment2=cseg2)

    conv_raw = b.section(raw, "converter", "converter")
    converter = None
    if conv_raw:
        n_eff = conv_raw.get("n_eff")
        if n_eff is not None and not isinstance(n_eff, (int, float)):
            b.violations.append(f"converter.n_eff: must be a number or null, got {n_eff!r}")
            n_eff = None
        p0_norm = conv_raw.get("p0_norm", 1.0)
        if p0_norm is not None and not isinstance(p0_norm, (int, float)):
            b.violations.append(f"converter.p0_norm: must be a number or null, got {p0_norm!r}")
            p0_norm = None
        converter = b.build(
            ConverterParams,
            "converter",
            kappa_s=b.number(conv_raw, "converter", "kappa_s"),
            kappa_i=b.number(conv_raw, "converter", "kappa_i"),
            eta_s=b.number(conv_raw, "converter", "eta_s"),
            eta_i=b.number(conv_raw, "converter", "eta_i"),
            g0=b.number(conv_raw, "converter", "g0", default=0.0),
            n_eff=n_eff,
            p0_norm=p0_norm,
        )

    noise_raw = b.section(conv_raw, "noise", "converter.noise") if conv_raw else {}
    noise = None
    if noise_raw:
        noise = b.build(
            NoiseModel,
            "converter.noise",
            slope_s=b.number(noise_raw, "converter.noise", "slope_s"),
            slope_i=b.number(noise_raw, "converter.noise", "slope_i"),
            intercept_s=b.number(noise_raw, "converter.noise", "intercept_s"),
            intercept_i=b.number(noise_raw, "converter.noise", "intercept_i"),
        )

    tls_raw = b.section(conv_raw, "tls", "converter.tls") if conv_raw else {}
    tls = None
    if tls_raw:
        tls = b.build(
            TlsModel,
            "converter.tls",
            q_tls0=b.number(tls_raw, "converter.tls", "q_tls0"),
            n_c=b.number(tls_raw, "converter.tls", "n_c"),
            alpha=b.number(tls_raw, "converter.tls", "alpha"),
            q_other=b.number(tls_raw, "converter.tls", "q_other"),
        )

    kerr_raw = b.section(conv_raw, "kerr", "converter.kerr") if conv_raw else {}
    kerr = None
    if kerr_raw:
        kerr = b.build(
            KerrScenario,
            "converter.kerr",
            rate_hz=b.number(kerr_raw, "converter.kerr", "rate_hz"),
            quality_factor=b.number(kerr_raw, "converter.kerr", "quality_factor"),
            coupling_efficiency=b.number(kerr_raw, "converter.kerr", "coupling_efficiency"),
            frequency_hz=b.number(kerr_raw, "converter.kerr", "frequency_hz"),
        )

    fringe_raw = b.section(conv_raw, "fringe", "converter.fringe") if conv_raw else {}
    fringe = None
    if fringe_raw:
        fringe = b.build(
            FringeScenario,
            "converter.fringe",
            cooperativity=b.number(fringe_raw, "converter.fringe", "cooperativity"),
            eta_s=b.number(fringe_raw, "converter.fringe", "eta_s", default=1.0),
            eta_i=b.number(fringe_raw, "converter.fringe", "eta_i", default=1.0),
        )

    sp_raw = b.section(conv_raw, "single_photon", "converter.single_photon") if conv_raw else {}
    single_photon = None
    if sp_raw:
        single_photon = b.build(
            SinglePhotonScenario,
            "converter.single_photon",
            q_ex=b.number(sp_raw, "converter.single_photon", "q_ex"),
            saturation_photons=b.number(
                sp_raw, "converter.single_photon", "saturation_photons"
            ),
        )

    pairs: List[Tuple[float, float]] = []
    raw_pairs = conv_raw.get("pairs", []) if conv_raw else []
    if not isinstance(raw_pairs, list):
        b.violations.append("converter.pairs: must be a list of [eta_s, eta_i] pairs")
        raw_pairs = []
    for idx, pair in enumerate(raw_pairs):
        if (
            not isinstance(pair, list) or len(pair) != 2
            or not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in pair)
        ):
            b.violations.append(
                f"converter.pairs[{idx}]: must be [eta_s, eta_i] with values in [0, 1]"
            )
        else:
            pairs.append((float(pair[0]), float(pair[1])))

    sweep_raw = b.section(raw, "sweep", "sweep")
    sweeps: Dict[str, dict] = {}
    if sweep_raw:
        field = b.section(sweep_raw, "field", "sweep.field")
        sweeps["field"] = {
            "stop_T": b.number(field, "sweep.field", "stop_T"),
            "points": b.integer(field, "sweep.field", "points"),
        }
        pump = b.section(sweep_raw, "pump", "sweep.pump")
        sweeps["pump"] = {
            "stop": b.number(pump, "sweep.pump", "stop"),
            "points": b.integer(pump, "sweep.pump", "points"),
        }
        detuning = b.section(sweep_raw, "detuning", "sweep.detuning")
        sweeps["detuning"] = {
            "span_hz": b.number(detuning, "sweep.detuning", "span_hz"),
            "points": b.integer(detuning, "sweep.detuning", "points"),
        }
        phase = b.section(sweep_raw, "phase", "sweep.phase")
        sweeps["phase"] = {"points": b.integer(phase, "sweep.phase", "points")}
        ratio = b.section(sweep_raw, "ratio", "sweep.ratio")
        sweeps["ratio"] = {
            "signal_hz": b.number(ratio, "sweep.ratio", "signal_hz"),
            "offsets_hz": ratio.get("offsets_hz", []),
            "values": ratio.get("values", []),
        }
        band = b.section(sweep_raw, "band", "sweep.band")
        sweeps["band"] = {
            "start_hz": b.number(band, "sweep.band", "start_hz"),
            "stop_hz": b.number(band, "sweep.band", "stop_hz"),
        }
        for key, name in (("offsets_hz", "sweep.ratio.offsets_hz"),
                          ("values", "sweep.ratio.values")):
            values = sweeps["ratio"][key]
            if not isinstance(values, list) or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in values
            ):
                b.violations.append(f"{name}: must be a list of finite numbers")
                sweeps["ratio"][key] = []
        for name, section_ in (("field", "sweep.field"), ("pump", "sweep.pump"),
                               ("detuning", "sweep.detuning"), ("phase", "sweep.phase")):
            if sweeps[name]["points"] < 0:
                b.violations.append(f"{section_}.points: must be >= 0")
            elif sweeps[name]["points"] > _MAX_SWEEP_POINTS:
                b.violations.append(f"{section_}.points: must be <= {_MAX_SWEEP_POINTS}")

    fit_raw = raw.get("fit", {})
    fit_trace = None
    if isinstance(fit_raw, dict) and fit_raw.get("trace_csv"):
        fit_trace = Path(fit_raw["trace_csv"])

    required = {
        "device.ring": ring, "device.microloop": microloop, "device.cell": cell,
        "converter": converter, "converter.noise": noise, "converter.tls": tls,
        "converter.kerr": kerr, "converter.fringe": fringe,
        "converter.single_photon": single_photon,
    }
    if b.violations:
        raise ConfigError(sorted(set(b.violations)))
    missing = [path for path, value in required.items() if value is None]
    if missing:
        raise ConfigError([f"{path}: section failed to build" for path in missing])

    return Config(
        ring=ring, microloop=microloop, cell=cell, converter=converter,
        noise=noise, tls=tls, kerr=kerr, fringe=fringe,
        single_photon=single_photon, pairs=tuple(pairs), sweeps=sweeps,
        fit_trace=fit_trace, config_hash=_hash(raw),
    )


def load_config(path) -> Config:
    """Parse, unit-normalize, validate and build a configuration."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: invalid JSON ({exc})"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be a JSON object"])
    config = _build_config(normalize_units(raw))
    if config.fit_trace is not None and not config.fit_trace.is_absolute():
        config = replace(config, fit_trace=Path(path).parent / config.fit_trace)
    return config


def validate_config(path) -> List[str]:
    """Violations as ``"json.path: message"`` strings; empty when valid."""
    try:
        load_config(path)
    except ConfigError as exc:
        return exc.violations
    return []
