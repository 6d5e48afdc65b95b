"""Kinetic-inductance meta-ring frequency converter: models, solvers, fits."""

from .core import (
    BiasState,
    LumpedCell,
    MicroloopSpec,
    RingSpec,
    SegmentParams,
)
from .modes import (
    ModeTable,
    analytic_mode_frequency,
    eigenmode_frequencies,
    free_spectral_range,
)
from .dispersion import (
    EnhancementPoint,
    FsrCurve,
    MismatchReport,
    TwoPortMatrix,
    UnitCell,
    cell_trace,
    conversion_mismatch,
    fsr_curve,
    idc_enhancement_sweep,
    mode_index_near,
    segment_abcd,
    solve_mode_frequency,
)
from .tuning import (
    NonlinearCoefficients,
    fractional_frequency_shift,
    kinetic_inductance,
    loop_energy,
    nonlinearity_report,
    taylor_coefficients,
    twm_fwm_coefficients,
)
from .conversion import (
    BifurcationPoint,
    ConverterParams,
    KerrSteadyState,
    PairEfficiency,
    ScatteringResult,
    TlsModel,
    bifurcation_drive_power,
    bifurcation_point,
    calibrated_efficiency,
    conversion_bandwidth,
    conversion_spectrum,
    interference_fringe,
    kerr_steady_state,
    matched_bandwidth,
    pair_sweep,
    scattering,
    single_photon_efficiency,
    tls_quality_factor,
)
from .fitting import (
    FitResult,
    Trace,
    fit_linear_modes,
    fit_reflection_resonance,
    least_squares,
    reflection_s11,
)
from .errors import (
    BandEdgeError,
    ConditioningError,
    ConfigError,
    NoResonanceError,
    PrecisionError,
)

__version__ = "0.1.0"
