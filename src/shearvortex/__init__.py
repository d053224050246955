"""Spectral toolkit for 2-D vorticity dynamics around a planar Couette flow.

Core layers:

- grid / spectral: periodic grids, dual-representation fields, transforms,
  derivatives, Biot-Savart inversion, norms and quadrature.
- propagator: exact linearized semigroup, Green kernel, Duhamel bilinear
  term and Picard fixed-point solver in the physical frame.
- selfsim: self-similar frame change, frame generator and its nonlinear
  term, and the log-time pseudo-spectral evolver.
- fokker_planck: closed-form limit semigroup, its eigenfunctions and
  characteristics.
- diagnostics: norms/records, power-law rate fits, weighted energy
  functionals and inequality probes.
- config / initial_data / snapshot / runner / cli: experiment drivers.
"""

from .config import (
    RunConfig,
    override_config,
    parse_config,
    serialize_config,
    validate_config,
)
from .diagnostics import (
    DiagnosticsRecord,
    EnergyCoefficients,
    ProbeReport,
    RecordOptions,
    energy_functionals,
    inequality_probe,
    rate_fit,
    record,
)
from .errors import (
    AliasingError,
    BlowUpError,
    ChecksumError,
    ConfigError,
    DivergenceError,
    DomainError,
    FitError,
    GridError,
    NoConvergenceError,
    ResolutionError,
    ShearVortexError,
    SnapshotError,
    SolverError,
    TruncationError,
    UnsupportedOrderError,
)
from .fokker_planck import (
    char_map,
    eigenfunction,
    eigenvalue,
    gaussian,
)
from .fokker_planck import apply_semigroup as apply_limit_semigroup
from .grid import Field, Frame, GridSpec, make_grid
from .initial_data import CATALOG, make_field
from .propagator import (
    Trajectory,
    apply_semigroup,
    duhamel_bilinear,
    green_kernel,
    kato_norm,
    picard_solve,
)
from .runner import run_experiment
from .selfsim import (
    FrameCoefficients,
    SelfSimilarState,
    amplitude,
    apply_generator,
    apply_limit_generator,
    evolve,
    invert_frame_laplacian,
    nonlinear_term,
    phys_to_selfsim,
    selfsim_coords,
    selfsim_to_phys,
)
from .snapshot import read_metadata, read_snapshot, write_snapshot
from .spectral import (
    biot_savart,
    derivative,
    inverse_laplacian,
    lp_norm,
    mass,
    shear_spectrum,
    transport,
    weighted_inner,
    weighted_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError", "BlowUpError", "ChecksumError", "ConfigError",
    "DivergenceError", "DomainError", "FitError", "GridError",
    "NoConvergenceError", "ResolutionError", "ShearVortexError",
    "SnapshotError", "SolverError", "TruncationError",
    "UnsupportedOrderError",
    "Field", "Frame", "GridSpec", "make_grid",
    "biot_savart", "derivative", "inverse_laplacian", "lp_norm", "mass",
    "shear_spectrum", "transport", "weighted_inner", "weighted_norm",
    "Trajectory", "apply_semigroup", "duhamel_bilinear", "green_kernel",
    "kato_norm", "picard_solve",
    "FrameCoefficients", "SelfSimilarState", "amplitude",
    "apply_generator", "apply_limit_generator",
    "evolve", "invert_frame_laplacian", "nonlinear_term",
    "phys_to_selfsim", "selfsim_coords", "selfsim_to_phys",
    "apply_limit_semigroup", "char_map",
    "eigenfunction", "eigenvalue", "gaussian",
    "DiagnosticsRecord", "EnergyCoefficients", "ProbeReport",
    "RecordOptions", "energy_functionals", "inequality_probe", "rate_fit",
    "record",
    "RunConfig", "override_config", "parse_config", "serialize_config",
    "validate_config",
    "CATALOG", "make_field",
    "read_metadata", "read_snapshot", "write_snapshot",
    "run_experiment",
    "__version__",
]
