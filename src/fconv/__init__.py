"""Deterministic multimode simulator for coherent optical frequency
down-conversion: exact Fock backend, Gaussian moment backend, the three
three-wave-mixing devices, and scenario runners."""

from .devices import (
    Amplifier,
    Attenuator,
    Converter,
    PhaseShift,
    TrilinearCoupler,
    apply_device,
    compile_circuit,
)
from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    EnergyConservationViolation,
    FconvError,
    NonGaussianDevice,
    OccupationExceedsCutoff,
    TransmissionOutOfRange,
    UnknownMode,
)
from .experiments import (
    ScanResult,
    WdmSpec,
    fringe_visibility,
    run_depletion_convergence,
    run_fringe,
    run_linearity,
    run_noise_comparison,
    run_wdm,
)
from .fock import (
    FockDensityOp,
    PureState,
    apply_loss,
    fidelity,
    fidelity_pure_mixed,
    make_coherent,
    make_fock,
    make_vacuum,
    mean_photon,
    moments_from_fock,
    product_state,
    quadrature_variance,
    reduced_density,
    to_density,
)
from .gaussian import (
    GaussianState,
    coherent_gaussian,
    gaussian_apply,
    gaussian_mean_photon,
    gaussian_quadrature_variance,
)
from .registry import ModeRegistry

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
