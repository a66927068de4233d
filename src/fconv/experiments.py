"""Deterministic scenario runners: each one rebuilds a figure-level claim of
coherent frequency down-conversion as a desk-scale numerical scan.

All runners are deterministic and return a ScanResult.  Each builds its scan's
points, hands them with its modes to its backend's `space`, which sizes the
registry, and then hands the backend's `sweep` every point at once (see `_backend`).
Gaussian CSVs record no cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Complex, Integral, Real

import numpy as np

from .devices import (
    Amplifier,
    Attenuator,
    Converter,
    TrilinearCoupler,
    apply_device,
    fock_space,
    fock_sweep,
)
from .errors import EnergyConservationViolation
from .fock import PureState, coherent_required_cutoff, make_coherent
from .gaussian import gaussian_space, gaussian_sweep
from .registry import ModeRegistry


@dataclass(frozen=True, eq=False)
class ScanResult:
    """A scan as its sweep makes it: `abscissa` (P,) and `values` (P, C), one column
    per label, both read-only float copies of what was passed in."""
    abscissa_label: str
    column_labels: tuple[str, ...]
    abscissa: np.ndarray
    values: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        labels = tuple(self.column_labels)
        xs, ys = np.array(self.abscissa, dtype=float), np.array(self.values, dtype=float)
        if xs.ndim != 1 or ys.shape != (len(xs), len(labels)):
            raise ValueError(f"values of shape {ys.shape} do not match abscissa of shape "
                             f"{xs.shape} and {len(labels)} column labels")
        if not (np.all(np.diff(xs) > 0) or np.all(np.diff(xs) < 0)):
            raise ValueError("abscissa must be strictly monotone")
        xs.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "column_labels", labels)
        object.__setattr__(self, "abscissa", xs)
        object.__setattr__(self, "values", ys)

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.column_labels.index(label)]


@dataclass(frozen=True)
class WdmSpec:
    pump_frequency: float
    channels: tuple[tuple[float, float, float], ...]  # (signal_frequency, theta_k, phi_k)

    def __post_init__(self):
        chans = tuple((float(f), float(t), float(p)) for f, t, p in self.channels)
        if len(chans) < 1:
            raise ValueError("need at least one WDM channel")
        for f, _, _ in chans:
            if self.pump_frequency - f <= 0:
                raise EnergyConservationViolation(
                    f"signal frequency {f} leaves non-positive idler frequency "
                    f"{self.pump_frequency - f} (pump {self.pump_frequency})"
                )
        object.__setattr__(self, "channels", chans)

    @property
    def idler_frequencies(self) -> tuple[float, ...]:
        return tuple(self.pump_frequency - f for f, _, _ in self.channels)


def _backend(name: str):
    """(space, sweep) of one backend: space(modes, points) is the registry of
    (label, frequency) pairs sized for the points the sweep will run, and
    sweep(registry, points, reads) the points x reads array of a scan, each point
    (devices, {label: input}) with a coherent amplitude (or, on Fock, a one-mode
    PureState, whose registry its runner builds) per listed mode, vacuum elsewhere,
    and each read ("photons", mode), ("variance", mode, phase) or, on Fock,
    ("fidelity", modes, pure target); any other read is refused before a point runs.

    This is the one place that names a backend; each backend module owns its
    space and sweep.  The sweeps read the functions they call from their module's
    bindings on each call, not from a table, so a wrapper on one of those names
    (such as the benchmark tracer) sees it.
    """
    if name == "fock":
        return fock_space, fock_sweep
    if name == "gaussian":
        return gaussian_space, gaussian_sweep
    raise ValueError(f"unknown backend {name!r}")


def _param_text(value) -> str:
    """A number as the repr of the Python number of its kind, so numpy scalars read alike."""
    for kind, cast in ((Integral, int), (Real, float), (Complex, complex)):
        if isinstance(value, kind):
            return repr(cast(value))
    return str(value)


def _meta(backend: str, **params) -> dict[str, str]:
    meta = {"backend": backend}
    for k, v in params.items():
        if not isinstance(v, ModeRegistry):
            meta[k] = _param_text(v)
        elif backend == "fock":  # a registry is written as its cutoffs; Gaussian runs size none
            meta[k] = ";".join(f"{m.label}={m.cutoff}" for m in v.modes)
    return meta


# ---------------------------------------------------------------------------
# linearity of the converted output in the pump attenuation


def run_linearity(
    transmissions,
    theta: float,
    alpha_pump: complex,
    noise_floor: float = 0.0,
    backend: str = "fock",
) -> ScanResult:
    """Attenuated coherent pump through a weak converter; idler photon number
    per attenuator transmission.  With zero noise floor the curve is exactly
    T * |alpha|^2 * sin^2(theta), i.e. log-log slope one.
    """
    ts = [float(t) for t in transmissions]
    if not ts or any(not (0.0 < t <= 1.0) for t in ts):
        raise ValueError("transmissions must lie in (0, 1]")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("transmissions must be strictly decreasing")
    if not noise_floor >= 0:
        raise ValueError("noise_floor must be >= 0")

    space, sweep = _backend(backend)
    conv, pump = Converter("pump", "idler", theta), {"pump": alpha_pump}
    points = [((Attenuator("pump", T), conv), pump) for T in ts]
    registry = space([("pump", 2.0), ("idler", 1.0)], points)
    return ScanResult(
        abscissa_label="transmission",
        column_labels=("idler_mean_photons",),
        abscissa=ts,
        values=sweep(registry, points, [("photons", "idler")]) + noise_floor,
        metadata=_meta(
            backend, cutoffs=registry, theta=theta, alpha_pump=alpha_pump, noise_floor=noise_floor
        ),
    )


# ---------------------------------------------------------------------------
# interference fringe of the converted field against a laser reference


def run_fringe(
    phi_p_points,
    alpha_pump: complex,
    alpha_ref: complex,
    theta: float,
    phi_s: float = 0.0,
    backend: str = "fock",
) -> ScanResult:
    """Pump-phase scan: convert a coherent pump, then beat the idler against a
    coherent reference on a balanced combiner and read one output port.

    Degenerate configuration: the idler and the reference sit at half the pump
    frequency, so they interfere directly.
    """
    space, sweep = _backend(backend)
    phis = [float(p) for p in phi_p_points]
    devices = (Converter("pump", "idler", theta, phi_s), Converter("idler", "ref", np.pi / 4))
    points = [(devices, {"pump": alpha_pump * np.exp(1j * p), "ref": alpha_ref}) for p in phis]
    registry = space([("pump", 2.0), ("idler", 1.0), ("ref", 1.0)], points)
    return ScanResult(
        abscissa_label="pump_phase",
        column_labels=("combined_mean_photons",),
        abscissa=phis,
        values=sweep(registry, points, [("photons", "idler")]),
        metadata=_meta(
            backend, cutoffs=registry, alpha_pump=alpha_pump, alpha_ref=alpha_ref, theta=theta,
            phi_s=phi_s,
        ),
    )


def fringe_visibility(result: ScanResult) -> float:
    """(I_max - I_min) / (I_max + I_min) of the fringe.

    The model output is an exact sinusoid in the scanned phase, so the
    extrema are taken from a least-squares sinusoid fit rather than from the
    sampled points (which would undershoot between samples).  A scan whose
    phases do not fix the three coefficients (fewer than three distinct
    phases mod 2 pi) is refused.
    """
    phi, y = result.abscissa, result.values[:, 0]
    basis = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    coef, _, rank, _ = np.linalg.lstsq(basis, y, rcond=None)
    if rank < 3:
        raise ValueError(f"fringe visibility needs three distinct phases mod 2 pi: "
                         f"{len(phi)} points fix {rank} of the fit's 3 coefficients")
    mean, amp = coef[0], float(np.hypot(coef[1], coef[2]))
    if mean + amp == 0:
        return 0.0
    return amp / mean


# ---------------------------------------------------------------------------
# converter vs amplifier noise


def run_noise_comparison(strength_points, backend: str = "gaussian") -> ScanResult:
    """Vacuum-input comparison at matched interaction strength s.

    Converter(theta=s): idler quadrature variance stays at the vacuum 1/4.
    Amplifier(squeeze=s): idler variance grows as (2 sinh^2 s + 1)/4 and the
    idler fills with sinh^2 s spontaneous photons -- the a^dag-term noise.
    """
    space, sweep = _backend(backend)
    ss = [float(s) for s in strength_points]
    if not all(s >= 0 for s in ss):
        raise ValueError("strengths must be >= 0")

    vacuum, idler = {}, ("variance", "idler", 0.0)
    conv_points = [((Converter("pump", "idler", s),), vacuum) for s in ss]
    amp_points = [((Amplifier("signal", "idler", s),), vacuum) for s in ss]
    reg_conv = space([("pump", 2.0), ("idler", 1.0)], conv_points)  # vacuum stays vacuum
    reg_amp = space([("signal", 1.2), ("idler", 0.8)], amp_points)
    # one device per point, each freed once run: one device's blocks are held at
    # a time, and the chain walks of each box are cached across its points
    conv = sweep(reg_conv, conv_points, [idler])
    amp = sweep(reg_amp, amp_points, [idler, ("photons", "idler")])

    return ScanResult(
        abscissa_label="strength",
        column_labels=(
            "converter_variance",
            "amplifier_variance",
            "amplifier_spontaneous_photons",
        ),
        abscissa=ss,
        values=np.column_stack((conv, amp)),
        metadata=_meta(backend, cutoffs=reg_amp, converter_cutoffs=reg_conv),
    )


# ---------------------------------------------------------------------------
# pump depletion: trilinear dynamics converging to the beam-splitter picture


def run_depletion_convergence(alpha_s_points, theta: float, pump_input: PureState) -> ScanResult:
    """Exact trilinear evolution with a coherent signal of growing amplitude,
    holding eta_tau * |alpha_s| = theta, compared against the linearized
    converter.  Fidelity of the reduced pump+idler output against the
    converter prediction approaches one as the signal becomes classical.

    ``pump_input`` is any single-mode state (its label is not read); each amplitude
    is one point of a Fock sweep on its own (pump, signal, idler) registry.
    The signal cutoff is the coherent tail of alpha_s plus the pump cutoff:
    the coupler conserves n_p + n_s, so it clips no chain it reaches.  The
    metadata's `cutoffs` name the pump and idler; `signal_cutoffs` gives the
    signal cutoff of each amplitude.
    """
    alphas = [float(a) for a in alpha_s_points]
    if any(a <= 0 for a in alphas):
        raise ValueError("signal amplitudes must be > 0")
    c_p = pump_input.registry.cutoffs[0]

    # linearized prediction: the same pump input through a converter at theta
    pump_idler = ModeRegistry([("pump", 2.0, c_p), ("idler", 1.0, c_p)])
    target = apply_device(make_coherent(pump_idler, {"pump": pump_input}),
                          Converter("pump", "idler", theta))
    fidelity = [("fidelity", ("pump", "idler"), target)]

    fidelities, signal_cutoffs = [], [coherent_required_cutoff(a) + c_p for a in alphas]
    for a_s, c_s in zip(alphas, signal_cutoffs):
        registry = ModeRegistry([("pump", 2.0, c_p), ("signal", 1.0, c_s), ("idler", 1.0, c_p)])
        coupler = TrilinearCoupler("pump", "signal", "idler", eta_tau=theta / a_s)
        point = ((coupler,), {"pump": pump_input, "signal": a_s})
        fidelities.append(fock_sweep(registry, [point], fidelity)[0, 0])

    return ScanResult(
        abscissa_label="alpha_s",
        column_labels=("fidelity_vs_converter",),
        abscissa=alphas,
        values=np.transpose([fidelities]),
        metadata=_meta(
            "fock", cutoffs=target.registry, theta=theta, pump_cutoff=c_p,
            signal_cutoffs=";".join(map(str, signal_cutoffs)),
        ),
    )


# ---------------------------------------------------------------------------
# single-photon wavelength division multiplexing


def run_wdm(spec: WdmSpec) -> tuple[ScanResult, np.ndarray]:
    """Single pump photon through a cascade of converters, one per channel.

    Returns the per-channel probabilities |c_k|^2 as a ScanResult plus the
    complex amplitude vector (c_0, c_1, ..., c_K) with c_0 the residual pump
    amplitude.  The cascade follows the product rule
    c_k = -e^{-i phi_k} sin(theta_k) * prod_{j<k} cos(theta_j).
    One photon stays in the single-excitation subspace, so the cascade acts
    on the K + 1 amplitudes alone: O(K) work, no Fock state is built.
    """
    freqs = spec.idler_frequencies
    registry = ModeRegistry(
        [("pump", spec.pump_frequency, 1)]
        + [(f"idler{k}", f_i, 1) for k, f_i in enumerate(freqs, start=1)]
    )
    # c_m of sum_m c_m a_m^dag |0>: converter k mixes the pump entry with entry k
    c = np.zeros(len(freqs) + 1, dtype=complex)
    c[0] = 1.0
    for k, (_, theta_k, phi_k) in enumerate(spec.channels, start=1):
        c[[0, k]] = Converter("pump", f"idler{k}", theta_k, phi_k).heisenberg[0] @ c[[0, k]]
    total = float(np.sum(np.abs(c) ** 2))
    if not abs(total - 1.0) <= 1e-10:
        raise AssertionError(
            f"single-excitation amplitudes lost normalization: sum |c|^2 = {total}"
        )

    return ScanResult(
        abscissa_label="channel",
        column_labels=("idler_frequency", "probability"),
        abscissa=np.arange(1, len(freqs) + 1),
        values=np.column_stack((freqs, np.abs(c[1:]) ** 2)),
        metadata=_meta(
            "fock",
            cutoffs=registry,
            pump_frequency=spec.pump_frequency,
            residual_pump_probability=float(np.abs(c[0]) ** 2),
        ),
    ), c
