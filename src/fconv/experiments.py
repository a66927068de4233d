"""Deterministic scenario runners: each one rebuilds a figure-level claim of
coherent frequency down-conversion as a desk-scale numerical scan.

All runners are pure functions of their parameters and return a ScanResult;
nothing here touches global state, so scan points can be evaluated in
parallel by callers if desired.

Cutoffs follow from conservation: converters, attenuators and the trilinear
coupler never put more photons on a mode than the input holds in total, so each
mode gets the coherent tail of sqrt(sum |alpha|^2) plus any Fock photons.  Only
amplifiers create photons; they keep their own squeezed-vacuum tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .devices import (
    Amplifier,
    Attenuator,
    Circuit,
    Converter,
    TrilinearCoupler,
    amplifier_required_cutoff,
    apply_device,
    compile_circuit,
)
from .errors import EnergyConservationViolation
from .fock import (
    PureState,
    coherent_required_cutoff,
    fidelity_pure_mixed,
    make_coherent,
    make_vacuum,
    mean_photon,
    product_state,
    quadrature_variance,
    reduced_density,
)
from .gaussian import (
    coherent_gaussian, compile_gaussian, gaussian_mean_photon, gaussian_quadrature_variance
)
from .registry import ModeRegistry


@dataclass(frozen=True)
class ScanResult:
    name: str
    abscissa_label: str
    column_labels: tuple[str, ...]
    rows: tuple[tuple[float, tuple[float, ...]], ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "column_labels", tuple(self.column_labels))
        rows = tuple((float(a), tuple(float(v) for v in vals)) for a, vals in self.rows)
        for _, vals in rows:
            if len(vals) != len(self.column_labels):
                raise ValueError("row arity does not match column labels")
        xs = [a for a, _ in rows]
        diffs = np.diff(xs)
        if len(xs) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("abscissa must be strictly monotone")
        object.__setattr__(self, "rows", rows)

    def column(self, label: str) -> np.ndarray:
        j = self.column_labels.index(label)
        return np.array([vals[j] for _, vals in self.rows])

    @property
    def abscissa(self) -> np.ndarray:
        return np.array([a for a, _ in self.rows])


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
    """(prepare, compile, mean_photon, quadrature_variance) of one backend, where
    prepare(registry, {label: alpha}) is a coherent state, vacuum elsewhere, and
    compile(circuit) is the circuit as a function on that backend's states.

    This is the one place that names a backend.  Read from this module's
    bindings on each call, not from a table, so a wrapper on one of those
    names (such as the benchmark tracer) sees it.
    """
    if name == "fock":
        return make_coherent, compile_circuit, mean_photon, quadrature_variance
    if name == "gaussian":
        return (
            coherent_gaussian, compile_gaussian, gaussian_mean_photon, gaussian_quadrature_variance
        )
    raise ValueError(f"unknown backend {name!r}")


def _cutoffs(registry: ModeRegistry) -> str:
    return ";".join(f"{m.label}={m.cutoff}" for m in registry.modes)


def _meta(backend: str, registry: ModeRegistry, **params) -> dict[str, str]:
    meta = {"backend": backend}
    meta["cutoffs"] = _cutoffs(registry)
    for k, v in params.items():
        meta[k] = repr(v) if isinstance(v, (int, float, complex)) else str(v)
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

    prepare, compile_, photons, _ = _backend(backend)
    c = coherent_required_cutoff(alpha_pump)
    registry = ModeRegistry([("pump", 2.0, c), ("idler", 1.0, c)])
    conv = Converter("pump", "idler", theta)
    pump = prepare(registry, {"pump": alpha_pump})

    rows = []
    for T in ts:
        # compiled inline, so each point's unitary is freed before the next is built
        out = compile_(Circuit(registry, (Attenuator("pump", T), conv)))(pump)
        rows.append((T, (photons(out, "idler") + noise_floor,)))

    return ScanResult(
        name="linearity",
        abscissa_label="transmission",
        column_labels=("idler_mean_photons",),
        rows=tuple(rows),
        metadata=_meta(
            backend, registry, theta=theta, alpha_pump=alpha_pump, noise_floor=noise_floor
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
    prepare, compile_, photons, _ = _backend(backend)
    phis = [float(p) for p in phi_p_points]
    total = np.hypot(abs(alpha_pump), abs(alpha_ref))  # one photon budget for all three modes
    c = coherent_required_cutoff(total)
    registry = ModeRegistry([("pump", 2.0, c), ("idler", 1.0, c), ("ref", 1.0, c)])
    conv = Converter("pump", "idler", theta, phi_s)
    combiner = Converter("idler", "ref", np.pi / 4)
    run = compile_(Circuit(registry, (conv, combiner)))

    rows = []
    for phi_p in phis:
        a_p = alpha_pump * np.exp(1j * phi_p)
        state = run(prepare(registry, {"pump": a_p, "ref": alpha_ref}))
        rows.append((phi_p, (photons(state, "idler"),)))

    return ScanResult(
        name="fringe",
        abscissa_label="pump_phase",
        column_labels=("combined_mean_photons",),
        rows=tuple(rows),
        metadata=_meta(
            backend,
            registry,
            alpha_pump=alpha_pump,
            alpha_ref=alpha_ref,
            theta=theta,
            phi_s=phi_s,
        ),
    )


def fringe_visibility(result: ScanResult) -> float:
    """(I_max - I_min) / (I_max + I_min) of the fringe.

    The model output is an exact sinusoid in the scanned phase, so the
    extrema are taken from a least-squares sinusoid fit rather than from the
    sampled points (which would undershoot between samples).
    """
    phi = result.abscissa
    y = result.column(result.column_labels[0])
    basis = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
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
    prepare, compile_, photons, variance = _backend(backend)
    ss = [float(s) for s in strength_points]
    if not all(s >= 0 for s in ss):
        raise ValueError("strengths must be >= 0")

    # one rule for both backends: the converter keeps its vacuum input's zero photons;
    # the amplifier's pair tail feeds the Fock variance, so it is cut well below 1e-8
    c_conv, c_amp = 1, amplifier_required_cutoff(max(ss, default=0.0), tail_tol=1e-10)
    reg_conv = ModeRegistry([("pump", 2.0, c_conv), ("idler", 1.0, c_conv)])
    reg_amp = ModeRegistry([("signal", 1.2, c_amp), ("idler", 0.8, c_amp)])
    vac_conv, vac_amp = prepare(reg_conv, {}), prepare(reg_amp, {})

    rows = []
    for s in ss:
        # compiled circuits are dropped once run, so only one device's blocks are
        # held at a time; the chain walks of the two boxes are cached and shared
        conv = Circuit(reg_conv, (Converter("pump", "idler", s),))
        amp = Circuit(reg_amp, (Amplifier("signal", "idler", s),))
        cstate = compile_(conv)(vac_conv)
        astate = compile_(amp)(vac_amp)
        v_conv = variance(cstate, "idler", 0.0)
        v_amp = variance(astate, "idler", 0.0)
        rows.append((s, (v_conv, v_amp, photons(astate, "idler"))))

    return ScanResult(
        name="noise_comparison",
        abscissa_label="strength",
        column_labels=(
            "converter_variance",
            "amplifier_variance",
            "amplifier_spontaneous_photons",
        ),
        rows=tuple(rows),
        metadata=_meta(backend, reg_amp, converter_cutoffs=_cutoffs(reg_conv)),
    )


# ---------------------------------------------------------------------------
# pump depletion: trilinear dynamics converging to the beam-splitter picture


def run_depletion_convergence(alpha_s_points, theta: float, pump_input: PureState) -> ScanResult:
    """Exact trilinear evolution with a coherent signal of growing amplitude,
    holding eta_tau * |alpha_s| = theta, compared against the linearized
    converter.  Fidelity of the reduced pump+idler output against the
    converter prediction approaches one as the signal becomes classical.

    The signal cutoff is the coherent tail of alpha_s plus the pump cutoff:
    the coupler conserves n_p + n_s, so it clips no chain it reaches.  The
    metadata's `cutoffs` name the pump and idler; `signal_cutoffs` gives the
    signal cutoff of each amplitude.
    """
    if pump_input.registry.num_modes != 1:
        raise ValueError("pump_input must live on a single mode")
    alphas = [float(a) for a in alpha_s_points]
    if any(a <= 0 for a in alphas):
        raise ValueError("signal amplitudes must be > 0")
    c_p = pump_input.registry.cutoffs[0]

    # linearized prediction: same pump input through a converter at theta
    reg2 = ModeRegistry([("pump", 2.0, c_p), ("idler", 1.0, c_p)])
    pump = PureState(ModeRegistry([("pump", 2.0, c_p)]), pump_input.amplitudes)
    target = apply_device(
        product_state(pump, make_vacuum(ModeRegistry([("idler", 1.0, c_p)]))),
        Converter("pump", "idler", theta),
    )

    rows, signal_cutoffs = [], [coherent_required_cutoff(a) + c_p for a in alphas]
    for a_s, c_s in zip(alphas, signal_cutoffs):
        signal_idler = ModeRegistry([("signal", 1.0, c_s), ("idler", 1.0, c_p)])
        state = product_state(pump, make_coherent(signal_idler, {"signal": a_s}))
        coupler = TrilinearCoupler("pump", "signal", "idler", eta_tau=theta / a_s)
        reduced = reduced_density(apply_device(state, coupler), ["pump", "idler"])
        rows.append((a_s, (fidelity_pure_mixed(target, reduced),)))

    return ScanResult(
        name="depletion_convergence",
        abscissa_label="alpha_s",
        column_labels=("fidelity_vs_converter",),
        rows=tuple(rows),
        metadata=_meta(
            "fock", reg2, theta=theta, pump_cutoff=c_p,
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

    rows = tuple((float(k), (f, float(np.abs(c[k]) ** 2))) for k, f in enumerate(freqs, start=1))
    result = ScanResult(
        name="wdm",
        abscissa_label="channel",
        column_labels=("idler_frequency", "probability"),
        rows=rows,
        metadata=_meta(
            "fock",
            registry,
            pump_frequency=spec.pump_frequency,
            residual_pump_probability=float(np.abs(c[0]) ** 2),
        ),
    )
    return result, c
