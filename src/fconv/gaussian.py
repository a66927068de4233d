"""Gaussian (means + covariance) backend for the bilinear devices.

Quadrature ordering is (x_1, p_1, ..., x_M, p_M) with x = (a + a^dag)/2 and
p = (a - a^dag)/(2i); vacuum has zero means and covariance I/4.  A coherent
amplitude alpha maps to means (Re alpha, Im alpha), which pins the calibration
so that a coherent state of amplitude 1 reads mean photon number 1 in both
backends.

This ordering is stated here once and relied on everywhere; it is the single
biggest source of silent bugs in Gaussian codes, so do not reorder.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .devices import Amplifier, Attenuator, Circuit, Converter, Device, PhaseShift
from .errors import NonGaussianDevice
from .fock import State, _factor_tensor, _quadrature
from .registry import ModeRegistry

VACUUM_VARIANCE = 0.25


@dataclass(frozen=True)
class GaussianState:
    registry: ModeRegistry  # cutoffs are ignored by this backend
    means: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        n = 2 * self.registry.num_modes
        means = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if means.shape != (n,) or cov.shape != (n, n):
            raise ValueError(f"expected means ({n},) and cov ({n},{n})")
        if not (np.isfinite(means).all() and abs(cov - cov.T).max() <= 1e-12):  # nan fails <=
            raise ValueError("means and covariance must be finite, cov symmetric within 1e-12")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cov", cov)


def coherent_gaussian(registry: ModeRegistry, alphas: dict[str, complex]) -> GaussianState:
    """Coherent amplitudes per mode label; unspecified modes are vacuum."""
    n = 2 * registry.num_modes
    means = np.zeros(n)
    for label, alpha in alphas.items():
        if not abs(alpha) < np.inf:  # false for nan too
            raise ValueError(f"coherent amplitude on mode {label!r} must be finite, got {alpha}")
        m = registry.index(label)
        means[2 * m : 2 * m + 2] = alpha.real, alpha.imag
    return GaussianState(registry, means, VACUUM_VARIANCE * np.eye(n))


def device_symplectic(registry: ModeRegistry, dev: Device) -> np.ndarray:
    """2M x 2M quadrature transfer matrix of a unitary Gaussian device.

    With a = x + i p, the device's a -> U a + V a^dag sends
    x -> Re(U + V) x - Im(U - V) p and p -> Im(U + V) x + Re(U - V) p.
    """
    if not isinstance(dev, (Converter, Amplifier, PhaseShift)):
        raise NonGaussianDevice(f"{type(dev).__name__} is not a Gaussian transformation")
    U, V = dev.heisenberg
    P, Q = U + V, U - V
    B = np.empty((2 * len(U), 2 * len(U)))
    B[::2, ::2], B[::2, 1::2], B[1::2, ::2], B[1::2, 1::2] = P.real, -Q.imag, P.imag, Q.real
    q = np.array([2 * registry.index(m) + k for m in dev.modes for k in (0, 1)])  # x, p rows
    S = np.eye(2 * registry.num_modes)
    S[q[:, None], q] = B
    return S


def _moment_map(registry: ModeRegistry, dev: Device):
    """(X, Y): means -> X means, cov -> X cov X^T + Y; Y is None for a unitary."""
    if not isinstance(dev, Attenuator):
        return device_symplectic(registry, dev), None
    m, T = registry.index(dev.mode), dev.transmission
    X = np.eye(2 * registry.num_modes)
    X[2 * m, 2 * m] = X[2 * m + 1, 2 * m + 1] = np.sqrt(T)
    Y = np.zeros_like(X)
    Y[2 * m, 2 * m] = Y[2 * m + 1, 2 * m + 1] = (1.0 - T) * VACUUM_VARIANCE
    return X, Y


def _then(first, second):
    """(X a, X b X^T + Y): ``second`` = (X, Y) after a state or channel ``first`` = (a, b)."""
    (a, b), (X, Y) = first, second
    if b is not None:
        b = X @ b @ X.T
        Y = b if Y is None else b + Y
    return X @ a, Y


def compile_gaussian(circuit: Circuit):
    """The circuit's devices as one pure function GaussianState -> GaussianState,
    folded here, at compile time, into one moment map (X, Y): a non-Gaussian
    device raises NonGaussianDevice here, and every run is one affine step."""
    if not circuit.devices:
        return lambda state: state
    channel = functools.reduce(_then, [_moment_map(circuit.registry, d) for d in circuit.devices])

    def run(state: GaussianState) -> GaussianState:
        return GaussianState(state.registry, *_then((state.means, state.cov), channel))

    return run


def gaussian_apply(state: GaussianState, dev: Device) -> GaussianState:
    """Moment-level action of one device: symplectic map, or the loss CP map."""
    return compile_gaussian(Circuit(state.registry, (dev,)))(state)


def gaussian_mean_photon(state: GaussianState, mode: str) -> float:
    m = state.registry.index(mode)
    x, p = state.means[2 * m], state.means[2 * m + 1]
    vx = state.cov[2 * m, 2 * m]
    vp = state.cov[2 * m + 1, 2 * m + 1]
    return float(vx + vp - 0.5 + x**2 + p**2)


def gaussian_quadrature_variance(state: GaussianState, mode: str, phase: float) -> float:
    """Variance of X_phi = x cos(phi) + p sin(phi), the Fock backend's
    (a e^{-i phi} + a^dag e^{i phi}) / 2; exactly V_xx at phase 0."""
    i = 2 * state.registry.index(mode)
    V = state.cov
    c, s = np.cos(phase), np.sin(phase)
    return float(c * c * V[i, i] + 2 * c * s * V[i, i + 1] + s * s * V[i + 1, i + 1])


# ---------------------------------------------------------------------------
# cross-backend bridge: first and second quadrature moments of a Fock state,
# with the Fock backend's own ladder-shift quadratures: x = X_0, p = X_{pi/2}


def moments_from_fock(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Means vector and symmetrized covariance matrix of any Fock-backend state.

    Returned in the Gaussian backend's (x_1, p_1, ...) ordering, so the two
    backends can be compared entry by entry.  Each quadrature acts on the
    factor W by ladder shifts along its mode's axis.
    """
    # rho = W W^dag: every moment is a sum over the factor's columns; row j of
    # XW is X_j W for each quadrature X_j = x_m, p_m, in the backend's ordering
    M = state.registry.num_modes
    W = _factor_tensor(state)
    XW = np.stack([_quadrature(W, m, ph).reshape(-1) for m in range(M) for ph in (0.0, np.pi / 2)])
    means = (XW @ W.reshape(-1).conj()).real
    second = (XW.conj() @ XW.T).real  # <X_j W, X_k W>
    return means, (second + second.T) / 2 - np.outer(means, means)
