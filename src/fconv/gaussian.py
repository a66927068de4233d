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

from .devices import (
    Amplifier, Attenuator, Converter, Device, PhaseShift, TrilinearCoupler, mode_matrix
)
from .errors import NonGaussianDevice
from .fock import State, _factor_tensor, destroy
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
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance matrix not symmetric within 1e-12")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cov", cov)


def vacuum_gaussian(registry: ModeRegistry) -> GaussianState:
    return coherent_gaussian(registry, {})


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


def _conj_rotation(phi: float) -> np.ndarray:
    # action of multiplying a^dag by e^{i phi} on the (x, p) components
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [s, -c]])


def device_symplectic(registry: ModeRegistry, dev: Device) -> np.ndarray:
    """2M x 2M quadrature transfer matrix of a unitary Gaussian device."""
    S = np.eye(2 * registry.num_modes)

    def blk(i, j):
        return np.s_[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]

    if isinstance(dev, (Converter, PhaseShift)):
        # a -> U a; with a = x + i p, an entry u acts as [[Re u, -Im u], [Im u, Re u]]
        U = mode_matrix(dev)
        x = 2 * np.array([registry.index(m) for m in dev.modes])
        p = x + 1
        S[x[:, None], x] = S[p[:, None], p] = U.real
        S[p[:, None], x] = U.imag
        S[x[:, None], p] = -U.imag
        return S
    if isinstance(dev, Amplifier):
        s_, i = registry.index(dev.signal_mode), registry.index(dev.idler_mode)
        ch, sh = np.cosh(dev.squeeze), np.sinh(dev.squeeze)
        S[blk(s_, s_)] = S[blk(i, i)] = ch * np.eye(2)
        S[blk(s_, i)] = S[blk(i, s_)] = -sh * _conj_rotation(dev.phi_p)
        return S
    if isinstance(dev, TrilinearCoupler):
        raise NonGaussianDevice("trilinear coupler is not a Gaussian transformation")
    raise NonGaussianDevice(f"{type(dev).__name__} has no symplectic representation")


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


def compile_gaussian(registry: ModeRegistry, devices):
    """GaussianState -> GaussianState through ``devices`` as one (X, Y), folded from
    the first device's map on the first run (a NonGaussianDevice raises there)."""
    channel = None

    def run(state: GaussianState) -> GaussianState:
        nonlocal channel
        if not devices:
            return state
        if channel is None:
            channel = functools.reduce(_then, [_moment_map(registry, d) for d in devices])
        return GaussianState(state.registry, *_then((state.means, state.cov), channel))

    return run


def gaussian_apply(state: GaussianState, dev: Device) -> GaussianState:
    """Moment-level action of one device: symplectic map, or the loss CP map."""
    return compile_gaussian(state.registry, (dev,))(state)


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
# cross-backend bridge: first and second quadrature moments of a Fock state


def _quadrature_ops(dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = destroy(dim)
    x = (a + a.conj().T) / 2
    p = (a - a.conj().T) / 2j
    return x, p


def moments_from_fock(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Means vector and symmetrized covariance matrix of any Fock-backend state.

    Returned in the Gaussian backend's (x_1, p_1, ...) ordering, so the two
    backends can be compared entry by entry.
    """
    reg = state.registry
    M = reg.num_modes
    # rho = W W^dag: every moment is a sum over the factor's columns; X W for
    # each quadrature X = x_m, p_m, in the backend's ordering
    W = _factor_tensor(state)
    transformed = [
        np.moveaxis(np.tensordot(op, W, axes=(1, m)), 0, m).reshape(-1)
        for m in range(M)
        for op in _quadrature_ops(reg.dims[m])
    ]
    flat = W.reshape(-1)
    means = np.array([np.vdot(flat, v).real for v in transformed])
    second = np.empty((2 * M, 2 * M))
    for j in range(2 * M):
        for k in range(2 * M):
            second[j, k] = np.vdot(transformed[j], transformed[k]).real
    second = (second + second.T) / 2
    cov = second - np.outer(means, means)
    return means, cov
