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

from dataclasses import dataclass

import numpy as np

from .devices import Amplifier, Attenuator, Converter, Device, PhaseShift, TrilinearCoupler
from .errors import NonGaussianDevice
from .fock import State, _apply_on_axes, _factor_tensor, destroy
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


def symplectic_form(num_modes: int) -> np.ndarray:
    """Omega = diag of [[0, 1], [-1, 0]] blocks in (x, p) ordering."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(num_modes), J)


def vacuum_gaussian(registry: ModeRegistry) -> GaussianState:
    n = 2 * registry.num_modes
    return GaussianState(registry, np.zeros(n), VACUUM_VARIANCE * np.eye(n))


def coherent_gaussian(registry: ModeRegistry, alphas: dict[str, complex]) -> GaussianState:
    """Coherent amplitudes per mode label; unspecified modes are vacuum."""
    state = vacuum_gaussian(registry)
    means = state.means.copy()
    for label, alpha in alphas.items():
        m = registry.index(label)
        means[2 * m] = np.real(alpha)
        means[2 * m + 1] = np.imag(alpha)
    return GaussianState(registry, means, state.cov)


def _rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def _conj_rotation(phi: float) -> np.ndarray:
    # action of multiplying a^dag by e^{i phi} on the (x, p) components
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [s, -c]])


def device_symplectic(registry: ModeRegistry, dev: Device) -> np.ndarray:
    """2M x 2M quadrature transfer matrix of a unitary Gaussian device."""
    M = registry.num_modes
    S = np.eye(2 * M)

    def blk(i, j):
        return np.s_[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]

    if isinstance(dev, Converter):
        p, i = registry.index(dev.pump_mode), registry.index(dev.idler_mode)
        c, s = np.cos(dev.theta), np.sin(dev.theta)
        S[blk(p, p)] = c * np.eye(2)
        S[blk(p, i)] = s * _rotation(dev.phi_s)
        S[blk(i, i)] = c * np.eye(2)
        S[blk(i, p)] = -s * _rotation(-dev.phi_s)
        return S
    if isinstance(dev, Amplifier):
        s_, i = registry.index(dev.signal_mode), registry.index(dev.idler_mode)
        ch, sh = np.cosh(dev.squeeze), np.sinh(dev.squeeze)
        S[blk(s_, s_)] = ch * np.eye(2)
        S[blk(i, i)] = ch * np.eye(2)
        S[blk(s_, i)] = -sh * _conj_rotation(dev.phi_p)
        S[blk(i, s_)] = -sh * _conj_rotation(dev.phi_p)
        return S
    if isinstance(dev, PhaseShift):
        m = registry.index(dev.mode)
        S[blk(m, m)] = _rotation(dev.phi)
        return S
    if isinstance(dev, TrilinearCoupler):
        raise NonGaussianDevice("trilinear coupler is not a Gaussian transformation")
    raise NonGaussianDevice(f"{type(dev).__name__} has no symplectic representation")


def gaussian_apply(state: GaussianState, dev: Device) -> GaussianState:
    """Moment-level action of a device: symplectic map, or the loss CP map."""
    reg = state.registry
    if isinstance(dev, Attenuator):
        m = reg.index(dev.mode)
        T = dev.transmission
        X = np.eye(2 * reg.num_modes)
        X[2 * m, 2 * m] = X[2 * m + 1, 2 * m + 1] = np.sqrt(T)
        Y = np.zeros_like(X)
        Y[2 * m, 2 * m] = Y[2 * m + 1, 2 * m + 1] = (1.0 - T) * VACUUM_VARIANCE
        return GaussianState(reg, X @ state.means, X @ state.cov @ X.T + Y)
    S = device_symplectic(reg, dev)
    return GaussianState(reg, S @ state.means, S @ state.cov @ S.T)


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

    ops = []
    for m in range(M):
        x, p = _quadrature_ops(reg.dims[m])
        ops.append((m, x))
        ops.append((m, p))
    # rho = W W^dag: every moment is a sum over the factor's columns
    W = _factor_tensor(state)
    transformed = [_apply_on_axes(W, op, (axis,)).reshape(-1) for axis, op in ops]
    flat = W.reshape(-1)
    means = np.array([np.vdot(flat, v).real for v in transformed])
    second = np.empty((2 * M, 2 * M))
    for j in range(2 * M):
        for k in range(2 * M):
            second[j, k] = np.vdot(transformed[j], transformed[k]).real
    second = (second + second.T) / 2
    cov = second - np.outer(means, means)
    return means, cov
