"""Gaussian (means + covariance) backend for the bilinear devices.

Quadrature ordering is (x_1, p_1, ..., x_M, p_M) with x = (a + a^dag)/2 and
p = (a - a^dag)/(2i); vacuum has zero means and covariance I/4.  A coherent
amplitude alpha maps to means (Re alpha, Im alpha), which pins the calibration
so that a coherent state of amplitude 1 reads mean photon number 1 in both
backends.

This ordering is stated here once and relied on everywhere; it is the single
biggest source of silent bugs in Gaussian codes, so do not reorder.

States, moment maps and observables may carry leading point axes: a scan's
points stack into one state, each device position into one map, shared by
every point or stacked over them, and one affine step moves the whole stack.
A single state or device is the case with no point axis.  `gaussian_sweep`
runs a whole scan this way, and `gaussian_space` sizes no Fock box.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .devices import Attenuator, Device, bind_reads, heisenberg_uv
from .errors import NonGaussianDevice
from .fock import PureState
from .registry import ModeRegistry

VACUUM_VARIANCE = 0.25


@dataclass(frozen=True)
class GaussianState:
    """Means (..., 2M) and covariance (..., 2M, 2M).  Leading axes index the points
    of a sweep; a covariance shared by every point carries none."""

    registry: ModeRegistry  # labels and order; this backend reads no cutoff
    means: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        n = 2 * self.registry.num_modes
        means = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if means.shape[-1:] != (n,) or cov.shape not in ((n, n), means.shape + (n,)):
            raise ValueError(f"expected means (..., {n}) and cov ({n},{n}) or (..., {n},{n}) alike")
        asymmetry = abs(cov - np.swapaxes(cov, -1, -2)).max()
        if not (np.isfinite(means).all() and asymmetry <= 1e-12):  # nan fails <=
            raise ValueError("means and covariance must be finite, cov symmetric within 1e-12")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cov", cov)


def coherent_gaussian(registry: ModeRegistry, alphas: dict) -> GaussianState:
    """Coherent amplitudes per mode label, each a number or an array over the points
    of a sweep; unspecified modes are vacuum, and every point shares the covariance."""
    n = 2 * registry.num_modes
    alphas = {label: np.asarray(alpha) for label, alpha in alphas.items()}
    means = np.zeros(np.broadcast_shapes(*(a.shape for a in alphas.values())) + (n,))
    for label, alpha in alphas.items():
        bad = alpha[~(abs(alpha) < np.inf)]  # nan fails < too
        if bad.size:
            raise ValueError(
                f"coherent amplitude on mode {label!r} must be finite, got {bad[0].item()}"
            )
        m = registry.index(label)
        means[..., 2 * m], means[..., 2 * m + 1] = alpha.real, alpha.imag
    return GaussianState(registry, means, VACUUM_VARIANCE * np.eye(n))


def _local_map(devs):
    """(X, Y) over the (x, p) rows of one device's modes, or stacked over a list of one
    kind: loss at transmission T scales each quadrature by sqrt(T) and adds (1 - T)/4;
    a unitary a -> U a + V a^dag adds nothing (Y None), and with a = x + i p takes
    x -> Re(U + V) x - Im(U - V) p and p -> Im(U + V) x + Re(U - V) p."""
    stacked = isinstance(devs, list)
    dev = devs[0] if stacked else devs
    if isinstance(dev, Attenuator):
        T = np.asarray([d.transmission for d in devs] if stacked else dev.transmission)
        T = T[..., None, None]  # one 2 x 2 block per device
        return np.sqrt(T) * np.eye(2), (1.0 - T) * VACUUM_VARIANCE * np.eye(2)
    uv = heisenberg_uv(devs)
    if uv is None:
        raise NonGaussianDevice(f"{type(dev).__name__} is not a Gaussian transformation")
    U, V = uv
    P, Q, k = U + V, U - V, 2 * U.shape[-1]
    B = np.empty(U.shape[:-2] + (k, k))
    B[..., ::2, ::2], B[..., ::2, 1::2], B[..., 1::2, ::2], B[..., 1::2, 1::2] = (
        P.real, -Q.imag, P.imag, Q.real
    )
    return B, None


def _moment_map(registry: ModeRegistry, devs):
    """(X, Y): means -> X means, cov -> X cov X^T + Y; Y is None if no device is lossy.

    ``devs`` is one device, or a list of one device per point, whose maps stack
    on a leading point axis: the devices of one kind on the same modes are
    mapped in one call, and each such group's local blocks are written over the
    identity on its modes' (x, p) rows.
    """
    stacked = isinstance(devs, list)
    kinds = {}
    for i, dev in enumerate(devs if stacked else [devs]):
        kinds.setdefault((type(dev), dev.modes), []).append(i)
    n, lead = 2 * registry.num_modes, (len(devs),) if stacked else ()
    X, Y = np.broadcast_to(np.eye(n), lead + (n, n)).copy(), None
    for (_, modes), at in kinds.items():
        B, C = _local_map([devs[i] for i in at] if stacked else devs)
        q = np.array([2 * registry.index(m) + j for m in modes for j in (0, 1)])  # x, p rows
        rows = (np.array(at)[:, None, None], q[:, None], q) if stacked else (q[:, None], q)
        X[rows] = B
        if C is not None:
            Y = np.zeros_like(X) if Y is None else Y
            Y[rows] = C
    return X, Y


def _then(first, second):
    """(X a, X b X^T + Y): ``second`` = (X, Y) after a state or channel ``first`` = (a, b).
    Any of them may carry a leading point axis; a state's means enter as a column."""
    (a, b), (X, Y) = first, second
    if b is not None:
        b = X @ b @ np.swapaxes(X, -1, -2)
        Y = b if Y is None else b + Y
    return X @ a, Y


def _fold(registry: ModeRegistry, positions):
    """The devices at ``positions``, in order, folded into one moment map (X, Y), or
    None for no device; each position is one device or a list of one per point."""
    maps = [_moment_map(registry, devs) for devs in positions]
    return functools.reduce(_then, maps) if maps else None


def _step(state: GaussianState, channel) -> GaussianState:
    """One affine step of a moment map (X, Y) over the state, or the state for None."""
    if channel is None:
        return state
    means, cov = _then((state.means[..., None], state.cov), channel)
    return GaussianState(state.registry, means[..., 0], cov)


def gaussian_apply(state: GaussianState, dev: Device) -> GaussianState:
    """Moment-level action of one device: symplectic map, or the loss CP map."""
    return _step(state, _moment_map(state.registry, dev))


def gaussian_mean_photon(state: GaussianState, mode: str):
    """Mean photon number of ``mode``, one per point of a stacked state."""
    m = state.registry.index(mode)
    x, p = state.means[..., 2 * m], state.means[..., 2 * m + 1]
    vx = state.cov[..., 2 * m, 2 * m]
    vp = state.cov[..., 2 * m + 1, 2 * m + 1]
    return vx + vp - 0.5 + x**2 + p**2


def gaussian_quadrature_variance(state: GaussianState, mode: str, phase: float):
    """Variance of X_phi = x cos(phi) + p sin(phi), the Fock backend's
    (a e^{-i phi} + a^dag e^{i phi}) / 2; exactly V_xx at phase 0.  One per point."""
    i = 2 * state.registry.index(mode)
    V = state.cov
    c, s = np.cos(phase), np.sin(phase)
    return c * c * V[..., i, i] + 2 * c * s * V[..., i, i + 1] + s * s * V[..., i + 1, i + 1]


# ---------------------------------------------------------------------------
# the Gaussian backend's space and sweep (see `experiments._backend`)


def gaussian_space(modes, points) -> ModeRegistry:
    """Moments need no Fock box: every cutoff is 1 whatever the points; no code reads it."""
    return ModeRegistry([(label, f, 1) for label, f in modes])


def gaussian_sweep(registry: ModeRegistry, points, reads) -> np.ndarray:
    """Every point at once on the Gaussian backend.  The inputs, coherent only, stack
    into one means array; each device position is one moment map, shared if every
    point holds the same device object and stacked over the points otherwise; one
    affine step moves the stack, and each read is one call over it."""
    read = {"photons": gaussian_mean_photon, "variance": gaussian_quadrature_variance}
    calls = bind_reads(read, reads, "Gaussian")
    out = np.empty((len(points), len(reads)))
    if not points:
        return out
    devices, inputs = zip(*points)
    positions = [devs[0] if all(d is devs[0] for d in devs) else list(devs)
                 for devs in zip(*devices, strict=True)]  # every point holds one per position
    labels = dict.fromkeys(label for alphas in inputs for label in alphas)
    amplitudes = {label: [a.get(label, 0.0) for a in inputs] for label in labels}
    for label, alphas in amplitudes.items():
        if any(isinstance(a, PureState) for a in alphas):
            raise NonGaussianDevice(f"a Fock-state input on mode {label!r} is not Gaussian")
    state = _step(coherent_gaussian(registry, amplitudes), _fold(registry, positions))
    for j, (f, args) in enumerate(calls):
        out[:, j] = f(state, *args)
    return out
