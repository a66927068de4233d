"""Dense references for tests: the device unitary as one full matrix, the
single-photon WDM cascade on the full Fock registry, and the quadratures as
dense single-mode matrices.

`fconv.devices.device_unitary` keeps a device's unitary as chain blocks,
built on demand, and never forms the dim x dim matrix; tests that compare against a dense oracle
(scipy's expm, Heisenberg-picture operators) scatter the blocks into one.
Each block comes from `fconv.devices.expm` on its row of a stack that a build
scales by a phase column formed once per device; `reference_block` forms one block
with its own phase, as a per-block formula.
`fconv.experiments.run_wdm` propagates only the single-excitation
amplitudes; `wdm_fock_cascade` runs the same cascade on every Fock state.
`fconv.fock` applies a quadrature to a state's factor by ladder shifts;
`dense_quadrature_variance` and `dense_moments` multiply by the (d, d) matrix.
`fconv.gaussian._local_map` forms every unitary Gaussian device's quadrature
block from its ``heisenberg`` (U, V), and `fconv.gaussian._moment_map` writes it
over the identity; `reference_symplectic` writes the passive devices from their
mode matrix and the amplifier by hand, 2 x 2 block by block.
"""

import numpy as np

from fconv import (
    Amplifier,
    Converter,
    FockDensityOp,
    ModeRegistry,
    NonGaussianDevice,
    PhaseShift,
    compile_circuit,
    make_fock,
)
from fconv.devices import device_unitary


def dense_unitary(registry, dev) -> np.ndarray:
    """The (dim, dim) unitary of ``dev`` on ``registry``, identity off its chains;
    every chain group is built, reached by a state or not."""
    U = np.eye(registry.dim, dtype=complex)
    groups = device_unitary(registry, dev)
    for g, (idx, _) in enumerate(groups):
        U[idx[:, :, None], idx[:, None, :]] = groups.build(g)
    return U


def reference_block(c, w, V) -> np.ndarray:
    """exp(K) of one chain block K = c L - c^* L^dag from T = V diag(w) V^T, the
    real tridiagonal of its ladder elements: D V diag(e^{-i|c|w}) V^T D^dag with
    D = diag(u^k), u = i e^{i angle(c)}, every factor formed for this block alone."""
    DV = (1j * np.exp(1j * np.angle(c))) ** np.arange(len(w))[:, None] * V
    return (DV * np.exp(-1j * abs(c) * w)) @ DV.conj().T


def mode_matrix(dev) -> np.ndarray:
    """U of a passive device on ``dev.modes``: a -> U a, and so single-photon
    amplitudes c (of sum_m c_m a_m^dag |0>) -> U c."""
    if isinstance(dev, Converter):
        c, s, e = np.cos(dev.theta), np.sin(dev.theta), np.exp(1j * dev.phi_s)
        return np.array([[c, e * s], [-e.conjugate() * s, c]])
    if isinstance(dev, PhaseShift):
        return np.array([[np.exp(1j * dev.phi)]])
    raise TypeError(f"{type(dev).__name__} is not a passive device")


def _conj_rotation(phi: float) -> np.ndarray:
    # action of multiplying a^dag by e^{i phi} on the (x, p) components
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [s, -c]])


def reference_symplectic(registry, dev) -> np.ndarray:
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
    raise NonGaussianDevice(f"{type(dev).__name__} is not a Gaussian transformation")


def wdm_fock_cascade(spec) -> np.ndarray:
    """(c_0, c_1, ..., c_K) of ``run_wdm``'s photon, from the converter cascade
    applied to |1, 0, ..., 0> on K + 1 cutoff-1 modes: 2^(K+1) states."""
    K = len(spec.channels)
    registry = ModeRegistry(
        [("pump", spec.pump_frequency, 1)]
        + [(f"idler{k}", f, 1) for k, f in enumerate(spec.idler_frequencies, start=1)]
    )
    cascade = [
        Converter("pump", f"idler{k}", theta, phi)
        for k, (_, theta, phi) in enumerate(spec.channels, start=1)
    ]
    out = compile_circuit(registry, cascade)(make_fock(registry, [1] + [0] * K))
    amp = out.amplitudes.reshape(registry.dims)
    # the photon in mode m: occupation 1 on axis m, 0 elsewhere
    return np.array([amp[tuple(np.eye(K + 1, dtype=int)[m])] for m in range(K + 1)])


def destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a (dim)-level truncated space."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def _factor(state) -> np.ndarray:
    """W of rho = W W^dag, one axis per mode and a last axis per column."""
    W = state.factor if isinstance(state, FockDensityOp) else state.amplitudes[:, None]
    return W.reshape(state.registry.dims + W.shape[1:])


def _applied(op, W, m) -> np.ndarray:
    """The single-mode matrix ``op`` applied along axis m of W, flattened."""
    return np.moveaxis(np.tensordot(op, W, axes=(1, m)), 0, m).reshape(-1)


def dense_quadrature_variance(state, mode: str, phase: float) -> float:
    """Variance of X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2 from its dense matrix."""
    m = state.registry.index(mode)
    a = destroy(state.registry.dims[m])
    x = (a * np.exp(-1j * phase) + a.conj().T * np.exp(1j * phase)) / 2
    W = _factor(state)
    xW = _applied(x, W, m)
    ex = np.vdot(W.reshape(-1), xW).real
    return float(np.vdot(xW, xW).real - ex**2)


def dense_moments(state) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetrized covariance in (x_1, p_1, ...) order, from the dense
    x = (a + a^dag) / 2 and p = (a - a^dag) / (2i) of each mode."""
    W = _factor(state)
    transformed = []
    for m, d in enumerate(state.registry.dims):
        a = destroy(d)
        transformed += [_applied((a + a.conj().T) / 2, W, m), _applied((a - a.conj().T) / 2j, W, m)]
    flat = W.reshape(-1)
    means = np.array([np.vdot(flat, v).real for v in transformed])
    second = np.array([[np.vdot(u, v).real for v in transformed] for u in transformed])
    return means, (second + second.T) / 2 - np.outer(means, means)
