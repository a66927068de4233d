"""Dense references for tests: the device unitary as one full matrix, the
single-photon WDM cascade on the full Fock registry, and the quadratures as
dense single-mode matrices.

`fconv.devices.device_unitary` keeps a device's unitary as chain blocks,
built on demand, and never forms the dim x dim matrix; tests that compare against a dense oracle
(scipy's expm, Heisenberg-picture operators) scatter the blocks into one.
`fconv.experiments.run_wdm` propagates only the single-excitation
amplitudes; `wdm_fock_cascade` runs the same cascade on every Fock state.
`fconv.fock` applies a quadrature to a state's factor by ladder shifts;
`dense_quadrature_variance` and `dense_moments` multiply by the (d, d) matrix.
"""

import numpy as np

from fconv import Circuit, Converter, FockDensityOp, ModeRegistry, compile_circuit, make_fock
from fconv.devices import device_unitary


def dense_unitary(registry, dev) -> np.ndarray:
    """The (dim, dim) unitary of ``dev`` on ``registry``, identity off its chains;
    every chain group is built, reached by a state or not."""
    U = np.eye(registry.dim, dtype=complex)
    groups = device_unitary(registry, dev)
    for g, (idx, _) in enumerate(groups):
        U[idx[:, :, None], idx[:, None, :]] = groups.build(g)
    return U


def wdm_fock_cascade(spec) -> np.ndarray:
    """(c_0, c_1, ..., c_K) of ``run_wdm``'s photon, from the converter cascade
    applied to |1, 0, ..., 0> on K + 1 cutoff-1 modes: 2^(K+1) states."""
    K = len(spec.channels)
    registry = ModeRegistry(
        [("pump", spec.pump_frequency, 1)]
        + [(f"idler{k}", f, 1) for k, f in enumerate(spec.idler_frequencies, start=1)]
    )
    cascade = Circuit(
        registry,
        tuple(
            Converter("pump", f"idler{k}", theta, phi)
            for k, (_, theta, phi) in enumerate(spec.channels, start=1)
        ),
    )
    out = compile_circuit(cascade)(make_fock(registry, [1] + [0] * K))
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
