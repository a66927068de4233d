"""Exact state representation and channels in a truncated multimode Fock space.

Conventions (fixed once, used everywhere):
  * basis ordering: row-major multi-index, mode 1 slowest (see registry.py);
  * quadratures: X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2, so the vacuum
    variance is 1/4 for every phase.

Everything here is a pure function returning new values; states are never
mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import comb, gammaln
from scipy.stats import poisson

from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    OccupationExceedsCutoff,
    TransmissionOutOfRange,
)
from .registry import ModeRegistry

# Maximum Poisson tail mass a truncated coherent state may discard.
COHERENT_TAIL_TOL = 1e-10


def destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a (dim)-level truncated space."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim).astype(complex))


def annihilation_matrix(registry: ModeRegistry, mode: str) -> np.ndarray:
    """Full-space annihilation operator for one mode (Kronecker embedding)."""
    m = registry.index(mode)
    op = np.array([[1.0 + 0j]])
    for i, d in enumerate(registry.dims):
        factor = destroy(d) if i == m else np.eye(d, dtype=complex)
        op = np.kron(op, factor)
    return op


@dataclass(frozen=True)
class PureState:
    registry: ModeRegistry
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.registry.dim,):
            raise DimensionMismatch(
                f"amplitude vector has shape {amp.shape}, registry dim is {self.registry.dim}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "amplitudes", amp)

    def tensorized(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per mode."""
        return self.amplitudes.reshape(self.registry.dims)


@dataclass(frozen=True)
class FockDensityOp:
    registry: ModeRegistry
    matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        d = self.registry.dim
        if rho.shape != (d, d):
            raise DimensionMismatch(f"density matrix shape {rho.shape}, registry dim {d}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "matrix", rho)

    def tensorized(self) -> np.ndarray:
        dims = self.registry.dims
        return self.matrix.reshape(dims + dims)


State = PureState | FockDensityOp


# ---------------------------------------------------------------------------
# constructors


def make_vacuum(registry: ModeRegistry) -> PureState:
    amp = np.zeros(registry.dim, dtype=complex)
    amp[0] = 1.0
    return PureState(registry, amp)


def make_fock(registry: ModeRegistry, occupations) -> PureState:
    occupations = [int(n) for n in occupations]
    if len(occupations) != registry.num_modes:
        raise DimensionMismatch(
            f"{len(occupations)} occupations for {registry.num_modes} modes"
        )
    for n, mode in zip(occupations, registry.modes):
        if n < 0:
            raise ValueError(f"negative occupation {n} on mode {mode.label!r}")
        if n > mode.cutoff:
            raise OccupationExceedsCutoff(
                f"occupation {n} exceeds cutoff {mode.cutoff} on mode {mode.label!r}"
            )
    amp = np.zeros(registry.dim, dtype=complex)
    amp[registry.flat_index(occupations)] = 1.0
    return PureState(registry, amp)


def coherent_required_cutoff(alpha: complex, tol: float = COHERENT_TAIL_TOL) -> int:
    """Smallest cutoff whose Poisson tail mass beyond it is <= tol."""
    mu = abs(alpha) ** 2
    if mu == 0.0:
        return 1
    c = int(poisson.isf(tol, mu))
    while poisson.sf(c, mu) > tol:
        c += 1
    while c > 1 and poisson.sf(c - 1, mu) <= tol:
        c -= 1
    return max(c, 1)


def make_coherent(registry: ModeRegistry, mode: str, alpha: complex) -> PureState:
    """Truncated coherent state |alpha> in one mode, vacuum elsewhere.

    Fails loudly (CutoffTooSmall) if the discarded Poisson tail mass exceeds
    COHERENT_TAIL_TOL, rather than silently renormalizing a bad truncation.
    """
    m = registry.index(mode)
    cutoff = registry.cutoffs[m]
    mu = abs(alpha) ** 2
    tail = poisson.sf(cutoff, mu) if mu > 0 else 0.0
    if tail > COHERENT_TAIL_TOL:
        need = coherent_required_cutoff(alpha)
        raise CutoffTooSmall(
            f"coherent alpha={alpha} needs cutoff >= {need} on mode {mode!r} "
            f"(have {cutoff}, tail mass {tail:.3e})",
            required_cutoff=need,
        )
    n = np.arange(cutoff + 1)
    # log-domain to stay finite for large |alpha|
    if mu > 0:
        logmag = n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1) - mu / 2
        vec = np.exp(logmag) * np.exp(1j * n * np.angle(alpha))
    else:
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0] = 1.0
    vec = vec / np.linalg.norm(vec)
    full = np.zeros(registry.dims, dtype=complex)
    sl = tuple(slice(None) if i == m else 0 for i in range(registry.num_modes))
    full[sl] = vec
    return PureState(registry, full.reshape(-1))


def product_state(*states: PureState) -> PureState:
    """Tensor product of pure states; registries concatenate in order."""
    regs = []
    amp = np.array([1.0 + 0j])
    for s in states:
        regs.extend((m.label, m.frequency, m.cutoff) for m in s.registry.modes)
        amp = np.kron(amp, s.amplitudes)
    return PureState(ModeRegistry(regs), amp)


def to_density(state: PureState) -> FockDensityOp:
    return FockDensityOp(state.registry, np.outer(state.amplitudes, state.amplitudes.conj()))


# ---------------------------------------------------------------------------
# channels


def _apply_on_axes(tensor: np.ndarray, op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract a k-mode operator onto the given axes of a state tensor."""
    sub = tuple(tensor.shape[a] for a in axes)
    k = len(axes)
    op_t = op.reshape(sub + sub)
    out = np.tensordot(op_t, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, range(k), axes)


def apply_matrix(state: State, op: np.ndarray, modes: tuple[str, ...]) -> State:
    """Apply a (not necessarily unitary-checked) operator on a subset of modes.

    Pure states: psi -> O psi.  Density operators: rho -> O rho O^dag.
    Used by the device layer, which guarantees unitarity by construction.
    """
    reg = state.registry
    axes = tuple(reg.index(m) for m in modes)
    if isinstance(state, PureState):
        out = _apply_on_axes(state.tensorized(), op, axes)
        return PureState(reg, out.reshape(-1))
    m = reg.num_modes
    t = _apply_on_axes(state.tensorized(), op, axes)
    t = _apply_on_axes(t, op.conj(), tuple(a + m for a in axes))
    return FockDensityOp(reg, t.reshape(reg.dim, reg.dim))


def loss_kraus(dim: int, transmission: float) -> list[np.ndarray]:
    """Kraus family of the single-mode pure-loss channel with transmission T.

    K_k |n> = sqrt(C(n,k) (1-T)^k T^(n-k)) |n-k>, k = 0..cutoff.
    """
    ops = []
    for k in range(dim):
        K = np.zeros((dim, dim), dtype=complex)
        n = np.arange(k, dim)
        K[n - k, n] = np.sqrt(
            comb(n, k) * (1.0 - transmission) ** k * transmission ** (n - k).astype(float)
        )
        ops.append(K)
    return ops


def apply_loss(state: State, mode: str, transmission: float) -> FockDensityOp:
    """Single-mode pure-loss (attenuation) channel; always returns a density op."""
    if not 0.0 <= transmission <= 1.0:
        raise TransmissionOutOfRange(f"transmission {transmission} outside [0, 1]")
    rho = state if isinstance(state, FockDensityOp) else to_density(state)
    reg = rho.registry
    axis = reg.index(mode)
    m = reg.num_modes
    d = reg.dims[axis]
    t = rho.tensorized()
    out = np.zeros_like(t)
    for K in loss_kraus(d, transmission):
        term = _apply_on_axes(t, K, (axis,))
        out += _apply_on_axes(term, K.conj(), (axis + m,))
    mat = out.reshape(reg.dim, reg.dim)
    # symmetrize away float round-off before the constructor's Hermiticity gate
    mat = (mat + mat.conj().T) / 2
    return FockDensityOp(reg, mat)


def partial_trace(state: FockDensityOp, keep) -> FockDensityOp:
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    reg = state.registry
    keep_axes = [reg.index(l) for l in keep]
    t = state.tensorized()
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[: reg.num_modes])
    col = [
        letters[reg.num_modes + i] if i in keep_axes else row[i]
        for i in range(reg.num_modes)
    ]
    out_row = [row[i] for i in keep_axes]
    out_col = [col[i] for i in keep_axes]
    spec = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    red = np.einsum(spec, t)
    sub = reg.subregistry(keep)
    return FockDensityOp(sub, red.reshape(sub.dim, sub.dim))


def reduced_density(state: State, keep) -> FockDensityOp:
    """Reduced density operator on the kept modes, for either state kind."""
    if isinstance(state, FockDensityOp):
        return partial_trace(state, keep)
    reg = state.registry
    keep = list(keep)
    keep_axes = [reg.index(l) for l in keep]
    t = np.moveaxis(state.tensorized(), keep_axes, range(len(keep_axes)))
    dk = int(np.prod([reg.dims[i] for i in keep_axes]))
    t = t.reshape(dk, -1)
    red = t @ t.conj().T
    sub = reg.subregistry(keep)
    return FockDensityOp(sub, (red + red.conj().T) / 2)


# ---------------------------------------------------------------------------
# observables


def _single_mode_rdm(state: State, mode: str) -> np.ndarray:
    return reduced_density(state, [mode]).matrix


def mean_photon(state: State, mode: str) -> float:
    reg = state.registry
    axis = reg.index(mode)
    if isinstance(state, PureState):
        probs = np.abs(state.tensorized()) ** 2
    else:
        probs = np.real(np.diagonal(state.matrix)).reshape(reg.dims)
    n = np.arange(reg.dims[axis], dtype=float)
    per_level = np.moveaxis(probs, axis, 0).reshape(reg.dims[axis], -1).sum(axis=1)
    return float(per_level @ n)


def quadrature_variance(state: State, mode: str, phase: float) -> float:
    """Variance of X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2; vacuum gives 1/4."""
    rho = _single_mode_rdm(state, mode)
    d = rho.shape[0]
    x = (destroy(d) * np.exp(-1j * phase) + destroy(d).conj().T * np.exp(1j * phase)) / 2
    ex = np.trace(rho @ x).real
    ex2 = np.trace(rho @ x @ x).real
    return float(ex2 - ex**2)


def fidelity(a: PureState, b: PureState) -> float:
    if a.registry.dims != b.registry.dims:
        raise DimensionMismatch(
            f"state dims differ: {a.registry.dims} vs {b.registry.dims}"
        )
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def fidelity_pure_mixed(psi: PureState, rho: FockDensityOp) -> float:
    """<psi| rho |psi>, the fidelity of a mixed state against a pure target."""
    if psi.registry.dims != rho.registry.dims:
        raise DimensionMismatch(
            f"state dims differ: {psi.registry.dims} vs {rho.registry.dims}"
        )
    v = psi.amplitudes
    return float(np.real(v.conj() @ rho.matrix @ v))
