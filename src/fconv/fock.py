"""Exact state representation and channels in a truncated multimode Fock space.

Conventions (fixed once, used everywhere):
  * basis ordering: row-major multi-index, mode 1 slowest (see registry.py);
  * quadratures: X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2, so the vacuum
    variance is 1/4 for every phase.

Mixed states are stored as a factor, never as a dense density matrix:
rho = W W^dag with W of shape (dim, r).  Each column of W is one branch of
the state's purification, e.g. one photon count lost to an attenuator's
environment, so every channel and observable here acts on W alone, exactly
as on a pure state.  A factor is never wider than tall: a wider result is
narrowed to R^dag from the QR factorisation W^dag = Q R, since R^dag R = W W^dag.

Everything here is a pure function returning new values; states are never
mutated after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CutoffTooSmall,
    DimensionMismatch,
    OccupationExceedsCutoff,
    TransmissionOutOfRange,
)
from .registry import ModeRegistry

# Maximum Poisson tail mass a truncated coherent state may discard.
COHERENT_TAIL_TOL = 1e-10


def annihilation_matrix(registry: ModeRegistry, mode: str) -> np.ndarray:
    """Full-space annihilation operator for one mode (Kronecker embedding):
    a |n> = sqrt(n) |n - 1> on its axis, the identity on every other."""
    m = registry.index(mode)
    op = np.array([[1.0 + 0j]])
    for i, d in enumerate(registry.dims):
        factor = np.diag(np.sqrt(np.arange(1, d)), 1) if i == m else np.eye(d)
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
        if not abs(norm - 1.0) <= 1e-10:  # true for a nan or inf norm too
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class FockDensityOp:
    """Density operator rho = W W^dag, built from its factor W of shape (dim, r) as
    FockDensityOp(registry, factor=W); the trace of rho, |W|^2, must be 1."""

    registry: ModeRegistry
    factor: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        d = self.registry.dim
        W = np.asarray(self.factor, dtype=complex)
        if W.ndim != 2 or W.shape[0] != d:
            raise DimensionMismatch(f"density factor shape {W.shape}, registry dim {d}")
        tr = np.vdot(W, W).real
        if not abs(tr - 1.0) <= 1e-10:  # true for a nan or inf entry too
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond 1e-10")
        if W.shape[1] > d:
            W = np.linalg.qr(W.conj().T, mode="r").conj().T
        object.__setattr__(self, "factor", W)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (dim, dim) density matrix, formed on first use."""
        return self.factor @ self.factor.conj().T


State = PureState | FockDensityOp


# ---------------------------------------------------------------------------
# constructors


def _zeros(registry: ModeRegistry) -> np.ndarray:
    """Zero amplitudes of shape ``registry.dims``, or one MemoryError naming the box."""
    try:
        return np.zeros(registry.dims, dtype=complex)
    except (ValueError, OverflowError, MemoryError):
        size = registry.dim * 16
        raise MemoryError(f"a state on cutoffs {registry.cutoffs} needs {size} bytes") from None


def make_vacuum(registry: ModeRegistry) -> PureState:
    amp = _zeros(registry).reshape(-1)
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
    amp = _zeros(registry).reshape(-1)
    amp[registry.flat_index(occupations)] = 1.0
    return PureState(registry, amp)


def _log_factorials(size: int) -> np.ndarray:
    """log k! for k = 0 .. size - 1."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))


def poisson_tails(mu: float) -> np.ndarray:
    """P(N > c) for c = 0, 1, ... with N ~ Poisson(mu); the last entry is 0.

    The pmf is formed in the log domain and summed from the far end, where
    the mass left out (beyond mu + 12 sqrt(mu) + 60) is below 1e-30, so small
    tails carry no 1 - cdf cancellation.
    """
    size = int(mu + 12 * math.sqrt(mu)) + 61
    if mu == 0.0:
        return np.zeros(size)
    n = np.arange(size)
    pmf = np.exp(n * math.log(mu) - mu - _log_factorials(size))
    return np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)


def coherent_required_cutoff(alpha: complex) -> int:
    """Smallest cutoff >= 1 whose Poisson tail mass beyond it is <= COHERENT_TAIL_TOL."""
    return 1 + int(np.argmax(_coherent_tails(alpha)[1:] <= COHERENT_TAIL_TOL))


def _coherent_tails(alpha: complex, where: str = "") -> np.ndarray:
    """poisson_tails(|alpha|^2), refused in one line unless alpha is finite, its
    square is too, and the tails array fits in memory."""
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude{where} must be finite, got {alpha}")
    if not abs(alpha) < 2.0**511:
        raise ValueError(f"coherent amplitude {alpha} is too large for any Fock cutoff")
    mu = abs(alpha) ** 2
    try:
        return poisson_tails(mu)
    except (ValueError, MemoryError):  # numpy refuses an array of the tails' length
        size = 8 * (int(mu + 12 * math.sqrt(mu)) + 61)
        raise MemoryError(
            f"sizing the cutoff of coherent amplitude {alpha}{where} needs {size} bytes"
        ) from None


def _coherent_vector(mode: str, cutoff: int, alpha: complex) -> np.ndarray:
    """Normalized amplitudes of |alpha> on levels 0..cutoff of one mode."""
    tails = _coherent_tails(alpha, f" on mode {mode!r}")
    mu = abs(alpha) ** 2
    tail = tails[min(cutoff, len(tails) - 1)]
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
        logmag = n * np.log(abs(alpha)) - 0.5 * _log_factorials(cutoff + 1) - mu / 2
        vec = np.exp(logmag) * np.exp(1j * n * np.angle(alpha))
    else:
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0] = 1.0
    return vec / np.linalg.norm(vec)


def make_coherent(registry: ModeRegistry, alphas: dict[str, complex | PureState]) -> PureState:
    """Product state with one factor per listed mode label: a coherent amplitude, or a
    single-mode PureState with that mode's level count; unlisted modes are vacuum.

    Fails loudly (CutoffTooSmall) if a mode's discarded Poisson tail mass
    exceeds COHERENT_TAIL_TOL, rather than silently renormalizing a bad
    truncation; a state of any other shape raises DimensionMismatch.
    """
    for label in alphas:
        registry.index(label)  # raises UnknownMode
    full = _zeros(registry)
    # the listed factors fill their axes; vacuum axes stay at level 0
    listed = np.ones((), dtype=complex)
    for mode in registry.modes:
        if mode.label in alphas:
            vec = alphas[mode.label]
            if not isinstance(vec, PureState):
                vec = _coherent_vector(mode.label, mode.cutoff, vec)
            elif vec.registry.dims == (mode.cutoff + 1,):
                vec = vec.amplitudes
            else:
                raise DimensionMismatch(f"input state of dims {vec.registry.dims} on mode "
                                        f"{mode.label!r}, which has {mode.cutoff + 1} levels")
            listed = np.multiply.outer(listed, vec)
    full[tuple(slice(None) if m.label in alphas else 0 for m in registry.modes)] = listed
    return PureState(registry, full.reshape(-1))


def product_state(*states: PureState) -> PureState:
    """Tensor product of pure states; registries concatenate in order.  The box is
    allocated first, so an oversized product fails before any factor is folded."""
    registry = ModeRegistry([(m.label, m.frequency, m.cutoff)
                             for s in states for m in s.registry.modes])
    amp, size = _zeros(registry).reshape(-1), 1
    amp[0] = 1.0
    for s in states:  # folded in place: numpy copies the overlapping input before writing
        n = s.amplitudes.size
        np.multiply(amp[:size, None], s.amplitudes, out=amp[: size * n].reshape(size, n))
        size *= n
    return PureState(registry, amp)


def to_density(state: PureState) -> FockDensityOp:
    return FockDensityOp(state.registry, factor=state.amplitudes[:, None])


def _to_front(t: np.ndarray, axes) -> np.ndarray:
    """A view of ``t`` with ``axes`` first, in order, and every other axis after them."""
    return t.transpose([*axes, *(a for a in range(t.ndim) if a not in axes)])


def _from_front(t: np.ndarray, axes) -> np.ndarray:
    """The inverse of `_to_front`: a view of ``t`` with its leading axes moved to ``axes``."""
    order = [*axes, *(a for a in range(t.ndim) if a not in axes)]
    return t.transpose(sorted(range(t.ndim), key=order.__getitem__))


def _factor_tensor(state: State) -> np.ndarray:
    """W of rho = W W^dag with one axis per mode and a last axis per branch.

    A pure state is its own factor, with one branch.
    """
    W = state.factor if isinstance(state, FockDensityOp) else state.amplitudes[:, None]
    return W.reshape(state.registry.dims + W.shape[1:])


# ---------------------------------------------------------------------------
# channels


def apply_matrix(state: State, op, modes: tuple[str, ...]) -> State:
    """Apply a device's chain groups, as `devices.device_unitary` returns them.

    ``op`` lists [idx, B] groups over the flat index of the sub-registry of
    ``modes``.  With the mode axes moved to the front, the state is a matrix
    X of shape (sub_dim, rest); each group maps the rows X[idx] of its chains
    to B @ X[idx], one batched matmul per chain length, and every other row
    is left unchanged.  A group not built yet (B is None) is built by
    ``op.build`` if the state has a nonzero row on its chains, and skipped
    otherwise: B @ 0 = 0 exactly.  With no group to apply, the state itself
    is returned.  Pure states: psi -> U psi.  Density operators:
    W -> U W (rho -> U rho U^dag).  Used by the device layer, which
    guarantees unitarity by construction.
    """
    reg = state.registry
    axes = [reg.index(m) for m in modes]
    t = _to_front(_factor_tensor(state), axes)  # a view until a group applies
    live = [B is not None for _, B in op]
    if not all(live):  # one pass over the state serves every unbuilt group
        reached = np.zeros(len(op) + 1, dtype=bool)  # last entry: no chain
        reached[op.group_of[t.any(axis=tuple(range(len(axes), t.ndim))).ravel()]] = True
        live = [b or r for b, r in zip(live, reached)]
    if not any(live):
        return state
    t = t.copy()
    X = t.reshape(math.prod(t.shape[: len(axes)]), -1)  # a view of the copy
    for g, (idx, _) in enumerate(op):
        if live[g]:
            X[idx] = op.build(g) @ X[idx]
    out = _from_front(t, axes).reshape(reg.dim, -1)
    if isinstance(state, PureState):
        return PureState(reg, out[:, 0])
    return FockDensityOp(reg, factor=out)


@lru_cache(maxsize=8)
def _binomials(d: int) -> tuple[np.ndarray, ...]:
    """(C, m, k, log C): C(m + k, k) at [m, k] as floats, zero where m + k >= d, and
    the m, k and log C of the entries past the float range (m + k >= 1030), which C
    holds as zero; read-only, per dimension d.  Row m is the exact running sum of row m - 1."""
    rows, big, row = [], [], [1] * d
    for m in range(d):
        floats = []
        for k, c in enumerate(row):
            try:
                floats.append(float(c))
            except OverflowError:
                floats.append(0.0)
                big.append((m, k, math.log(c)))
        rows.append(floats + [0.0] * m)
        row = list(itertools.accumulate(row[: d - m - 1]))
    big = np.array(big).reshape(-1, 3).T
    out = np.array(rows), big[0].astype(int), big[1].astype(int), big[2]
    for a in out:
        a.flags.writeable = False
    return out


def apply_loss(state: State, mode: str, transmission: float) -> FockDensityOp:
    """Single-mode pure-loss (attenuation) channel; always returns a density op.

    Loss branch k (k photons lost to the environment) is the Kraus operator
    K_k |n> = sqrt(C(n,k) (1-T)^k T^(n-k)) |n-k>, k = 0..cutoff; the output
    factor holds the columns K_k W of every branch side by side.
    """
    if not 0.0 <= transmission <= 1.0:
        raise TransmissionOutOfRange(f"transmission {transmission} outside [0, 1]")
    reg = state.registry
    axis = reg.index(mode)
    d = reg.dims[axis]
    t = _to_front(_factor_tensor(state), [axis])
    lost = np.array([(1.0 - transmission) ** k for k in range(d)])
    kept = np.array([transmission**m for m in range(d)])
    # amp[m, k] = <m| K_k |m + k>, zero where m + k > cutoff
    binomials, m, k, log_c = _binomials(d)
    amp = np.sqrt(binomials * lost * kept[:, None])
    if len(log_c):  # C past the float range: the product in the log domain, m, k >= 1
        with np.errstate(divide="ignore"):  # log 0 = -inf at T = 0 or 1 gives amp 0
            amp[m, k] = np.exp((log_c + k * np.log1p(-transmission) + m * np.log(transmission)) / 2)
    # out[m, ..., k] = amp[m, k] t[m + k], gathered from t padded with d zero levels
    out = np.concatenate((t, np.zeros_like(t)))[np.arange(d)[:, None] + np.arange(d)]
    out *= amp.reshape(amp.shape + (1,) * (t.ndim - 1))
    out = _from_front(out, [axis, out.ndim - 1])
    return FockDensityOp(reg, factor=out.reshape(reg.dim, -1))


def reduced_density(state: State, keep) -> FockDensityOp:
    """Reduced density operator on the kept modes, for either state kind.

    The traced-out modes join the factor's columns: W -> (dim_keep, rest * r).
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    reg = state.registry
    keep_axes = [reg.index(l) for l in keep]
    t = _to_front(_factor_tensor(state), keep_axes)
    sub = reg.subregistry(keep)
    return FockDensityOp(sub, factor=t.reshape(sub.dim, -1))


# ---------------------------------------------------------------------------
# observables


def mean_photon(state: State, mode: str) -> float:
    reg = state.registry
    axis = reg.index(mode)
    probs = (np.abs(_factor_tensor(state)) ** 2).sum(axis=-1)
    n = np.arange(reg.dims[axis], dtype=float)
    per_level = _to_front(probs, [axis]).reshape(reg.dims[axis], -1).sum(axis=1)
    return float(per_level @ n)


def _quadrature(t: np.ndarray, axis: int, phase: float) -> np.ndarray:
    """X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2 applied along ``axis`` of a
    factor tensor, as two shifted slices: (a t)[n] = sqrt(n + 1) t[n + 1] and
    (a^dag t)[n + 1] = sqrt(n + 1) t[n]."""
    t = _to_front(t, [axis])
    root = np.sqrt(np.arange(1, t.shape[0])).reshape((-1,) + (1,) * (t.ndim - 1))
    xt = np.zeros_like(t)
    xt[:-1] = root * np.exp(-1j * phase) / 2 * t[1:]
    xt[1:] += root * np.exp(1j * phase) / 2 * t[:-1]
    return _from_front(xt, [axis])


def quadrature_variance(state: State, mode: str, phase: float) -> float:
    """Variance of X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2; vacuum gives 1/4.
    X_phi acts on the whole factor W by ladder shifts along the mode's axis."""
    W = _factor_tensor(state)
    xW = _quadrature(W, state.registry.index(mode), phase)
    # X_phi is Hermitian: Tr(rho X) = <W, X W> and Tr(rho X X) = |X W|^2
    ex = np.vdot(W, xW).real
    ex2 = np.vdot(xW, xW).real
    return float(ex2 - ex**2)


def moments_from_fock(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Means vector and symmetrized covariance matrix of any Fock-backend state.

    Returned in the Gaussian backend's (x_1, p_1, ...) ordering, x = X_0 and
    p = X_{pi/2}, so the two backends can be compared entry by entry.  Each
    quadrature acts on the factor W by ladder shifts along its mode's axis.
    """
    # rho = W W^dag: every moment is a sum over the factor's columns; row j of
    # XW is X_j W for each quadrature X_j = x_m, p_m, in the backend's ordering
    M = state.registry.num_modes
    W = _factor_tensor(state)
    XW = np.stack([_quadrature(W, m, ph).reshape(-1) for m in range(M) for ph in (0.0, np.pi / 2)])
    means = (XW @ W.reshape(-1).conj()).real
    second = (XW.conj() @ XW.T).real  # <X_j W, X_k W>
    return means, (second + second.T) / 2 - np.outer(means, means)


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
    v = rho.factor.conj().T @ psi.amplitudes
    return float(np.vdot(v, v).real)
