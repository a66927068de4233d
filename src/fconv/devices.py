"""Optical devices and their truncated-space unitaries.

Three interactions drive everything.  Each Gaussian device (the first two, and
PhaseShift, a -> e^{i phi} a) states its Heisenberg action a -> U a + V a^dag
over its ``modes`` once, as a formula (U, V) of its fields that also takes arrays
over the points of a sweep, named by its class's ``_uv``, which `heisenberg_uv`
reads for one device (its property ``heisenberg``) or for a list of one kind:

  * Converter -- pump/idler exchange with a strong classical signal field
    (theta = coupling * interaction time, phi_s the drive phase):
        a_p -> a_p cos(theta) + e^{+i phi_s} a_i sin(theta)
        a_i -> a_i cos(theta) - e^{-i phi_s} a_p sin(theta)
    A passive beam-splitter map: V = 0, no a^dag terms, hence no spontaneous noise.

  * Amplifier -- signal/idler two-mode squeezing with a strong classical pump
    (r = squeeze parameter, G = cosh r, g = -e^{i phi_p} sinh r):
        a_s -> G a_s + g a_i^dag
        a_i -> G a_i + g a_s^dag
    The a^dag terms (V != 0) are the spontaneous-noise source.

  * TrilinearCoupler -- all three fields quantized, a_p a_s^dag a_i^dag + h.c.
    Conserves n_p + n_s and n_s - n_i.

Each of the three generators is one ladder term L plus its Hermitian
conjugate, and L moves every occupation by a fixed step: (+1, -1) for the
converter, (+1, +1) for the amplifier, (+1, -1, -1) for the trilinear
coupler.  The conserved-charge sectors are therefore the chains of Fock
states along that step inside the cutoff box; `device_unitary` groups them
by length in place of a dense unitary.  A run that first reaches a group
exponentiates each of its distinct tridiagonal blocks once (an amplifier's
mirror chains n_s - n_i = +-d share one; zero strength has none) from the real
`eigh` of its ladder row (no Pade approximant).  The cutoff box stores each
group's spectra stacked, for every coupling; a build scales the whole stack by
the device's phase column, formed once, and takes its exponentials in one pass,
then `expm` multiplies out each row's block.  The unitaries are unitary to
machine precision whatever the truncation, whose error shows up only as state
leakage, which the constructors guard against.

`fock_space` and `fock_sweep` are the Fock backend of `experiments._backend`:
the space cuts every mode by the photon number the circuit conserves, and the
sweep runs a scan's points in turn, sharing the process-wide caches
`_walk_chains` and `fock._binomials`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CutoffTooSmall
from .fock import (
    PureState,
    State,
    annihilation_matrix,
    apply_loss,
    apply_matrix,
    coherent_required_cutoff,
    fidelity_pure_mixed,
    make_coherent,
    mean_photon,
    quadrature_variance,
    reduced_density,
)
from .registry import ModeRegistry


def _check(dev, phase: str, strength: str | None = None) -> None:
    """Refuse repeated modes, and NaN or inf, which would fill every amplitude with NaN."""
    phi, s = getattr(dev, phase), getattr(dev, strength) if strength else 0.0
    if not 0 <= s < np.inf:
        raise ValueError(f"{strength} must be finite and >= 0; phases carry all sign structure")
    if not abs(phi) < np.inf:
        raise ValueError(f"{phase} must be finite, got {phi}")
    if len(set(dev.modes)) != len(dev.modes):
        raise ValueError(f"{type(dev).__name__} modes must be distinct")


# Each Gaussian device's (U, V), from its fields as numbers, or as arrays over the
# points of a sweep, which stack (U, V) over them.  Each Gaussian device class
# names its formula and the fields it takes, in order, as ``_uv``, which a
# subclass inherits.


def _converter_uv(theta, phi_s):
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi_s)
    U = np.empty(np.shape(c) + (2, 2), complex)
    U[..., 0, 0] = U[..., 1, 1] = c
    U[..., 0, 1], U[..., 1, 0] = e * s, -e.conjugate() * s
    return U, np.zeros(U.shape)


def _amplifier_uv(squeeze, phi_p):
    G, g = np.cosh(squeeze), -np.exp(1j * phi_p) * np.sinh(squeeze)
    U, V = np.zeros(np.shape(G) + (2, 2)), np.zeros(np.shape(G) + (2, 2), complex)
    U[..., 0, 0] = U[..., 1, 1] = G
    V[..., 0, 1] = V[..., 1, 0] = g
    return U, V


def _phase_uv(phi):
    U = np.exp(1j * phi)[..., None, None]
    return U, np.zeros(U.shape)


def heisenberg_uv(devs):
    """(U, V) over the modes of one device, or of a list of devices of one kind,
    stacked over the list by one call of its formula; None for a device that has
    no (U, V)."""
    one = not isinstance(devs, list)
    uv = getattr(devs if one else devs[0], "_uv", None)
    if uv is None:
        return None
    formula, fields = uv
    if one:
        return formula(*[getattr(devs, f) for f in fields])
    return formula(*[np.array([getattr(dev, f) for dev in devs]) for f in fields])


@dataclass(frozen=True)
class Converter:
    pump_mode: str
    idler_mode: str
    theta: float
    phi_s: float = 0.0
    _uv = (_converter_uv, ("theta", "phi_s"))

    def __post_init__(self):
        _check(self, "phi_s", "theta")

    @property
    def modes(self):
        return (self.pump_mode, self.idler_mode)

    @property
    def ladder(self):
        """(step over ``modes``, coupling c) of the generator c L - c^* L^dag."""
        return (1, -1), self.theta * np.exp(1j * self.phi_s)

    @property
    def heisenberg(self):
        """(U, V) over ``modes`` of a -> U a + V a^dag; V = 0, so single-photon
        amplitudes c (of sum_m c_m a_m^dag |0>) go to U c."""
        return heisenberg_uv(self)


@dataclass(frozen=True)
class Amplifier:
    signal_mode: str
    idler_mode: str
    squeeze: float
    phi_p: float = 0.0
    _uv = (_amplifier_uv, ("squeeze", "phi_p"))

    def __post_init__(self):
        _check(self, "phi_p", "squeeze")

    @property
    def modes(self):
        return (self.signal_mode, self.idler_mode)

    @property
    def ladder(self):
        return (1, 1), -self.squeeze * np.exp(1j * self.phi_p)

    @property
    def heisenberg(self):
        return heisenberg_uv(self)


@dataclass(frozen=True)
class TrilinearCoupler:
    pump_mode: str
    signal_mode: str
    idler_mode: str
    eta_tau: float
    phase: float = 0.0

    def __post_init__(self):
        _check(self, "phase", "eta_tau")

    @property
    def modes(self):
        return (self.pump_mode, self.signal_mode, self.idler_mode)

    @property
    def ladder(self):
        return (1, -1, -1), self.eta_tau * np.exp(-1j * self.phase)


@dataclass(frozen=True)
class PhaseShift:
    mode: str
    phi: float
    _uv = (_phase_uv, ("phi",))

    def __post_init__(self):
        _check(self, "phi")

    @property
    def modes(self):
        return (self.mode,)

    @property
    def heisenberg(self):
        return heisenberg_uv(self)


@dataclass(frozen=True)
class Attenuator:
    mode: str
    transmission: float

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission {self.transmission} outside [0, 1]")

    @property
    def modes(self):
        return (self.mode,)


Device = Union[Converter, Amplifier, TrilinearCoupler, PhaseShift, Attenuator]


# ---------------------------------------------------------------------------
# unitaries


def expm(DV: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(K) = DV diag(e) DV^dag of one chain block K = c L - c^* L^dag, given DV = D V
    and e = e^{-i |c| w}, written into ``out`` if given, which may be DV itself.  With
    D = diag(u^k), u = i e^{i angle(c)}, and T = V diag(w) V^T the real symmetric
    tridiagonal of L's ladder elements along the chain, K = -i |c| D T D^dag, so
    exp(K) = D V diag(e^{-i |c| w}) V^T D^dag: unitary."""
    return np.matmul(DV * e, DV.conj().T, out=out)


def amplifier_required_cutoff(squeeze: float, tail_tol: float = 1e-8) -> int:
    """Smallest per-mode cutoff keeping the two-mode-squeezed-vacuum tail <= tol."""
    if squeeze == 0.0:
        return 1
    # tail beyond cutoff c is t2^(c+1); log t2 = log1p(-sech^2) is exact where tanh^2 rounds to 1
    with np.errstate(over="ignore", divide="ignore"):
        c = np.log(tail_tol) / np.log1p(-np.cosh(squeeze) ** -2.0)
    if not c < np.inf:
        raise ValueError(f"squeeze {squeeze} is too large for any Fock cutoff")
    return max(int(np.ceil(c)) - 1, 1)


class ChainGroups(list):
    """[idx, B] per chain length n: the flat indices idx (g, n) of g chains and
    their exponentials B (g, n, n), None until `build`.  State j's ladder element
    is ``coupling * elem[j]`` and its group ``group_of[j]`` (-1: on no chain);
    ``walk`` is the box's `_walk_chains` entry, whose ``spectra`` store `build` fills
    with each group's `_spectra`."""

    def __init__(self, groups=(), coupling=0.0, walk=(None,) * 4):
        super().__init__(groups)
        self.coupling, (_, self.elem, self.group_of, self.spectra) = coupling, walk
        self.phases = None

    def build(self, g: int) -> np.ndarray:
        """Group g's blocks, built once: the phases and exponentials of its stacked
        spectra in one pass, then one `expm` per distinct row, spread to its chains."""
        if self[g][1] is None:
            if self.phases is None:  # D's diagonal, down the longest chain
                u = 1j * np.exp(1j * np.angle(self.coupling))
                self.phases = u ** np.arange(self[-1][0].shape[1])[:, None]
            if g not in self.spectra:
                self.spectra[g] = _spectra(self.elem[self[g][0][:, :-1]])
            W, V, inv = self.spectra[g]
            B, E = self.phases[: W.shape[1]] * V, np.exp(-1j * abs(self.coupling) * W)
            for k in range(len(B)):  # each row's D V, overwritten by its block
                expm(B[k], E[k], out=B[k])
            self[g][1] = B if inv is None else B[inv]
        return self[g][1]


def _spectra(rows: np.ndarray):
    """(W, V, inv): the eigenvalues W (k, n) and eigenvectors V (k, n, n) of the real
    symmetric tridiagonal of each of the k distinct ladder rows, stacked read-only in
    order of first appearance with one `np.linalg.eigh` each, and the distinct row of
    each of ``rows`` (None if every row is distinct)."""
    first = {}
    inv = [first.setdefault(r.tobytes(), (len(first), r))[0] for r in rows]
    k, n = len(first), rows.shape[1] + 1
    W, V = np.empty((k, n)), np.empty((k, n, n))
    for j, (_, r) in enumerate(first.values()):
        W[j], V[j] = np.linalg.eigh(np.diag(r, -1) + np.diag(r, 1))
    W.flags.writeable = V.flags.writeable = False
    return W, V, None if len(first) == len(rows) else np.array(inv)


@functools.lru_cache(maxsize=8)
def _walk_chains(cutoffs: tuple, axes: tuple, step: tuple):
    """The coupling-free part of `device_unitary`: ``(idx per group, elem,
    group_of, spectra)`` of the chains along ``step`` over ``axes`` of the cutoff
    box, walked once per box and kept read-only for every coupling.  ``spectra``
    is the box's store {group: (W, V, inv)}, which `ChainGroups.build` fills."""
    dims, ax, up = np.array(cutoffs) + 1, list(axes), np.array(step) > 0
    n, cut = np.indices(dims).reshape(len(dims), -1).T[:, ax], dims[ax] - 1
    ahead = np.where(up, cut - n, n).min(axis=1)  # steps left to the chain's end
    behind = np.where(up, n, cut - n).min(axis=1)  # zero on a chain's first state
    # <n + step| L |n>: sqrt(n_m + 1) per raised mode, sqrt(n_m) per lowered one
    elem = np.sqrt(np.where(up, n + 1, n).prod(axis=1))
    strides = np.cumprod(np.append(1, dims[:0:-1]))[::-1]
    jump = int(strides[ax] @ step)  # flat-index change of one step
    starts = np.nonzero((behind == 0) & (ahead > 0))[0]  # chains of two or more states
    lengths = np.flatnonzero(np.bincount(ahead[starts]))  # np.unique imports numpy.ma
    idx = tuple(starts[ahead[starts] == s][:, None] + jump * np.arange(s + 1) for s in lengths)
    span = ahead + behind  # steps along the chain through each state
    group_of = np.where(span > 0, np.searchsorted(lengths, span), -1)
    for a in (*idx, elem, group_of):
        a.flags.writeable = False
    return idx, elem, group_of, {}  # the store is bounded by boxes, never by rows


def device_unitary(registry: ModeRegistry, dev: Device) -> ChainGroups:
    """exp(K) for one unitary device on ``registry``, as chain groups.

    Every device but PhaseShift has K = c L - c^* L^dag for its one ladder
    term L, which moves |n> to |n + step>, so K only couples states along
    chains n, n + step, ... inside the cutoff box: the conserved-charge
    sectors.  Returns one group per chain length n >= 2, its blocks not yet
    exponentiated; states on no chain are unchanged, and zero strength
    (c = 0, phi = 0) gives no group.  PhaseShift is one built n = 1 group.
    Chains and their spectra are cached per box; the blocks are this call's own.
    """
    if isinstance(dev, PhaseShift):
        phases = np.exp(1j * dev.phi * registry.occupations()[:, registry.index(dev.mode)])
        idx = np.arange(registry.dim)[:, None]
        return ChainGroups([[idx, phases[:, None, None]]] if dev.phi else [])
    if not isinstance(dev, (Converter, Amplifier, TrilinearCoupler)):
        raise TypeError(f"{type(dev).__name__} has no unitary representation")
    if isinstance(dev, Amplifier):
        cmin = min(registry.cutoffs[registry.index(m)] for m in dev.modes)
        need = amplifier_required_cutoff(dev.squeeze)
        if cmin < need:
            raise CutoffTooSmall(
                f"squeeze {dev.squeeze} needs cutoffs >= {need} on both modes (have {cmin})",
                required_cutoff=need,
            )
    step, c = dev.ladder
    axes = tuple(registry.index(m) for m in dev.modes)
    if c == 0:  # exp(0) = I: no chain to apply
        return ChainGroups()
    walk = _walk_chains(registry.cutoffs, axes, step)
    return ChainGroups([[i, None] for i in walk[0]], c, walk)


# ---------------------------------------------------------------------------
# dense reference generators (full-space Kronecker ladder operators)


def converter_generator(registry: ModeRegistry, dev: Converter) -> np.ndarray:
    ap = annihilation_matrix(registry, dev.pump_mode)
    ai = annihilation_matrix(registry, dev.idler_mode)
    return np.exp(1j * dev.phi_s) * ap.conj().T @ ai - np.exp(-1j * dev.phi_s) * ap @ ai.conj().T


def amplifier_generator(registry: ModeRegistry, dev: Amplifier) -> np.ndarray:
    a_s = annihilation_matrix(registry, dev.signal_mode)
    a_i = annihilation_matrix(registry, dev.idler_mode)
    return (
        -np.exp(1j * dev.phi_p) * a_s.conj().T @ a_i.conj().T
        + np.exp(-1j * dev.phi_p) * a_s @ a_i
    )


def trilinear_generator(registry: ModeRegistry, dev: TrilinearCoupler) -> np.ndarray:
    ap = annihilation_matrix(registry, dev.pump_mode)
    a_s = annihilation_matrix(registry, dev.signal_mode)
    a_i = annihilation_matrix(registry, dev.idler_mode)
    return (
        np.exp(-1j * dev.phase) * ap.conj().T @ a_s @ a_i
        - np.exp(1j * dev.phase) * ap @ a_s.conj().T @ a_i.conj().T
    )


# ---------------------------------------------------------------------------
# running circuits


def compile_circuit(registry: ModeRegistry, devices):
    """The devices, left to right, as one pure function State -> State on the Fock
    backend over ``registry``, which must hold every mode they name.  Each unitary
    device's chains are walked here, at compile time, on the sub-registry of its own
    modes, so spectator modes never inflate them; a group's blocks are built on the
    first run that reaches one of its chains."""
    steps = []
    for dev in devices:  # registry.index and subregistry raise UnknownMode
        if isinstance(dev, Attenuator):
            registry.index(dev.mode)
            steps.append((dev, None))
        else:
            steps.append((dev, device_unitary(registry.subregistry(dev.modes), dev)))

    def run(state: State) -> State:
        for dev, blocks in steps:
            if blocks is None:
                state = apply_loss(state, dev.mode, dev.transmission)
            else:
                state = apply_matrix(state, blocks, dev.modes)
        return state

    return run


def apply_device(state: State, dev: Device) -> State:
    """Apply one device to a Fock-backend state."""
    return compile_circuit(state.registry, (dev,))(state)


# ---------------------------------------------------------------------------
# the Fock backend's space and sweep (see `experiments._backend`)


def bind_reads(table, reads, backend: str) -> list:
    """(function, args) of each read, its kind looked up in ``table``, the reads a
    backend takes; an unknown kind is refused in one line before any point runs."""
    for kind, *_ in reads:
        if kind not in table:
            raise ValueError(f"the {backend} backend takes no {kind!r} read; "
                             f"it takes {', '.join(map(repr, table))}")
    return [(table[kind], args) for kind, *args in reads]


def fock_space(modes, points) -> ModeRegistry:
    """Every mode cut at the vacuum pair tail of the largest squeeze, to 1e-10 since
    the Fock variance reads it, if any point holds an amplifier, else at the coherent
    tail of the largest total input amplitude sqrt(sum |alpha|^2) over the points.

    Converters, attenuators and the trilinear coupler never add photons, so that
    tail bounds every mode they reach.  A Fock-state input, whose own level count
    sets its mode's box, is refused: its runner builds its own registry."""
    for _, inputs in points:
        for label, a in inputs.items():
            if isinstance(a, PureState):
                raise ValueError(f"fock_space sizes coherent inputs only: the Fock-state "
                                 f"input on mode {label!r} sets its own cutoff")
    amps = [abs(d.squeeze) for devs, _ in points for d in devs if isinstance(d, Amplifier)]
    if amps:
        c = amplifier_required_cutoff(max(amps), tail_tol=1e-10)
    else:
        c = coherent_required_cutoff(max(
            (math.hypot(*map(abs, inputs.values())) for _, inputs in points), default=0.0))
    return ModeRegistry([(label, f, c) for label, f in modes])


def fock_sweep(registry: ModeRegistry, points, reads) -> np.ndarray:
    """The points in turn on the Fock backend; "fidelity" reads the reduced state on
    ``modes`` against the pure ``target``.  A devices tuple or input dict that is the
    same object as the previous point's is compiled or prepared once, and a
    circuit's blocks are freed before the next circuit builds its own."""
    read = {"photons": mean_photon, "variance": quadrature_variance, "fidelity":
            lambda state, modes, target: fidelity_pure_mixed(target, reduced_density(state, modes))}
    calls = bind_reads(read, reads, "Fock")

    def take(state):  # the output state is dropped once its reads are taken
        return [f(state, *args) for f, args in calls]

    out = np.empty((len(points), len(reads)))
    devices = alphas = None
    for i, (devs, inputs) in enumerate(points):
        if devs is not devices:
            devices, run = devs, compile_circuit(registry, devs)
        if inputs is not alphas:
            alphas, state = inputs, make_coherent(registry, inputs)
        out[i] = take(run(state))
    return out
