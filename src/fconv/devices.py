"""Optical devices and their truncated-space unitaries.

Three interactions drive everything.  Each Gaussian device (the first two, and
PhaseShift, a -> e^{i phi} a) states its Heisenberg action a -> U a + V a^dag
over its ``modes`` once, as the property ``heisenberg`` = (U, V):

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
mirror chains n_s - n_i = +-d share one; zero strength has none): `expm`
assembles it from the device's phase column, formed once, and the real `eigh`
of its ladder row (no Pade approximant), stored per group of the cutoff box
for every coupling.  The unitaries are unitary to machine precision whatever
the truncation, whose error shows up only as state leakage, which the
constructors guard against.

`fock_space` and `fock_sweep` are the Fock backend of `experiments._backend`:
the space cuts every mode by the photon number the circuit conserves, and the
sweep runs a scan's points in turn, sharing the process-wide caches
`_walk_chains` and `fock._binomials`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import CutoffTooSmall
from .fock import (
    State,
    annihilation_matrix,
    apply_loss,
    apply_matrix,
    coherent_required_cutoff,
    make_coherent,
    mean_photon,
    quadrature_variance,
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


@dataclass(frozen=True)
class Converter:
    pump_mode: str
    idler_mode: str
    theta: float
    phi_s: float = 0.0

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
        c, s, e = np.cos(self.theta), np.sin(self.theta), np.exp(1j * self.phi_s)
        return np.array([[c, e * s], [-e.conjugate() * s, c]]), np.zeros((2, 2))


@dataclass(frozen=True)
class Amplifier:
    signal_mode: str
    idler_mode: str
    squeeze: float
    phi_p: float = 0.0

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
        G, g = np.cosh(self.squeeze), -np.exp(1j * self.phi_p) * np.sinh(self.squeeze)
        return np.array([[G, 0], [0, G]]), np.array([[0, g], [g, 0]])


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

    def __post_init__(self):
        _check(self, "phi")

    @property
    def modes(self):
        return (self.mode,)

    @property
    def heisenberg(self):
        return np.array([[np.exp(1j * self.phi)]]), np.zeros((1, 1))


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


@dataclass(frozen=True)
class Circuit:
    registry: ModeRegistry
    devices: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        for dev in self.devices:
            for m in dev.modes:
                self.registry.index(m)  # raises UnknownMode


# ---------------------------------------------------------------------------
# unitaries


def expm(a: float, d: np.ndarray, w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp(K) of a chain block K = c L - c^* L^dag, given a = |c|, the column d = (u^k),
    u = i e^{i angle(c)}, at least as long as the chain, and T = V diag(w) V^T for the
    real symmetric tridiagonal T of L's ladder elements along the chain.  With
    D = diag(d), K = -i a D T D^dag, so exp(K) = D V diag(e^{-i a w}) V^T D^dag: unitary."""
    DV = d[: len(w)] * V
    return (DV * np.exp(-1j * a * w)) @ DV.conj().T


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
    ``walk`` is the box's `_walk_chains` entry, whose ``spectra`` store `build` fills."""

    def __init__(self, groups=(), coupling=0.0, walk=(None,) * 4):
        super().__init__(groups)
        self.coupling, (_, self.elem, self.group_of, self.spectra) = coupling, walk
        self.phases = None

    def build(self, g: int) -> np.ndarray:
        """Group g's blocks, built once: one `expm` per distinct row, spread to its chains."""
        if self[g][1] is None:
            if self.phases is None:  # expm's d, down the longest chain
                u = 1j * np.exp(1j * np.angle(self.coupling))
                self.phases = u ** np.arange(self[-1][0].shape[1])[:, None]
            if g not in self.spectra:  # one read-only eigh of T per distinct row, in order
                rows, first = self.elem[self[g][0][:, :-1]], {}
                inv = [first.setdefault(r.tobytes(), (len(first), r))[0] for r in rows]
                eig = [np.linalg.eigh(np.diag(r, -1) + np.diag(r, 1)) for _, r in first.values()]
                for w, V in eig:
                    w.flags.writeable = V.flags.writeable = False
                self.spectra[g] = eig, None if len(first) == len(rows) else np.array(inv)
            eig, inv = self.spectra[g]
            B = np.array([expm(abs(self.coupling), self.phases, w, V) for w, V in eig])
            self[g][1] = B if inv is None else B[inv]
        return self[g][1]


@functools.lru_cache(maxsize=8)
def _walk_chains(cutoffs: tuple, axes: tuple, step: tuple):
    """The coupling-free part of `device_unitary`: ``(idx per group, elem,
    group_of, spectra)`` of the chains along ``step`` over ``axes`` of the cutoff
    box, walked once per box and kept read-only for every coupling.  ``spectra``
    is the box's store {group: (spectra, inv)}, which `ChainGroups.build` fills."""
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


def compile_circuit(circuit: Circuit):
    """The circuit's devices, left to right, as one pure function State -> State
    on the Fock backend.  Each unitary device's chains are walked here, at compile
    time, on the sub-registry of its own modes, so spectator modes never inflate
    them; a group's blocks are built on the first run that reaches one of its chains."""
    reg = circuit.registry
    steps = [
        (dev, None)
        if isinstance(dev, Attenuator)
        else (dev, device_unitary(reg.subregistry(dev.modes), dev))
        for dev in circuit.devices
    ]

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
    return compile_circuit(Circuit(state.registry, (dev,)))(state)


# ---------------------------------------------------------------------------
# the Fock backend's space and sweep (see `experiments._backend`)


def fock_space(modes, alpha=0.0, squeeze=None) -> ModeRegistry:
    """Every mode cut at the coherent tail of the total amplitude or, given a
    squeeze, at its vacuum pair tail, to 1e-10 since the Fock variance reads it.

    Converters, attenuators and the trilinear coupler never add photons, so the
    tail of sqrt(sum |alpha|^2) bounds every mode they reach; amplifiers keep
    their pair tail."""
    c = (coherent_required_cutoff(alpha) if squeeze is None
         else amplifier_required_cutoff(squeeze, tail_tol=1e-10))
    return ModeRegistry([(label, f, c) for label, f in modes])


def fock_sweep(registry: ModeRegistry, points, reads) -> np.ndarray:
    """The points in turn on the Fock backend.  A devices tuple or input dict that
    is the same object as the previous point's is compiled or prepared once, and a
    circuit's blocks are freed before the next circuit builds its own."""
    read = {"photons": mean_photon, "variance": quadrature_variance}

    def take(state):  # the output state is dropped once its reads are taken
        return [read[kind](state, *args) for kind, *args in reads]

    out = np.empty((len(points), len(reads)))
    devices = alphas = None
    for i, (devs, inputs) in enumerate(points):
        if devs is not devices:
            devices, run = devs, compile_circuit(Circuit(registry, devs))
        if inputs is not alphas:
            alphas, state = inputs, make_coherent(registry, inputs)
        out[i] = take(run(state))
    return out
