"""Optical devices and their truncated-space unitaries.

Three interactions drive everything:

  * Converter -- pump/idler exchange with a strong classical signal field.
    Heisenberg action (theta = coupling * interaction time, phi_s the drive
    phase):
        a_p -> a_p cos(theta) + e^{+i phi_s} a_i sin(theta)
        a_i -> a_i cos(theta) - e^{-i phi_s} a_p sin(theta)
    A passive beam-splitter map: no a^dag terms, hence no spontaneous noise.

  * Amplifier -- signal/idler two-mode squeezing with a strong classical pump.
    Heisenberg action (r = squeeze parameter, G = cosh r, g = -e^{i phi_p} sinh r):
        a_s -> G a_s + g a_i^dag
        a_i -> G a_i + g a_s^dag
    The a^dag terms are the spontaneous-noise source.

  * TrilinearCoupler -- all three fields quantized, a_p a_s^dag a_i^dag + h.c.
    Conserves n_p + n_s and n_s - n_i.

Each of the three generators is one ladder term L plus its Hermitian
conjugate, and L moves every occupation by a fixed step: (+1, -1) for the
converter, (+1, +1) for the amplifier, (+1, -1, -1) for the trilinear
coupler.  The conserved-charge sectors are therefore the chains of Fock
states along that step inside the cutoff box; `device_unitary` walks them,
exponentiates each distinct tridiagonal block once (an amplifier's mirror
chains n_s - n_i = +-d share one; zero strength has none) and keeps the
blocks, grouped by chain length, in place of a dense unitary.  A block K is
anti-Hermitian, so `expm` uses the Hermitian eigendecomposition of iK
(numpy's `eigh`, no Pade approximant): the unitaries are unitary to machine
precision whatever the truncation, whose error shows up only as state
leakage, which the constructors guard against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import CutoffTooSmall
from .fock import State, annihilation_matrix, apply_loss, apply_matrix
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


def expm(K: np.ndarray) -> np.ndarray:
    """exp(K) for an anti-Hermitian K, from the eigenbasis of the Hermitian iK.

    iK = V diag(w) V^dag gives exp(K) = V diag(e^{-iw}) V^dag, which is
    unitary by construction.
    """
    w, v = np.linalg.eigh(1j * K)
    return (v * np.exp(-1j * w)) @ v.conj().T


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


def device_unitary(registry: ModeRegistry, dev: Device) -> list[tuple[np.ndarray, np.ndarray]]:
    """exp(K) for one unitary device on ``registry``, as chain blocks.

    Every device but PhaseShift has K = c L - c^* L^dag for its one ladder
    term L, which moves |n> to |n + step>, so K only couples states along
    chains n, n + step, ... inside the cutoff box: the conserved-charge
    sectors.  Returns one (idx, B) per chain length n >= 2, the flat indices
    idx (g, n) of g chains and their exponentials B (g, n, n); states on no
    chain are unchanged; chains with equal ladder elements share one block, and
    zero strength (c = 0, phi = 0) gives none.  PhaseShift is one n = 1 group.
    """
    occ = registry.occupations()
    if isinstance(dev, PhaseShift):
        phases = np.exp(1j * dev.phi * occ[:, registry.index(dev.mode)])
        return [(np.arange(registry.dim)[:, None], phases[:, None, None])] if dev.phi else []
    if not isinstance(dev, (Converter, Amplifier, TrilinearCoupler)):
        raise TypeError(f"{type(dev).__name__} has no unitary representation")
    if isinstance(dev, Amplifier):
        cmin = min(registry.cutoff(dev.signal_mode), registry.cutoff(dev.idler_mode))
        tail = np.tanh(dev.squeeze) ** (2 * (cmin + 1)) if dev.squeeze > 0 else 0.0
        if tail > 1e-8:
            need = amplifier_required_cutoff(dev.squeeze)
            raise CutoffTooSmall(
                f"squeeze {dev.squeeze} needs cutoffs >= {need} on both modes "
                f"(have {cmin}, squeezed-vacuum tail {tail:.3e})",
                required_cutoff=need,
            )
    step, c = dev.ladder
    axes = [registry.index(m) for m in dev.modes]
    if c == 0:  # exp(0) = I: no chain to apply
        return []
    up = np.array(step) > 0
    n, cut = occ[:, axes], np.array(registry.cutoffs)[axes]
    ahead = np.where(up, cut - n, n).min(axis=1)  # steps left to the chain's end
    behind = np.where(up, n, cut - n).min(axis=1)  # zero on a chain's first state
    # <n + step| L |n>: sqrt(n_m + 1) per raised mode, sqrt(n_m) per lowered one
    elem = np.sqrt(np.where(up, n + 1, n).prod(axis=1))
    strides = np.cumprod((1,) + registry.dims[:0:-1])[::-1]
    jump = int(strides[axes] @ step)  # flat-index change of one step
    starts = np.nonzero((behind == 0) & (ahead > 0))[0]  # chains of two or more states
    groups = []
    for steps in np.flatnonzero(np.bincount(ahead[starts])):  # np.unique imports numpy.ma
        idx = starts[ahead[starts] == steps][:, None] + jump * np.arange(steps + 1)
        blocks, B = {}, []  # equal rows, as on an amplifier's mirror chains, share one exp
        for chain in idx:
            row = c * elem[chain[:-1]]
            key = row.tobytes()
            if key not in blocks:
                k = np.diag(row, -1)
                blocks[key] = expm(k - k.conj().T)
            B.append(blocks[key])
        groups.append((idx, np.array(B)))
    return groups


def mode_matrix(dev: Device) -> np.ndarray:
    """U of a passive device on ``dev.modes``: a -> U a, and so single-photon
    amplitudes c (of sum_m c_m a_m^dag |0>) -> U c."""
    if isinstance(dev, Converter):
        c, s, e = np.cos(dev.theta), np.sin(dev.theta), np.exp(1j * dev.phi_s)
        return np.array([[c, e * s], [-e.conjugate() * s, c]])
    if isinstance(dev, PhaseShift):
        return np.array([[np.exp(1j * dev.phi)]])
    raise TypeError(f"{type(dev).__name__} is not a passive device")


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
    on the Fock backend.  Each unitary device is exponentiated here, at compile
    time, on the sub-registry of its own modes, so spectator modes never inflate
    its chain blocks and a run only applies the blocks to the state."""
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
