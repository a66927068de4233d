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
states along that step inside the cutoff box; `device_unitary` walks them and
exponentiates each tridiagonal block exactly.  The blocks are explicitly
anti-Hermitian, so `expm` exponentiates each one through the Hermitian
eigendecomposition of i times the block (numpy's `eigh`, no Pade
approximant): the unitaries are unitary to machine precision regardless of
truncation; truncation error shows up only as state leakage, which the
constructors guard against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import CutoffTooSmall
from .fock import State, annihilation_matrix, apply_loss, apply_matrix
from .registry import ModeRegistry


@dataclass(frozen=True)
class Converter:
    pump_mode: str
    idler_mode: str
    theta: float
    phi_s: float = 0.0

    def __post_init__(self):
        if not self.theta >= 0:
            raise ValueError("theta must be >= 0; phases carry all sign structure")
        if self.pump_mode == self.idler_mode:
            raise ValueError("converter modes must be distinct")

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
        if not self.squeeze >= 0:
            raise ValueError("squeeze must be >= 0; phases carry all sign structure")
        if self.signal_mode == self.idler_mode:
            raise ValueError("amplifier modes must be distinct")

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
        if not self.eta_tau >= 0:
            raise ValueError("eta_tau must be >= 0; phases carry all sign structure")
        if len({self.pump_mode, self.signal_mode, self.idler_mode}) != 3:
            raise ValueError("trilinear coupler modes must be distinct")

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
    t2 = np.tanh(squeeze) ** 2
    # tail beyond cutoff c is t2^(c+1)
    c = int(np.ceil(np.log(tail_tol) / np.log(t2))) - 1
    return max(c, 1)


def device_unitary(registry: ModeRegistry, dev: Device) -> np.ndarray:
    """exp(K) for one unitary device on ``registry``; other modes are spectators.

    PhaseShift is diagonal.  Every other device has K = c L - c^* L^dag for
    its one ladder term L, which moves |n> to |n + step>.  K therefore only
    couples states along chains n, n + step, ... inside the cutoff box; those
    chains are the conserved-charge sectors, each exponentiated as one
    tridiagonal block.
    """
    occ = registry.occupations()
    if isinstance(dev, PhaseShift):
        return np.diag(np.exp(1j * dev.phi * occ[:, registry.index(dev.mode)]))
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
    up = np.array(step) > 0
    n, cut = occ[:, axes], np.array(registry.cutoffs)[axes]
    ahead = np.where(up, cut - n, n).min(axis=1)  # steps left to the chain's end
    behind = np.where(up, n, cut - n).min(axis=1)  # zero on a chain's first state
    # <n + step| L |n>: sqrt(n_m + 1) per raised mode, sqrt(n_m) per lowered one
    elem = np.sqrt(np.where(up, n + 1, n).prod(axis=1))
    strides = np.cumprod((1,) + registry.dims[:0:-1])[::-1]
    jump = int(strides[axes] @ step)  # flat-index change of one step
    U = np.zeros((registry.dim, registry.dim), dtype=complex)
    for start in np.nonzero(behind == 0)[0]:
        idx = start + jump * np.arange(ahead[start] + 1)
        if len(idx) == 1:
            U[start, start] = 1.0
            continue
        K = np.diag(c * elem[idx[:-1]], -1)
        U[idx[:, None], idx] = expm(K - K.conj().T)
    return U


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


def compile_circuit(circuit: Circuit, backend: str = "fock"):
    """Left-to-right composition of the circuit's devices as a pure function.

    backend="fock" returns PureState/FockDensityOp -> State.  Each unitary
    device is exponentiated here, once, on the sub-registry of its own modes,
    so large spectator modes never inflate the exponentiated matrix and
    running the compiled circuit only contracts the unitaries onto the state.
    backend="gaussian" returns GaussianState -> GaussianState; a non-Gaussian
    device raises NonGaussianDevice when the circuit runs.
    """
    if backend == "fock":
        reg = circuit.registry
        steps = [
            (dev, None)
            if isinstance(dev, Attenuator)
            else (dev, device_unitary(reg.subregistry(dev.modes), dev))
            for dev in circuit.devices
        ]

        def run_fock(state: State) -> State:
            for dev, U in steps:
                if U is None:
                    state = apply_loss(state, dev.mode, dev.transmission)
                else:
                    state = apply_matrix(state, U, dev.modes)
            return state

        return run_fock
    if backend == "gaussian":
        from .gaussian import gaussian_apply  # gaussian imports this module

        return lambda state: functools.reduce(gaussian_apply, circuit.devices, state)
    raise ValueError(f"unknown backend {backend!r}")


def apply_device(state: State, dev: Device) -> State:
    """Apply one device to a Fock-backend state."""
    return compile_circuit(Circuit(state.registry, (dev,)))(state)
