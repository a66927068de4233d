import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import comb

from fconv import (
    Amplifier,
    Attenuator,
    Circuit,
    Converter,
    CutoffTooSmall,
    ModeRegistry,
    NonGaussianDevice,
    PhaseShift,
    TrilinearCoupler,
    UnknownMode,
    apply_device,
    compile_circuit,
    fidelity,
    make_coherent,
    make_fock,
    make_vacuum,
    mean_photon,
    product_state,
    vacuum_gaussian,
)
from fconv.devices import (
    amplifier_generator,
    converter_generator,
    device_unitary,
    trilinear_generator,
)
from fconv.devices import expm as chain_expm
from fconv.fock import annihilation_matrix, apply_matrix


SECTOR_WALK_CASES = {
    "converter-unequal-cutoffs": (
        [("p", 2.0, 5), ("i", 1.0, 2)],
        Converter("p", "i", 0.9, 0.4),
        converter_generator,
        0.9,
    ),
    "converter-idler-first-spectator": (
        [("i", 1.0, 3), ("x", 1.5, 2), ("p", 2.0, 4)],
        Converter("p", "i", 1.3, -0.7),
        converter_generator,
        1.3,
    ),
    "amplifier-spectator": (
        [("x", 1.5, 2), ("s", 1.0, 7), ("i", 1.0, 6)],
        Amplifier("s", "i", 0.2, 0.6),
        amplifier_generator,
        0.2,
    ),
    "trilinear-signal-cutoff-1": (
        [("p", 2.0, 3), ("s", 1.0, 1), ("i", 1.0, 2)],
        TrilinearCoupler("p", "s", "i", 0.8, 0.3),
        trilinear_generator,
        0.8,
    ),
    "trilinear-spectator": (
        [("s", 1.0, 2), ("p", 2.0, 2), ("x", 1.5, 1), ("i", 1.0, 3)],
        TrilinearCoupler("p", "s", "i", 1.1, -0.5),
        trilinear_generator,
        1.1,
    ),
}


def random_pure(registry, rng):
    from fconv import PureState

    v = rng.standard_normal(registry.dim) + 1j * rng.standard_normal(registry.dim)
    return PureState(registry, v / np.linalg.norm(v))


def number_matrix(registry, mode):
    a = annihilation_matrix(registry, mode)
    return a.conj().T @ a


# ---------------------------------------------------------------------------
# converter


def test_converter_theta_zero_identity():
    reg = ModeRegistry([("p", 2.0, 4), ("i", 1.0, 4)])
    U = device_unitary(reg, Converter("p", "i", 0.0))
    assert np.max(np.abs(U - np.eye(reg.dim))) < 1e-12


def test_converter_full_swap():
    reg = ModeRegistry([("p", 2.0, 5), ("i", 1.0, 5)])
    U = device_unitary(reg, Converter("p", "i", np.pi / 2))
    out = U @ make_fock(reg, [1, 0]).amplitudes
    target = make_fock(reg, [0, 1]).amplitudes
    assert abs(np.vdot(target, out)) ** 2 > 1 - 1e-10


def test_converter_half_conversion_against_dense_expm():
    # independent oracle: dense scipy expm of the same generator
    reg = ModeRegistry([("p", 2.0, 6), ("i", 1.0, 6)])
    dev = Converter("p", "i", np.pi / 4, phi_s=0.4)
    U = device_unitary(reg, dev)
    U_dense = expm(dev.theta * converter_generator(reg, dev))
    assert np.max(np.abs(U - U_dense)) < 1e-12
    out = U @ make_fock(reg, [1, 0]).amplitudes
    p_conv = abs(out[reg.flat_index([0, 1])]) ** 2
    assert abs(p_conv - np.sin(np.pi / 4) ** 2) < 1e-12


@pytest.mark.parametrize("case", SECTOR_WALK_CASES)
def test_sector_walk_matches_dense_expm(case):
    # independent oracle: dense expm of the Kronecker-built generator
    modes, dev, generator, strength = SECTOR_WALK_CASES[case]
    reg = ModeRegistry(modes)
    U_dense = expm(strength * generator(reg, dev))
    assert np.max(np.abs(device_unitary(reg, dev) - U_dense)) < 1e-12


@pytest.mark.parametrize("size", range(2, 42))
def test_chain_expm_matches_scipy_and_is_unitary(size):
    # a random chain block: tridiagonal K = c L - c^* L^dag with ladder
    # elements like sqrt(n_1 n_2) of two modes with cutoff up to 40
    rng = np.random.default_rng(size)
    c = rng.uniform(0.0, 1.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    elem = np.sqrt(rng.integers(1, 41, size - 1) * rng.integers(1, 41, size - 1))
    K = np.diag(c * elem, -1) - np.diag(np.conj(c) * elem, 1)
    U = chain_expm(K)
    assert np.max(np.abs(U - expm(K))) < 1e-13
    assert np.max(np.abs(U.conj().T @ U - np.eye(size))) < 1e-13


@pytest.mark.parametrize("N", range(7))
def test_converter_fock_input_binomial_closed_form(N):
    # SU(2) beam splitter on |N, 0>: amplitude on |N - k, k> is
    # sqrt(C(N, k)) cos^(N-k)(theta) (-e^{-i phi_s} sin(theta))^k
    theta, phi = 0.7, 0.9
    reg = ModeRegistry([("p", 2.0, 6), ("i", 1.0, 6)])
    U = device_unitary(reg, Converter("p", "i", theta, phi))
    out = U[:, reg.flat_index([N, 0])]
    want = np.zeros(reg.dim, dtype=complex)
    for k in range(N + 1):
        want[reg.flat_index([N - k, k])] = (
            np.sqrt(comb(N, k))
            * np.cos(theta) ** (N - k)
            * (-np.exp(-1j * phi) * np.sin(theta)) ** k
        )
    assert np.max(np.abs(out - want)) < 1e-12


def test_converter_unitary_and_number_conserving():
    reg = ModeRegistry([("p", 2.0, 5), ("i", 1.0, 4)])
    U = device_unitary(reg, Converter("p", "i", 1.1, 0.7))
    assert np.max(np.abs(U.conj().T @ U - np.eye(reg.dim))) < 1e-10
    N = number_matrix(reg, "p") + number_matrix(reg, "i")
    assert np.max(np.abs(U @ N - N @ U)) < 1e-10


def test_converter_heisenberg_action():
    # U^dag a U must reproduce the beam-splitter closed form on the subspace
    # untouched by truncation (total photons at least 2 below cutoff)
    reg = ModeRegistry([("p", 2.0, 8), ("i", 1.0, 8)])
    theta, phi = 0.9, 0.5
    U = device_unitary(reg, Converter("p", "i", theta, phi))
    ap = annihilation_matrix(reg, "p")
    ai = annihilation_matrix(reg, "i")
    out_p = U.conj().T @ ap @ U
    out_i = U.conj().T @ ai @ U
    want_p = ap * np.cos(theta) + np.exp(1j * phi) * ai * np.sin(theta)
    want_i = ai * np.cos(theta) - np.exp(-1j * phi) * ap * np.sin(theta)
    occ = reg.occupations()
    low = occ.sum(axis=1) <= 6
    mask = np.outer(low, low)
    assert np.max(np.abs((out_p - want_p)[mask])) < 1e-8
    assert np.max(np.abs((out_i - want_i)[mask])) < 1e-8


def test_converter_unit_conversion_of_arbitrary_pump_state():
    # theta = pi/2 moves any pump-mode state into the idler mode, with one
    # factor of e^{i phi_s} per photon (up to the map's global sign)
    rng = np.random.default_rng(0)
    c = 4
    phi = 0.8
    reg = ModeRegistry([("p", 2.0, c), ("i", 1.0, c)])
    amp = rng.standard_normal(c + 1) + 1j * rng.standard_normal(c + 1)
    amp /= np.linalg.norm(amp)
    psi = np.zeros(reg.dim, dtype=complex)
    for n in range(c + 1):
        psi[reg.flat_index([n, 0])] = amp[n]
    from fconv import PureState

    state = PureState(reg, psi)
    out = apply_device(state, Converter("p", "i", np.pi / 2, phi)).amplitudes
    expected = np.zeros(reg.dim, dtype=complex)
    for n in range(c + 1):
        expected[reg.flat_index([0, n])] = amp[n] * (-np.exp(-1j * phi)) ** n
    assert abs(np.vdot(expected, out)) ** 2 > 1 - 1e-9


# ---------------------------------------------------------------------------
# amplifier


def test_amplifier_zero_identity():
    reg = ModeRegistry([("s", 1.0, 4), ("i", 1.0, 4)])
    U = device_unitary(reg, Amplifier("s", "i", 0.0))
    assert np.max(np.abs(U - np.eye(reg.dim))) < 1e-12


def test_amplifier_vacuum_gain():
    r = 0.8
    reg = ModeRegistry([("s", 1.0, 35), ("i", 1.0, 35)])
    out = apply_device(make_vacuum(reg), Amplifier("s", "i", r))
    assert abs(mean_photon(out, "i") - np.sinh(r) ** 2) < 1e-8
    assert abs(mean_photon(out, "s") - np.sinh(r) ** 2) < 1e-8


def test_amplifier_conserves_photon_difference():
    rng = np.random.default_rng(42)
    reg = ModeRegistry([("s", 1.0, 12), ("i", 1.0, 12)])
    dev = Amplifier("s", "i", 0.3, phi_p=0.9)
    U = device_unitary(reg, dev)
    D = number_matrix(reg, "s") - number_matrix(reg, "i")
    for _ in range(3):
        psi = random_pure(reg, rng)
        out = U @ psi.amplitudes
        before = np.vdot(psi.amplitudes, D @ psi.amplitudes).real
        after = np.vdot(out, D @ out).real
        assert abs(before - after) < 1e-9


def test_amplifier_heisenberg_action():
    # active device: truncation leakage decays with distance to the cutoff,
    # so compare well inside the boundary
    reg = ModeRegistry([("s", 1.0, 30), ("i", 1.0, 30)])
    r, phi = 0.3, 1.2
    U = device_unitary(reg, Amplifier("s", "i", r, phi))
    a_s = annihilation_matrix(reg, "s")
    a_i = annihilation_matrix(reg, "i")
    G = np.cosh(r)
    g = -np.exp(1j * phi) * np.sinh(r)
    out_s = U.conj().T @ a_s @ U
    want_s = G * a_s + g * a_i.conj().T
    occ = reg.occupations()
    low = occ.max(axis=1) <= 8
    mask = np.outer(low, low)
    assert np.max(np.abs((out_s - want_s)[mask])) < 1e-8


def test_amplifier_cutoff_guard():
    reg = ModeRegistry([("s", 1.0, 3), ("i", 1.0, 3)])
    with pytest.raises(CutoffTooSmall):
        device_unitary(reg, Amplifier("s", "i", 1.5))


def test_amplifier_matches_dense_expm():
    reg = ModeRegistry([("s", 1.0, 10), ("i", 1.0, 10)])
    dev = Amplifier("s", "i", 0.4, 0.3)
    U = device_unitary(reg, dev)
    U_dense = expm(dev.squeeze * amplifier_generator(reg, dev))
    assert np.max(np.abs(U - U_dense)) < 1e-11


# ---------------------------------------------------------------------------
# trilinear coupler


def test_trilinear_zero_identity():
    reg = ModeRegistry([("p", 2.0, 2), ("s", 1.0, 2), ("i", 1.0, 2)])
    U = device_unitary(reg, TrilinearCoupler("p", "s", "i", 0.0))
    assert np.max(np.abs(U - np.eye(reg.dim))) < 1e-12


@pytest.mark.parametrize("eta_tau", [0.3, 0.8, 1.7])
def test_trilinear_single_pump_photon_rabi(eta_tau):
    # hand oracle: the |1,0,0>, |0,1,1> pair forms a closed 2x2 rotation
    reg = ModeRegistry([("p", 2.0, 1), ("s", 1.0, 1), ("i", 1.0, 1)])
    out = apply_device(make_fock(reg, [1, 0, 0]), TrilinearCoupler("p", "s", "i", eta_tau))
    p = abs(out.amplitudes[reg.flat_index([0, 1, 1])]) ** 2
    assert abs(p - np.sin(eta_tau) ** 2) < 1e-12


def test_trilinear_two_pump_photons_against_dense_expm():
    reg = ModeRegistry([("p", 2.0, 2), ("s", 1.0, 2), ("i", 1.0, 2)])
    dev = TrilinearCoupler("p", "s", "i", 0.6, phase=0.2)
    U = device_unitary(reg, dev)
    U_dense = expm(dev.eta_tau * trilinear_generator(reg, dev))
    assert np.max(np.abs(U - U_dense)) < 1e-11
    out = U @ make_fock(reg, [2, 0, 0]).amplitudes
    probs = {
        occ: abs(out[reg.flat_index(occ)]) ** 2
        for occ in [(2, 0, 0), (1, 1, 1), (0, 2, 2)]
    }
    assert abs(sum(probs.values()) - 1) < 1e-12  # dynamics closed on the 3x3 block


def test_trilinear_conserves_both_charges():
    rng = np.random.default_rng(9)
    reg = ModeRegistry([("p", 2.0, 3), ("s", 1.0, 3), ("i", 1.0, 3)])
    U = device_unitary(reg, TrilinearCoupler("p", "s", "i", 0.7, 1.1))
    N_ps = number_matrix(reg, "p") + number_matrix(reg, "s")
    N_si = number_matrix(reg, "s") - number_matrix(reg, "i")
    for _ in range(3):
        psi = random_pure(reg, rng).amplitudes
        out = U @ psi
        for Q in (N_ps, N_si):
            drift = abs(np.vdot(out, Q @ out).real - np.vdot(psi, Q @ psi).real)
            assert drift < 1e-9


# ---------------------------------------------------------------------------
# circuits


def test_device_validation():
    with pytest.raises(ValueError):
        Converter("p", "p", 0.5)
    with pytest.raises(ValueError):
        Amplifier("s", "i", -0.1)
    with pytest.raises(ValueError):
        TrilinearCoupler("p", "s", "p", 0.1)
    with pytest.raises(ValueError):
        Attenuator("a", 1.2)
    # NaN fails every comparison, so it must not slip past a sign check
    for make in (
        lambda: Converter("p", "i", np.nan),
        lambda: Amplifier("s", "i", np.nan),
        lambda: TrilinearCoupler("p", "s", "i", np.nan),
        lambda: Attenuator("a", np.nan),
    ):
        with pytest.raises(ValueError):
            make()
    reg = ModeRegistry([("p", 2.0, 2), ("i", 1.0, 2)])
    with pytest.raises(UnknownMode):
        Circuit(reg, [Converter("p", "zz", 0.5)])


def test_empty_circuit_is_identity():
    reg = ModeRegistry([("p", 2.0, 12), ("i", 1.0, 12)])
    run = compile_circuit(Circuit(reg, []))
    v = make_coherent(reg, {"p": 0.4})
    assert np.allclose(run(v).amplitudes, v.amplitudes)


def test_attenuated_conversion_closed_form():
    # loss then beam splitter on a coherent state: n_idler = T |alpha|^2 sin^2(theta)
    T, theta, alpha = 0.35, 0.8, 1.1
    reg = ModeRegistry([("p", 2.0, 14), ("i", 1.0, 14)])
    run = compile_circuit(
        Circuit(reg, [Attenuator("p", T), Converter("p", "i", theta)])
    )
    out = run(make_coherent(reg, {"p": alpha}))
    assert abs(mean_photon(out, "i") - T * alpha**2 * np.sin(theta) ** 2) < 1e-9


def test_converter_composition_adds_angles():
    reg = ModeRegistry([("p", 2.0, 12), ("i", 1.0, 12)])
    seq = compile_circuit(
        Circuit(reg, [Converter("p", "i", 0.4), Converter("p", "i", 0.7)])
    )
    single = compile_circuit(Circuit(reg, [Converter("p", "i", 1.1)]))
    start = make_coherent(reg, {"p": 0.5})
    a = seq(start).amplitudes
    b = single(start).amplitudes
    assert np.max(np.abs(a - b)) < 1e-9


def test_phase_shift_on_coherent():
    reg = ModeRegistry([("a", 1.0, 15)])
    out = apply_device(make_coherent(reg, {"a": 1.0}), PhaseShift("a", 0.9))
    target = make_coherent(reg, {"a": np.exp(0.9j)})
    assert fidelity(out, target) > 1 - 1e-10


def test_gaussian_compile_rejects_trilinear():
    # compiling succeeds; the Gaussian backend rejects the device when it runs
    reg = ModeRegistry([("p", 2.0, 2), ("s", 1.0, 2), ("i", 1.0, 2)])
    circ = Circuit(reg, [TrilinearCoupler("p", "s", "i", 0.3)])
    run = compile_circuit(circ, backend="gaussian")
    with pytest.raises(NonGaussianDevice):
        run(vacuum_gaussian(reg))


def test_subregistry_application_matches_full_space():
    # spectator mode present: contraction path vs full-space unitary
    reg = ModeRegistry([("p", 2.0, 3), ("x", 1.5, 2), ("i", 1.0, 3)])
    dev = Converter("p", "i", 0.6, 0.2)
    rng = np.random.default_rng(1)
    psi = random_pure(reg, rng)
    via_sub = apply_device(psi, dev)
    U_full = device_unitary(reg, dev)
    via_full = U_full @ psi.amplitudes
    assert np.max(np.abs(via_sub.amplitudes - via_full)) < 1e-11
