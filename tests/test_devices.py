import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import comb

import fconv.cli
import fconv.devices
from fconv import (
    Amplifier,
    Attenuator,
    Converter,
    CutoffTooSmall,
    FockDensityOp,
    ModeRegistry,
    NonGaussianDevice,
    PhaseShift,
    PureState,
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
    run_noise_comparison,
)
from fconv.devices import (
    amplifier_generator,
    amplifier_required_cutoff,
    converter_generator,
    device_unitary,
    trilinear_generator,
)
from fconv.devices import expm as chain_expm
from fconv.fock import annihilation_matrix, apply_matrix, coherent_required_cutoff, to_density
from fconv.gaussian import gaussian_sweep

from dense_reference import dense_unitary, reference_block


def chain_spectrum(elem):
    """eigh of the real symmetric tridiagonal whose off-diagonals are ``elem``."""
    T = np.diag(elem, -1)
    return np.linalg.eigh(T + T.T)


def phase_column(c, n):
    """The diagonal of D = diag(u^k), u = i e^{i angle(c)}, k = 0 .. n - 1, as a column."""
    return (1j * np.exp(1j * np.angle(c))) ** np.arange(n)[:, None]


def chain_block(c, elem):
    """`expm` of the chain block of coupling c and ladder elements ``elem``."""
    w, V = chain_spectrum(elem)
    return chain_expm(phase_column(c, len(w)) * V, np.exp(-1j * abs(c) * w))


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
    U = dense_unitary(reg, Converter("p", "i", 0.0))
    assert np.max(np.abs(U - np.eye(reg.dim))) < 1e-12


def test_converter_full_swap():
    reg = ModeRegistry([("p", 2.0, 5), ("i", 1.0, 5)])
    U = dense_unitary(reg, Converter("p", "i", np.pi / 2))
    out = U @ make_fock(reg, [1, 0]).amplitudes
    target = make_fock(reg, [0, 1]).amplitudes
    assert abs(np.vdot(target, out)) ** 2 > 1 - 1e-10


def test_converter_half_conversion_against_dense_expm():
    # independent oracle: dense scipy expm of the same generator
    reg = ModeRegistry([("p", 2.0, 6), ("i", 1.0, 6)])
    dev = Converter("p", "i", np.pi / 4, phi_s=0.4)
    U = dense_unitary(reg, dev)
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
    assert np.max(np.abs(dense_unitary(reg, dev) - U_dense)) < 1e-12


@pytest.mark.parametrize("size", range(2, 42))
def test_chain_expm_matches_scipy_and_is_unitary(size):
    # a random chain block: tridiagonal K = c L - c^* L^dag with ladder
    # elements like sqrt(n_1 n_2) of two modes with cutoff up to 40
    rng = np.random.default_rng(size)
    c = rng.uniform(0.0, 1.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    elem = np.sqrt(rng.integers(1, 41, size - 1) * rng.integers(1, 41, size - 1))
    K = np.diag(c * elem, -1) - np.diag(np.conj(c) * elem, 1)
    U = chain_block(c, elem)
    assert np.max(np.abs(U - expm(K))) < 1e-13
    assert np.max(np.abs(U.conj().T @ U - np.eye(size))) < 1e-13


@pytest.mark.parametrize("N", range(7))
def test_converter_fock_input_binomial_closed_form(N):
    # SU(2) beam splitter on |N, 0>: amplitude on |N - k, k> is
    # sqrt(C(N, k)) cos^(N-k)(theta) (-e^{-i phi_s} sin(theta))^k
    theta, phi = 0.7, 0.9
    reg = ModeRegistry([("p", 2.0, 6), ("i", 1.0, 6)])
    U = dense_unitary(reg, Converter("p", "i", theta, phi))
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
    U = dense_unitary(reg, Converter("p", "i", 1.1, 0.7))
    assert np.max(np.abs(U.conj().T @ U - np.eye(reg.dim))) < 1e-10
    N = number_matrix(reg, "p") + number_matrix(reg, "i")
    assert np.max(np.abs(U @ N - N @ U)) < 1e-10


def test_converter_heisenberg_action():
    # U^dag a U must reproduce the beam-splitter closed form on the subspace
    # untouched by truncation (total photons at least 2 below cutoff)
    reg = ModeRegistry([("p", 2.0, 8), ("i", 1.0, 8)])
    theta, phi = 0.9, 0.5
    U = dense_unitary(reg, Converter("p", "i", theta, phi))
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
    U = dense_unitary(reg, Amplifier("s", "i", 0.0))
    assert np.max(np.abs(U - np.eye(reg.dim))) < 1e-12


def test_amplifier_vacuum_gain():
    r = 0.8
    reg = ModeRegistry([("s", 1.0, 35), ("i", 1.0, 35)])
    out = apply_device(make_vacuum(reg), Amplifier("s", "i", r))
    assert abs(mean_photon(out, "i") - np.sinh(r) ** 2) < 1e-8
    assert abs(mean_photon(out, "s") - np.sinh(r) ** 2) < 1e-8


@pytest.mark.parametrize("r, phi", [(0.3, 0.0), (0.7, 1.2), (1.0, -2.5)])
def test_amplifier_two_mode_vacuum_su11_closed_form(r, phi):
    # SU(1,1) two-mode squeezer (Yurke, McCall & Klauder, PRA 33, 4033
    # (1986)) on |0, 0>: amplitude (g/G)^n / G on |n, n> and zero elsewhere,
    # with G = cosh r and g = -e^{i phi_p} sinh r of the module's Heisenberg
    # action; the cutoff leaves a tail below 1e-30 so truncation cannot show
    c = amplifier_required_cutoff(r, tail_tol=1e-30)
    reg = ModeRegistry([("s", 1.0, c), ("i", 1.0, c)])
    out = apply_device(make_vacuum(reg), Amplifier("s", "i", r, phi)).amplitudes
    G, g = np.cosh(r), -np.exp(1j * phi) * np.sinh(r)
    want = np.zeros(reg.dim, dtype=complex)
    for n in range(c + 1):
        want[reg.flat_index([n, n])] = (g / G) ** n / G
    assert np.max(np.abs(out - want)) < 1e-12


def test_amplifier_at_cutoff_42_allocates_no_dense_unitary():
    # dim 43^2 = 1849: a dense complex U would take 55 MB; the chain blocks
    # take under 1 MB
    reg = ModeRegistry([("s", 1.0, 42), ("i", 1.0, 42)])
    vacuum = make_vacuum(reg)
    tracemalloc.start()
    try:
        out = compile_circuit(reg, [Amplifier("s", "i", 1.0)])(vacuum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(mean_photon(out, "i") - np.sinh(1.0) ** 2) < 1e-7
    assert peak < 5e6


def test_amplifier_conserves_photon_difference():
    rng = np.random.default_rng(42)
    reg = ModeRegistry([("s", 1.0, 12), ("i", 1.0, 12)])
    dev = Amplifier("s", "i", 0.3, phi_p=0.9)
    U = dense_unitary(reg, dev)
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
    U = dense_unitary(reg, Amplifier("s", "i", r, phi))
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


def test_amplifier_guard_raises_only_for_a_larger_cutoff():
    # at tanh(s)^(2(c+1)) = 1e-8 rounding may go either way, but a guard that
    # raises must ask for more than the cutoff in hand
    for c in range(1, 81):
        reg = ModeRegistry([("a", 1.0, c), ("b", 2.0, c)])
        try:
            device_unitary(reg, Amplifier("a", "b", np.arctanh(1e-8 ** (1 / (2 * (c + 1))))))
        except CutoffTooSmall as exc:
            assert exc.required_cutoff > c, f"cutoff {c}: {exc}"


def test_amplifier_required_cutoff_where_tanh_squared_rounds_to_one():
    # tanh(20)^2 rounds to 1 in floating point, so log tanh^2 would be 0
    assert amplifier_required_cutoff(20.0) > 10**17
    with pytest.raises(ValueError, match="squeeze 400.0 is too large for any Fock cutoff"):
        amplifier_required_cutoff(400.0)  # sech^2 underflows to 0


def test_amplifier_matches_dense_expm():
    reg = ModeRegistry([("s", 1.0, 10), ("i", 1.0, 10)])
    dev = Amplifier("s", "i", 0.4, 0.3)
    U = dense_unitary(reg, dev)
    U_dense = expm(dev.squeeze * amplifier_generator(reg, dev))
    assert np.max(np.abs(U - U_dense)) < 1e-11


# ---------------------------------------------------------------------------
# trilinear coupler


def test_trilinear_zero_identity():
    reg = ModeRegistry([("p", 2.0, 2), ("s", 1.0, 2), ("i", 1.0, 2)])
    U = dense_unitary(reg, TrilinearCoupler("p", "s", "i", 0.0))
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
    U = dense_unitary(reg, dev)
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
    U = dense_unitary(reg, TrilinearCoupler("p", "s", "i", 0.7, 1.1))
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
    for devices in ([Converter("p", "zz", 0.5)], [Converter("p", "i", 0.5), Attenuator("q", 0.5)]):
        with pytest.raises(UnknownMode):  # at compile time, before any run
            compile_circuit(reg, devices)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda x: Converter("p", "i", x), "theta"),
        (lambda x: Converter("p", "i", 0.5, x), "phi_s"),
        (lambda x: Amplifier("s", "i", x), "squeeze"),
        (lambda x: Amplifier("s", "i", 0.5, x), "phi_p"),
        (lambda x: TrilinearCoupler("p", "s", "i", x), "eta_tau"),
        (lambda x: TrilinearCoupler("p", "s", "i", 0.5, x), "phase"),
        (lambda x: PhaseShift("a", x), "phi"),
    ],
    ids=["theta", "phi_s", "squeeze", "phi_p", "eta_tau", "phase", "phi"],
)
def test_non_finite_strength_or_phase_names_its_field(make, field, value):
    # unchecked, a NaN phase gives an all-NaN state, and an infinite strength
    # fails inside the exponential (LinAlgError, OverflowError)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make(value)


def _trilinear_chain_idler(eta_tau: float) -> float:
    """<n_i> after the coupler on |3,0,0>, from its whole chain |3-k, k, k>, k = 0..3,
    whose neighbours couple by sqrt(3 - k) (k + 1)."""
    h = np.diag([np.sqrt(3 - k) * (k + 1) for k in range(3)], -1)
    return float(np.abs(expm(eta_tau * (h - h.T))[:, 0]) ** 2 @ np.arange(4))


@pytest.mark.xfail(strict=True, reason="a clipped chain of a non-vacuum input is not detected yet")
@pytest.mark.parametrize(
    "modes, occupations, dev, exact",
    [
        # |3,0> swaps fully to |0,3>, which an idler cutoff of 2 cannot hold (gives 1.4528)
        ([("p", 2.0, 5), ("i", 1.0, 2)], [3, 0], Converter("p", "i", np.pi / 2), 3.0),
        # <n_i> = (n_s + 1) sinh^2 r; the guard checks only the vacuum tail (gives 0.83189)
        ([("p", 1.0, 12), ("i", 1.0, 12)], [8, 0], Amplifier("p", "i", 0.3), 9 * np.sinh(0.3) ** 2),
        # the chain reaches |0,3,3>, past a signal cutoff of 1 (gives 0.58028)
        (
            [("p", 2.0, 3), ("s", 1.0, 1), ("i", 1.0, 3)],
            [3, 0, 0],
            TrilinearCoupler("p", "s", "i", 0.5),
            _trilinear_chain_idler(0.5),
        ),
    ],
    ids=["converter", "amplifier", "trilinear"],
)
def test_clipped_input_raises_or_is_exact(modes, occupations, dev, exact):
    reg = ModeRegistry(modes)
    try:
        out = apply_device(make_fock(reg, occupations), dev)
    except CutoffTooSmall:
        return
    assert abs(mean_photon(out, "i") - exact) < 1e-9


def test_empty_circuit_is_identity():
    reg = ModeRegistry([("p", 2.0, 12), ("i", 1.0, 12)])
    run = compile_circuit(reg, [])
    v = make_coherent(reg, {"p": 0.4})
    assert np.allclose(run(v).amplitudes, v.amplitudes)


def test_attenuated_conversion_closed_form():
    # loss then beam splitter on a coherent state: n_idler = T |alpha|^2 sin^2(theta)
    T, theta, alpha = 0.35, 0.8, 1.1
    reg = ModeRegistry([("p", 2.0, 14), ("i", 1.0, 14)])
    run = compile_circuit(reg, [Attenuator("p", T), Converter("p", "i", theta)])
    out = run(make_coherent(reg, {"p": alpha}))
    assert abs(mean_photon(out, "i") - T * alpha**2 * np.sin(theta) ** 2) < 1e-9


def test_converter_composition_adds_angles():
    reg = ModeRegistry([("p", 2.0, 12), ("i", 1.0, 12)])
    seq = compile_circuit(reg, [Converter("p", "i", 0.4), Converter("p", "i", 0.7)])
    single = compile_circuit(reg, [Converter("p", "i", 1.1)])
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
    # the Gaussian sweep folds its moment map before it moves any state, so it rejects the device there
    reg = ModeRegistry([("p", 2.0, 2), ("s", 1.0, 2), ("i", 1.0, 2)])
    with pytest.raises(NonGaussianDevice):
        gaussian_sweep(reg, [((TrilinearCoupler("p", "s", "i", 0.3),), {})], [])


@pytest.mark.parametrize(
    "modes, dev",
    [
        ([("p", 2.0, 5), ("i", 1.0, 2)], Converter("p", "i", 0.9, 0.4)),
        ([("s", 1.0, 4), ("i", 1.0, 6)], Amplifier("s", "i", 0.1, 0.6)),
        ([("p", 2.0, 3), ("s", 1.0, 1), ("i", 1.0, 2)], TrilinearCoupler("p", "s", "i", 0.8)),
    ],
    ids=["converter", "amplifier", "trilinear"],
)
def test_chain_blocks_are_disjoint_unitary_groups_by_length(modes, dev):
    reg = ModeRegistry(modes)
    groups = device_unitary(reg, dev)
    assert all(B is None for _, B in groups)  # built on demand
    sizes = [idx.shape[1] for idx, _ in groups]
    assert sizes == sorted(set(sizes)) and min(sizes) >= 2
    flat = np.concatenate([idx.ravel() for idx, _ in groups])
    assert len(set(flat)) == len(flat) and flat.max() < reg.dim
    for g, (idx, _) in enumerate(groups):
        B = groups.build(g)
        assert B.shape == idx.shape + idx.shape[1:]
        eye = np.eye(idx.shape[1])
        assert np.max(np.abs(B.conj().transpose(0, 2, 1) @ B - eye)) < 1e-12


def test_phase_shift_is_one_group_of_phases():
    reg = ModeRegistry([("a", 1.0, 3), ("b", 1.0, 2)])
    [(idx, B)] = device_unitary(reg, PhaseShift("b", 0.3))
    assert idx.shape == (reg.dim, 1) and B.shape == (reg.dim, 1, 1)
    assert np.allclose(B[:, 0, 0], np.exp(0.3j * reg.occupations()[:, 1]), atol=1e-15)


def test_subregistry_application_matches_full_space():
    # spectator mode present: contraction path vs full-space unitary
    reg = ModeRegistry([("p", 2.0, 3), ("x", 1.5, 2), ("i", 1.0, 3)])
    dev = Converter("p", "i", 0.6, 0.2)
    rng = np.random.default_rng(1)
    psi = random_pure(reg, rng)
    via_sub = apply_device(psi, dev)
    U_full = dense_unitary(reg, dev)
    via_full = U_full @ psi.amplitudes
    assert np.max(np.abs(via_sub.amplitudes - via_full)) < 1e-11


# ---------------------------------------------------------------------------
# distinct blocks, exponentiated once


@pytest.fixture
def expm_calls(monkeypatch):
    """Counts the chain-block exponentials taken while the test runs."""
    calls = []
    original = fconv.devices.expm

    def counting(DV, e, out=None):
        calls.append(len(e))
        return original(DV, e, out)

    monkeypatch.setattr(fconv.devices, "expm", counting)
    return calls


@pytest.mark.parametrize(
    "cutoffs, dev, calls",
    [
        # 49 chains (n_s - n_i = -24..24); d and -d have equal ladder elements
        ((25, 25), Amplifier("s", "i", 0.5, 0.3), 25),
        # unequal cutoffs: mirror chains differ in length, nothing to share
        ((7, 6), Amplifier("s", "i", 0.1), 12),
        # chains of total N and 24 - N have equal lengths but distinct elements
        ((12, 12), Converter("s", "i", 0.7, 0.2), 23),
    ],
    ids=["amplifier-equal-cutoffs", "amplifier-unequal-cutoffs", "converter"],
)
def test_each_distinct_block_is_exponentiated_once(cutoffs, dev, calls, expm_calls):
    reg = ModeRegistry([("s", 1.0, cutoffs[0]), ("i", 1.0, cutoffs[1])])
    groups = device_unitary(reg, dev)
    assert expm_calls == []  # the chain walk exponentiates nothing
    built = [groups.build(g) for g in range(len(groups))]
    assert len(expm_calls) == calls
    # building again returns the kept blocks and exponentiates nothing
    assert all(groups.build(g) is B for g, B in enumerate(built)) and len(expm_calls) == calls
    # a shared block is bitwise the exponential of each of its chains' own block
    step, c = dev.ladder
    n = reg.occupations()
    elem = np.sqrt(np.where(np.array(step) > 0, n + 1, n).prod(axis=1))
    for (idx, _), B in zip(groups, built):
        for chain, block in zip(idx, B):
            assert np.array_equal(block, chain_block(c, elem[chain[:-1]]))


def test_noise_scan_from_zero_strength_exponentiates_one_block(expm_calls):
    # at s = 0.75 the converter (cutoff 5) has 9 distinct blocks and the
    # amplifier (cutoff 25) 25 for its 49 chains, 34 in all; at s = 0 neither
    # device has a block.  Vacuum reaches only the amplifier's n_s = n_i chain:
    # the converter's vacuum is a one-state chain
    run_noise_comparison([0.0, 0.75], backend="fock")
    assert expm_calls == [26]


def test_default_fock_noise_scan_exponentiates_one_block_per_strength(expm_calls):
    # 11 strengths in [0, 1], cutoff 42: 510 blocks when every group was built
    run_noise_comparison(np.linspace(0.0, 1.0, 11), backend="fock")
    assert expm_calls == [43] * 10


def test_default_linearity_scan_builds_every_converter_group(monkeypatch, expm_calls, tmp_path):
    # the coherent pump reaches every chain-length group of the cutoff-12
    # converter, so each of the 9 transmissions builds all 23 distinct blocks
    built = []
    original = fconv.devices.device_unitary
    monkeypatch.setattr(
        fconv.devices, "device_unitary", lambda reg, dev: built.append(dev) or original(reg, dev)
    )
    assert fconv.cli.main(["linearity", "-o", str(tmp_path / "lin.csv")]) == 0
    assert len(built) == 9
    assert len(expm_calls) == 207


def test_compiled_circuit_builds_each_group_once_across_runs(expm_calls):
    # cutoff 8, equal on both modes: one distinct block per chain-length group
    reg = ModeRegistry([("s", 1.0, 8), ("i", 1.0, 8)])
    amplifier = [Amplifier("s", "i", 0.2, 0.4)]
    run = compile_circuit(reg, amplifier)
    run(make_vacuum(reg))
    assert expm_calls == [9]  # the n_s = n_i chain alone
    coherent = make_coherent(reg, {"s": 0.3})  # reaches every chain n_s - n_i = d >= 0
    second = run(coherent)
    assert len(expm_calls) == 8  # the 7 groups vacuum left unbuilt
    fresh = compile_circuit(reg, amplifier)(coherent)
    assert len(expm_calls) == 16
    assert np.array_equal(second.amplitudes, fresh.amplitudes)
    third = run(coherent)
    assert len(expm_calls) == 16
    assert np.array_equal(third.amplitudes, fresh.amplitudes)


@pytest.mark.parametrize(
    "dev",
    [
        Converter("a", "b", 0.0, 0.4),
        Amplifier("a", "b", 0.0, 1.1),
        TrilinearCoupler("a", "b", "c", 0.0, -0.3),
        PhaseShift("b", 0.0),
    ],
    ids=["converter", "amplifier", "trilinear", "phase-shift"],
)
def test_zero_strength_device_has_no_blocks(dev, expm_calls):
    reg = ModeRegistry([("a", 2.0, 3), ("b", 1.0, 4), ("c", 1.0, 2)])
    assert device_unitary(reg, dev) == []
    assert expm_calls == []
    psi = random_pure(reg, np.random.default_rng(5))
    assert np.array_equal(apply_device(psi, dev).amplitudes, psi.amplitudes)


# ---------------------------------------------------------------------------
# the chain walk, cached per cutoff box, modes and step


@pytest.fixture
def walks():
    """The chain-walk cache, emptied, so its counters count this test's walks."""
    fconv.devices._walk_chains.cache_clear()
    return fconv.devices._walk_chains


def test_equal_box_modes_and_step_walk_once(walks, expm_calls):
    reg = ModeRegistry([("p", 2.0, 6), ("i", 1.0, 6)])
    first = device_unitary(reg, Converter("p", "i", 0.3))
    second = device_unitary(reg, Converter("p", "i", 0.9, 0.5))
    assert (walks.cache_info().misses, walks.cache_info().hits) == (1, 1)
    assert all(a[0] is b[0] for a, b in zip(first, second))  # shared chains
    # each call keeps blocks of its own coupling: the four-state chains of
    # totals 3 and 9 are two distinct blocks per device
    assert not np.array_equal(first.build(2), second.build(2))
    assert len(expm_calls) == 4


@pytest.mark.parametrize(
    "cutoffs, axes, step",
    [
        ((5, 3), (0, 1), (1, -1)),
        ((5, 3), (1, 0), (1, -1)),  # the same modes in the other order
        ((5, 3), (0, 1), (1, 1)),  # amplifier step
        ((3, 5), (0, 1), (1, -1)),
        ((4, 2, 3), (0, 1, 2), (1, -1, -1)),
        ((4, 2, 3), (2, 0), (1, -1)),  # a spectator mode
    ],
)
def test_walk_keys_never_share_an_entry_and_match_an_uncached_walk(walks, cutoffs, axes, step):
    others = [((5, 3), (0, 1), (1, -1)), ((5, 3), (1, 0), (1, 1)), ((4, 2, 3), (0, 2), (1, -1))]
    for key in others:
        walks(*key)
    misses = walks.cache_info().misses
    idx, elem, group_of, _ = walks(cutoffs, axes, step)
    assert walks.cache_info().misses == misses + ((cutoffs, axes, step) not in others)
    ref_idx, ref_elem, ref_group_of, _ = walks.__wrapped__(cutoffs, axes, step)
    assert len(idx) == len(ref_idx)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(idx, ref_idx))
    assert np.array_equal(elem, ref_elem) and np.array_equal(group_of, ref_group_of)


def test_cached_walk_is_read_only(walks):
    reg = ModeRegistry([("s", 1.0, 4), ("i", 1.0, 4)])
    groups = device_unitary(reg, Amplifier("s", "i", 0.01))
    for array in (groups[0][0], groups.elem, groups.group_of):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_default_fock_noise_scan_walks_two_boxes(walks):
    # 11 strengths: s = 0 walks nothing, the other 10 share the converter's
    # and the amplifier's box
    run_noise_comparison(np.linspace(0.0, 1.0, 11), backend="fock")
    assert (walks.cache_info().misses, walks.cache_info().hits) == (2, 18)


def test_default_fringe_scan_walks_one_box(walks, tmp_path):
    # the converter and the combiner act on equal cutoffs along the same step
    assert fconv.cli.main(["fringe", "-o", str(tmp_path / "fringe.csv")]) == 0
    assert (walks.cache_info().misses, walks.cache_info().hits) == (1, 1)


# ---------------------------------------------------------------------------
# chain spectra, stored per cutoff box for every coupling


@pytest.fixture
def eigh_calls(monkeypatch):
    """Sizes of the np.linalg.eigh calls made while the test runs, from an empty
    store of chain walks and their spectra."""
    fconv.devices._walk_chains.cache_clear()
    calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or original(a))
    return calls


def stored_spectrum(groups, row):
    """The (w, V) that ``groups``' box stores for a ladder row on one of its chains."""
    g = next(g for g, (idx, _) in enumerate(groups) if idx.shape[1] == len(row) + 1)
    rows = groups.elem[groups[g][0][:, :-1]]
    i = next(i for i, r in enumerate(rows) if np.array_equal(r, row))
    W, V, inv = groups.spectra[g]
    k = i if inv is None else inv[i]
    return W[k], V[k]


def test_converter_chain_spectrum_is_jordan_schwinger(eigh_calls):
    # the complete converter chain of total N is the spin-N/2 representation
    # of 2 J_x: its ladder-element spectrum is N - 2k, k = 0..N, whatever theta
    reg = ModeRegistry([("p", 2.0, 12), ("i", 1.0, 13)])
    groups = device_unitary(reg, Converter("p", "i", 0.4, 1.1))
    for g in range(len(groups)):
        groups.build(g)
    # one eigh per distinct row
    assert len(eigh_calls) == sum(len(W) for W, _, _ in groups.spectra.values())
    for N in range(1, 13):
        k = np.arange(N)  # <k + 1, N - k - 1| L |k, N - k> = sqrt((k + 1)(N - k))
        w, _ = stored_spectrum(groups, np.sqrt((k + 1) * (N - k)))
        assert np.max(np.abs(w - np.arange(-N, N + 1, 2))) < 1e-12


def test_default_linearity_scan_diagonalises_each_chain_once(eigh_calls, expm_calls, tmp_path):
    # 9 transmissions on one cutoff-12 box: 23 distinct rows, one eigh each,
    # while every transmission still exponentiates its own 23 blocks
    assert fconv.cli.main(["linearity", "-o", str(tmp_path / "lin.csv")]) == 0
    assert len(eigh_calls) == 23
    assert len(expm_calls) == 207


def test_default_fock_noise_scan_diagonalises_one_chain(eigh_calls, expm_calls):
    # the 10 nonzero amplifier strengths share the n_s = n_i chain's spectrum
    run_noise_comparison(np.linspace(0.0, 1.0, 11), backend="fock")
    assert eigh_calls == [43]
    assert expm_calls == [43] * 10


def test_fringe_combiner_diagonalises_nothing_over_its_converter(eigh_calls, expm_calls):
    # the default fringe circuit: equal cutoffs along the same step, so the
    # combiner's rows are the converter's
    c = coherent_required_cutoff(np.hypot(1.0, 0.25))
    reg = ModeRegistry([("pump", 2.0, c), ("idler", 1.0, c), ("ref", 1.0, c)])
    conv, combiner = Converter("pump", "idler", 0.6, 0.3), Converter("idler", "ref", np.pi / 4)
    state = make_coherent(reg, {"pump": 1.0, "ref": 0.25})
    compile_circuit(reg, (conv,))(state)
    assert len(eigh_calls) == len(expm_calls) == 2 * c - 1
    compile_circuit(reg, (conv, combiner))(state)
    assert len(eigh_calls) == 2 * c - 1
    assert len(expm_calls) == 3 * (2 * c - 1)


def test_stored_spectra_are_read_only_and_at_most_eight_boxes(eigh_calls):
    for cutoff in range(2, 13):
        reg = ModeRegistry([("s", 1.0, cutoff), ("i", 1.0, cutoff)])
        groups = device_unitary(reg, Amplifier("s", "i", 0.01))
        groups.build(0)
        W, V, _ = groups.spectra[0]
        for array in (W, V):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert fconv.devices._walk_chains.cache_info().currsize == min(cutoff - 1, 8)


@pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
@pytest.mark.parametrize(
    "dev, prepare",
    [
        (Converter("p", "i", 0.0), lambda reg: random_pure(reg, np.random.default_rng(2))),
        (Converter("p", "i", 0.7), make_vacuum),  # vacuum is a one-state chain
    ],
    ids=["zero-strength", "converter-on-vacuum"],
)
def test_apply_matrix_returns_its_input_when_no_group_applies(dev, prepare, density, expm_calls):
    reg = ModeRegistry([("p", 2.0, 4), ("i", 1.0, 3)])
    state = to_density(prepare(reg)) if density else prepare(reg)
    assert apply_matrix(state, device_unitary(reg, dev), dev.modes) is state
    assert expm_calls == []


_DENSE_CASES = {
    "converter": (2, converter_generator, lambda m, c, p: Converter(*m, c, p)),
    "amplifier": (2, amplifier_generator, lambda m, c, p: Amplifier(*m, c, p)),
    "trilinear": (3, trilinear_generator, lambda m, c, p: TrilinearCoupler(*m, c, p)),
}


def _draw_device(data, strength=None, spectators=False):
    """(registry, device, strength, dense generator) on cutoffs that are equal
    (shared mirror blocks) or not; the strength is drawn unless given.  With
    ``spectators``, none, one or two spectator modes join the registry, every mode
    at a random axis position; a trilinear coupler among spectators keeps its
    cutoffs at 4 or below so the dense oracle stays small."""
    kind = data.draw(st.sampled_from(sorted(_DENSE_CASES)), label="device")
    num_modes, generator, build = _DENSE_CASES[kind]
    extra = []
    if spectators:
        extra = data.draw(st.lists(st.integers(1, 2), max_size=2), label="spectators")
    top = 4 if extra and num_modes == 3 else 8
    cutoffs = data.draw(st.lists(st.integers(1, top), min_size=num_modes, max_size=num_modes))
    if data.draw(st.booleans(), label="equal cutoffs"):
        cutoffs = [cutoffs[0]] * num_modes
    modes = "abc"[:num_modes]
    entries = [(m, 1.0 + i, c) for i, (m, c) in enumerate(zip(modes, cutoffs))]
    if extra:
        entries += [(m, 4.0 + i, c) for i, (m, c) in enumerate(zip("xy", extra))]
        entries = data.draw(st.permutations(entries), label="mode order")
    reg = ModeRegistry(entries)
    if strength is None:
        strength = data.draw(st.floats(0.0, 1.5), label="strength")
        if kind == "amplifier":  # strictly inside the squeezed-vacuum tail guard, not on its edge
            strength *= 0.999 * np.arctanh(1e-8 ** (1 / (2 * (min(cutoffs) + 1)))) / 1.5
    dev = build(modes, strength, data.draw(st.floats(-np.pi, np.pi), label="phase"))
    return reg, dev, strength, generator


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_blocks_match_dense_expm_of_generator(data):
    # independent oracle: scipy's dense expm of the Kronecker-built generator
    reg, dev, strength, generator = _draw_device(data)
    U_dense = expm(strength * generator(reg, dev))
    assert np.max(np.abs(dense_unitary(reg, dev) - U_dense)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_built_blocks_are_bitwise_the_per_block_formula(data):
    # the phase column is formed once per device and sliced per block; every
    # block must still equal, bit for bit, the formula that forms its own phases
    tiny = data.draw(st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, None]))
    reg, dev, _, _ = _draw_device(data, tiny)
    groups = device_unitary(reg, dev)
    for g, (idx, _) in enumerate(groups):
        for chain, block in zip(idx, groups.build(g)):
            spectrum = chain_spectrum(groups.elem[chain[:-1]])
            assert np.array_equal(block, reference_block(groups.coupling, *spectrum))


def test_evicted_box_rebuilds_bitwise_equal_blocks(eigh_calls):
    # equal cutoffs: mirror chains share a row, so the store keeps an inverse index
    def build_all(cutoff):
        reg = ModeRegistry([("s", 1.0, cutoff), ("i", 1.0, cutoff)])
        groups = device_unitary(reg, Amplifier("s", "i", 0.01, 0.7))
        return [groups.build(g) for g in range(len(groups))]

    first = build_all(4)
    distinct = list(eigh_calls)
    assert distinct == [2, 3, 4, 5]  # the mirror chains n_s - n_i = +-d share one row
    for cutoff in range(5, 13):  # 8 more boxes evict the first from the 8-box store
        build_all(cutoff)
    assert fconv.devices._walk_chains.cache_info().currsize == 8
    eigh_calls.clear()
    again = build_all(4)
    assert eigh_calls == distinct
    assert len(again) == len(first)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


@pytest.mark.parametrize("strength", [5e-324, 2.2250738585072014e-308, 1e-300])
@pytest.mark.parametrize("kind", sorted(_DENSE_CASES))
def test_blocks_at_subnormal_and_tiny_strengths(kind, strength):
    # the coupling's phase comes from np.angle(c): c / |c| is NaN for some
    # subnormal c, which hypothesis found at squeeze 2.2250738585072014e-308
    num_modes, _, build = _DENSE_CASES[kind]
    rng = np.random.default_rng(11)
    reg = ModeRegistry([(m, 1.0 + i, 4) for i, m in enumerate("abc"[:num_modes])])
    for phase in rng.uniform(-np.pi, np.pi, 3):
        dev = build("abc"[:num_modes], strength, phase)
        groups = device_unitary(reg, dev)
        assert len(groups) > 0
        for g, (idx, _) in enumerate(groups):
            for chain, block in zip(idx, groups.build(g)):
                row = groups.coupling * groups.elem[chain[:-1]]
                K = np.diag(row, -1) - np.diag(row.conj(), 1)
                assert np.all(np.isfinite(block))
                assert np.max(np.abs(block.conj().T @ block - np.eye(len(chain)))) < 1e-13
                assert np.max(np.abs(block - expm(K))) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_run_on_some_chains_matches_dense_and_every_group_built(data):
    # a state on a random subset of the chains (and of the states on none):
    # the groups it leaves unbuilt must not change the result; the device's
    # modes may sit among spectators, so its axes go to the front and back, on
    # a pure state and on a mixed one
    reg, dev, _, _ = _draw_device(data, spectators=True)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    share = data.draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]), label="share of chains")
    groups = device_unitary(reg, dev)
    branches = data.draw(st.integers(2, 3), label="branches")
    W = rng.standard_normal((reg.dim, branches)) + 1j * rng.standard_normal((reg.dim, branches))
    for column in W.T:  # each branch on its own subset
        off = rng.random(reg.dim) >= share  # states on no chain
        for idx, _ in groups:
            off[idx] = (rng.random(len(idx)) >= share)[:, None]
        column[off] = 0
    W[rng.integers(reg.dim), 0] = 1  # never the zero vector
    pure = PureState(reg, W[:, 0] / np.linalg.norm(W[:, 0]))
    mixed = FockDensityOp(reg, factor=W / np.linalg.norm(W))
    U = dense_unitary(reg, dev)
    original = fconv.devices.device_unitary

    def factor(state):
        return state.factor if isinstance(state, FockDensityOp) else state.amplitudes[:, None]

    def forced(registry, device):
        out = original(registry, device)
        for g in range(len(out)):
            out.build(g)
        return out

    for state in (pure, mixed):
        lazy = factor(compile_circuit(reg, [dev])(state))
        assert np.max(np.abs(lazy - U @ factor(state))) < 1e-12
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fconv.devices, "device_unitary", forced)
            eager = factor(compile_circuit(reg, [dev])(state))
        assert np.array_equal(lazy, eager)
