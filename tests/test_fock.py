import numpy as np
import pytest
from scipy.special import comb
from scipy.stats import poisson

from fconv import (
    CutoffTooSmall,
    DimensionMismatch,
    ModeRegistry,
    OccupationExceedsCutoff,
    TransmissionOutOfRange,
    UnknownMode,
    apply_loss,
    fidelity,
    make_coherent,
    make_fock,
    make_vacuum,
    mean_photon,
    partial_trace,
    product_state,
    quadrature_variance,
    to_density,
)
from fconv.devices import Amplifier, Converter, apply_device
from fconv.fock import COHERENT_TAIL_TOL, coherent_required_cutoff, poisson_tails


def random_density(registry, rng):
    from fconv import FockDensityOp

    d = registry.dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return FockDensityOp(registry, (rho + rho.conj().T) / 2)


# ---------------------------------------------------------------------------
# registry


def test_registry_dimensions():
    reg = ModeRegistry([("p", 2.0, 3), ("i", 1.0, 2)])
    assert reg.dim == 12
    assert reg.dims == (4, 3)
    assert reg.index("i") == 1


def test_registry_rejects_bad_modes():
    with pytest.raises(ValueError):
        ModeRegistry([("a", 1.0, 0)])
    with pytest.raises(ValueError):
        ModeRegistry([("a", -1.0, 2)])
    with pytest.raises(ValueError):
        ModeRegistry([("a", 1.0, 2), ("a", 2.0, 2)])
    with pytest.raises(UnknownMode):
        ModeRegistry([("a", 1.0, 2)]).index("b")


def test_basis_ordering_mode_one_slowest():
    reg = ModeRegistry([("a", 1.0, 2), ("b", 1.0, 1)])
    # |n_a, n_b> flat index = n_a * 2 + n_b
    assert reg.flat_index([1, 1]) == 3
    assert reg.flat_index([2, 0]) == 4


# ---------------------------------------------------------------------------
# constructors


def test_vacuum_single_mode():
    reg = ModeRegistry([("a", 1.0, 3)])
    v = make_vacuum(reg)
    assert np.allclose(v.amplitudes, [1, 0, 0, 0])


def test_vacuum_two_modes():
    reg = ModeRegistry([("a", 1.0, 1), ("b", 1.0, 1)])
    v = make_vacuum(reg)
    assert v.amplitudes[reg.flat_index([0, 0])] == 1.0
    assert np.isclose(np.linalg.norm(v.amplitudes), 1.0)


def test_make_fock():
    reg = ModeRegistry([("a", 1.0, 2), ("b", 1.0, 2), ("c", 1.0, 2)])
    s = make_fock(reg, [1, 0, 0])
    assert s.amplitudes[reg.flat_index([1, 0, 0])] == 1.0
    assert np.allclose(make_fock(reg, [0, 0, 0]).amplitudes, make_vacuum(reg).amplitudes)


def test_make_fock_over_cutoff():
    reg = ModeRegistry([("a", 1.0, 4)])
    with pytest.raises(OccupationExceedsCutoff):
        make_fock(reg, [5])


def test_coherent_zero_is_vacuum():
    reg = ModeRegistry([("a", 1.0, 5)])
    assert np.allclose(make_coherent(reg, "a", 0.0).amplitudes, make_vacuum(reg).amplitudes)


def test_coherent_mean_photon_poisson_oracle():
    # oracle: truncated, renormalized Poisson mean computed from pmf directly
    reg = ModeRegistry([("a", 1.0, 30)])
    c = make_coherent(reg, "a", 2.0)
    n = np.arange(31)
    pmf = poisson.pmf(n, 4.0)
    oracle = float((n * pmf).sum() / pmf.sum())
    assert abs(mean_photon(c, "a") - oracle) < 1e-12
    assert abs(mean_photon(c, "a") - 4.0) < 1e-9


def test_coherent_cutoff_too_small():
    reg = ModeRegistry([("a", 1.0, 10)])
    with pytest.raises(CutoffTooSmall) as exc:
        make_coherent(reg, "a", 4.0)
    assert exc.value.required_cutoff > 10


# amplitudes in [0, 12], plus the ones the CLI runners size cutoffs for at
# their defaults: linearity (1), fringe (sqrt(2) times the largest amplitude,
# with its float round-up) and depletion (2..5)
ORACLE_ALPHAS = np.concatenate(
    [np.linspace(0.0, 12.0, 1001), [1.0, np.sqrt(2) * (1 + 1e-12), 2.0, 3.0, 4.0, 5.0]]
)


def scipy_required_cutoff(alpha):
    # independent oracle: smallest c >= 1 with scipy's Poisson survival function <= tol
    cs = np.arange(1, 400)
    return int(cs[np.argmax(poisson.sf(cs, abs(alpha) ** 2) <= COHERENT_TAIL_TOL)])


def test_coherent_required_cutoff_matches_scipy_poisson():
    ours = [coherent_required_cutoff(a) for a in ORACLE_ALPHAS]
    assert ours == [scipy_required_cutoff(a) for a in ORACLE_ALPHAS]


def test_make_coherent_raises_exactly_below_required_cutoff():
    for alpha in ORACLE_ALPHAS:
        need = scipy_required_cutoff(alpha)
        make_coherent(ModeRegistry([("a", 1.0, need)]), "a", alpha)
        if need > 1:
            with pytest.raises(CutoffTooSmall) as exc:
                make_coherent(ModeRegistry([("a", 1.0, need - 1)]), "a", alpha)
            assert exc.value.required_cutoff == need


@pytest.mark.parametrize("mu", [0.0, 0.01, 1.0, 4.0, 37.5, 144.0])
def test_poisson_tails_match_scipy_survival(mu):
    # relative agreement where the tail is resolved; the mass left out
    # beyond the far end is below 1e-30
    tails = poisson_tails(mu)
    sf = poisson.sf(np.arange(len(tails)), mu)
    assert np.all(np.abs(tails - sf) <= 1e-11 * sf + 1e-30)


def test_coherent_complex_phase():
    reg = ModeRegistry([("a", 1.0, 25)])
    alpha = 1.3 * np.exp(0.7j)
    c = make_coherent(reg, "a", alpha)
    # amplitude ratio c_1/c_0 = alpha
    assert np.isclose(c.amplitudes[1] / c.amplitudes[0], alpha)


def test_to_density_properties():
    reg = ModeRegistry([("a", 1.0, 14)])
    rho = to_density(make_coherent(reg, "a", 0.8))
    assert abs(np.trace(rho.matrix) - 1) < 1e-10
    assert abs(np.trace(rho.matrix @ rho.matrix) - 1) < 1e-10  # purity
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
    vac = to_density(make_vacuum(reg))
    assert vac.matrix[0, 0] == 1.0 and np.count_nonzero(vac.matrix) == 1


# ---------------------------------------------------------------------------
# unitary devices


def test_converter_pi_half_swaps_single_photon():
    reg = ModeRegistry([("p", 2.0, 5), ("i", 1.0, 5)])
    out = apply_device(make_fock(reg, [1, 0]), Converter("p", "i", np.pi / 2))
    assert fidelity(out, make_fock(reg, [0, 1])) > 1 - 1e-10


# ---------------------------------------------------------------------------
# loss channel


def test_loss_identity_and_full():
    reg = ModeRegistry([("a", 1.0, 15)])
    c = make_coherent(reg, "a", 1.0)
    out1 = apply_loss(c, "a", 1.0)
    assert np.max(np.abs(out1.matrix - to_density(c).matrix)) < 1e-12
    out0 = apply_loss(c, "a", 0.0)
    assert abs(out0.matrix[0, 0] - 1) < 1e-10


def test_loss_on_coherent_is_scaled_coherent():
    reg = ModeRegistry([("a", 1.0, 20)])
    alpha, T = 1.2 + 0.5j, 0.37
    out = apply_loss(make_coherent(reg, "a", alpha), "a", T)
    target = make_coherent(reg, "a", np.sqrt(T) * alpha)
    fid = np.real(target.amplitudes.conj() @ out.matrix @ target.amplitudes)
    assert fid >= 1 - 1e-9


def test_loss_composition():
    rng = np.random.default_rng(3)
    reg = ModeRegistry([("a", 1.0, 4), ("b", 1.0, 3)])
    rho = random_density(reg, rng)
    once = apply_loss(rho, "a", 0.6 * 0.5)
    twice = apply_loss(apply_loss(rho, "a", 0.6), "a", 0.5)
    assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-10
    assert abs(np.trace(twice.matrix) - 1) < 1e-10


def kraus_loss_reference(rho, axis, transmission):
    # independent oracle: sum_k K_k rho K_k^dag with full-space Kraus operators
    dims = rho.registry.dims
    d = dims[axis]
    out = np.zeros_like(rho.matrix)
    for k in range(d):
        K = np.zeros((d, d))
        for n in range(k, d):
            K[n - k, n] = np.sqrt(comb(n, k) * (1 - transmission) ** k * transmission ** (n - k))
        full = np.array([[1.0]])
        for i, di in enumerate(dims):
            full = np.kron(full, K if i == axis else np.eye(di))
        out += full @ rho.matrix @ full.T
    return out


@pytest.mark.parametrize("mode", ["a", "b"])
def test_loss_matches_kraus_sum(mode):
    rng = np.random.default_rng(5)
    reg = ModeRegistry([("a", 1.0, 4), ("b", 1.0, 3)])
    rho = random_density(reg, rng)
    out = apply_loss(rho, mode, 0.37)
    want = kraus_loss_reference(rho, reg.index(mode), 0.37)
    assert np.max(np.abs(out.matrix - want)) < 1e-13


def test_loss_preserves_positivity():
    rng = np.random.default_rng(11)
    reg = ModeRegistry([("a", 1.0, 5)])
    rho = apply_loss(random_density(reg, rng), "a", 0.3)
    assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-10


def test_loss_transmission_range():
    reg = ModeRegistry([("a", 1.0, 3)])
    with pytest.raises(TransmissionOutOfRange):
        apply_loss(make_vacuum(reg), "a", 1.5)


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_keep_all():
    rng = np.random.default_rng(5)
    reg = ModeRegistry([("a", 1.0, 2), ("b", 1.0, 2)])
    rho = random_density(reg, rng)
    same = partial_trace(rho, ["a", "b"])
    assert np.max(np.abs(same.matrix - rho.matrix)) < 1e-12


def test_partial_trace_product_state():
    regA = ModeRegistry([("a", 1.0, 12)])
    regB = ModeRegistry([("b", 1.0, 12)])
    psiA = make_coherent(regA, "a", 0.7)
    psiB = make_coherent(regB, "b", -0.4 + 0.2j)
    rho = to_density(product_state(psiA, psiB))
    redA = partial_trace(rho, ["a"])
    assert np.max(np.abs(redA.matrix - to_density(psiA).matrix)) < 1e-12


def test_partial_trace_tmsv_idler_is_thermal():
    # two-mode squeezed vacuum: idler reduced diagonal follows the geometric
    # distribution with mean sinh^2(r)
    r = 0.5
    reg = ModeRegistry([("s", 1.0, 30), ("i", 1.0, 30)])
    state = apply_device(make_vacuum(reg), Amplifier("s", "i", r))
    red = partial_trace(to_density(state), ["i"])
    n = np.arange(31)
    nbar = np.sinh(r) ** 2
    geometric = nbar**n / (1 + nbar) ** (n + 1)
    assert np.max(np.abs(np.diag(red.matrix).real - geometric)) < 1e-10
    assert abs(np.trace(red.matrix) - 1) < 1e-10


def test_partial_trace_unknown_mode():
    reg = ModeRegistry([("a", 1.0, 2)])
    with pytest.raises(UnknownMode):
        partial_trace(to_density(make_vacuum(reg)), ["zz"])


# ---------------------------------------------------------------------------
# observables


def test_mean_photon_trivials():
    reg = ModeRegistry([("a", 1.0, 4)])
    assert mean_photon(make_vacuum(reg), "a") == 0.0
    assert np.isclose(mean_photon(make_fock(reg, [1]), "a"), 1.0)


@pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 2, 2.2])
def test_vacuum_variance_quarter(phi):
    reg = ModeRegistry([("a", 1.0, 6)])
    assert abs(quadrature_variance(make_vacuum(reg), "a", phi) - 0.25) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.9, 2.8])
def test_coherent_variance_quarter(phi):
    reg = ModeRegistry([("a", 1.0, 25)])
    c = make_coherent(reg, "a", 1.5 * np.exp(0.4j))
    assert abs(quadrature_variance(c, "a", phi) - 0.25) < 1e-9


def test_amplifier_idler_variance():
    # Heisenberg picture: var X_phi = (2 sinh^2 r + 1)/4 on vacuum, any phi
    r = 0.6
    reg = ModeRegistry([("s", 1.0, 30), ("i", 1.0, 30)])
    state = apply_device(make_vacuum(reg), Amplifier("s", "i", r))
    expect = (2 * np.sinh(r) ** 2 + 1) / 4
    for phi in (0.0, 0.7, 1.9):
        assert abs(quadrature_variance(state, "i", phi) - expect) < 1e-8


def test_fidelity_basics():
    reg = ModeRegistry([("a", 1.0, 5)])
    psi = make_fock(reg, [2])
    assert fidelity(psi, psi) == 1.0
    assert fidelity(psi, make_fock(reg, [3])) == 0.0


def test_fidelity_coherent_overlap():
    reg = ModeRegistry([("a", 1.0, 30)])
    a, b = 0.9 + 0.3j, -0.2 + 0.8j
    f = fidelity(make_coherent(reg, "a", a), make_coherent(reg, "a", b))
    assert abs(f - np.exp(-abs(a - b) ** 2)) < 1e-8


def test_fidelity_dimension_mismatch():
    regA = ModeRegistry([("a", 1.0, 2)])
    regB = ModeRegistry([("a", 1.0, 3)])
    with pytest.raises(DimensionMismatch):
        fidelity(make_vacuum(regA), make_vacuum(regB))
