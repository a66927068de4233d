import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import comb
from scipy.stats import poisson

from fconv import (
    CutoffTooSmall,
    DimensionMismatch,
    FockDensityOp,
    ModeRegistry,
    OccupationExceedsCutoff,
    PureState,
    TransmissionOutOfRange,
    UnknownMode,
    apply_loss,
    fidelity,
    make_coherent,
    make_fock,
    make_vacuum,
    mean_photon,
    moments_from_fock,
    product_state,
    quadrature_variance,
    reduced_density,
    to_density,
)
from fconv.devices import (
    Amplifier,
    Converter,
    TrilinearCoupler,
    apply_device,
    converter_generator,
    trilinear_generator,
)
from fconv.fock import COHERENT_TAIL_TOL, coherent_required_cutoff, poisson_tails

from dense_reference import dense_moments, dense_quadrature_variance


def random_density(registry, rng):
    d = registry.dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return FockDensityOp(registry, factor=a / np.linalg.norm(a))


# ---------------------------------------------------------------------------
# registry


def test_registry_dimensions():
    reg = ModeRegistry([("p", 2.0, 3), ("i", 1.0, 2)])
    assert reg.dim == 12
    assert reg.dims == (4, 3)
    assert reg.index("i") == 1


def test_registry_dim_is_exact_past_int64():
    # 2**64 wraps to 0 in a fixed-width product
    reg = ModeRegistry([(f"m{k}", 1.0, 1) for k in range(64)])
    assert reg.dim == 2**64
    assert ModeRegistry([(f"m{k}", 1.0, 2) for k in range(41)]).dim == 3**41


def test_registry_rejects_bad_modes():
    with pytest.raises(ValueError):
        ModeRegistry([("a", 1.0, 0)])
    with pytest.raises(ValueError):
        ModeRegistry([("a", -1.0, 2)])
    # unchecked, nan and inf frequencies passed and a cutoff of 2.7 was cut to 2
    for freq, cutoff in [(np.nan, 2), (np.inf, 2), (1.0, 2.7), (1.0, np.nan), (1.0, np.inf)]:
        with pytest.raises(ValueError, match="mode 'a'"):
            ModeRegistry([("a", freq, cutoff)])
    # integral floats and numpy ints still pass
    assert ModeRegistry([("a", 1.0, 2.0), ("b", np.float64(2.0), np.int64(3))]).cutoffs == (2, 3)
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
    assert np.array_equal(make_fock(reg, [1.0, np.int64(0), 0]).amplitudes, s.amplitudes)
    for bad in (1.5, np.nan, np.inf):  # unchecked, int() cut 1.5 to |1>
        with pytest.raises(ValueError, match=f"mode 'a': occupation must be an integer, got {bad}"):
            make_fock(reg, [bad, 0, 0])


def test_make_fock_over_cutoff():
    reg = ModeRegistry([("a", 1.0, 4)])
    with pytest.raises(OccupationExceedsCutoff):
        make_fock(reg, [5])


def test_coherent_zero_is_vacuum():
    reg = ModeRegistry([("a", 1.0, 5)])
    assert np.allclose(make_coherent(reg, {"a": 0.0}).amplitudes, make_vacuum(reg).amplitudes)


@pytest.mark.parametrize("alpha", [np.inf, np.nan, complex(0.5, -np.inf)])
def test_coherent_rejects_non_finite_amplitude(alpha):
    reg = ModeRegistry([("a", 1.0, 10), ("b", 1.0, 5)])
    with pytest.raises(ValueError, match=re.escape(f"mode 'b' must be finite, got {alpha}")):
        make_coherent(reg, {"a": 0.5, "b": alpha})
    with pytest.raises(ValueError, match=re.escape(f"must be finite, got {alpha}")):
        coherent_required_cutoff(alpha)


def test_coherent_amplitude_too_large_to_size_names_it():
    # |alpha|^2 = 1e18: the Poisson table would hold about 1e18 entries
    reg = ModeRegistry([("a", 1.0, 3)])
    want = "coherent amplitude 1000000000.0 on mode 'a' needs 8000000096000000488 bytes"
    with pytest.raises(MemoryError, match=re.escape(want)):
        make_coherent(reg, {"a": 1e9})
    with pytest.raises(MemoryError, match=re.escape("coherent amplitude 1000000000.0 needs")):
        coherent_required_cutoff(1e9)


def test_coherent_mean_photon_poisson_oracle():
    # oracle: truncated, renormalized Poisson mean computed from pmf directly
    reg = ModeRegistry([("a", 1.0, 30)])
    c = make_coherent(reg, {"a": 2.0})
    n = np.arange(31)
    pmf = poisson.pmf(n, 4.0)
    oracle = float((n * pmf).sum() / pmf.sum())
    assert abs(mean_photon(c, "a") - oracle) < 1e-12
    assert abs(mean_photon(c, "a") - 4.0) < 1e-9


def test_coherent_cutoff_too_small():
    reg = ModeRegistry([("a", 1.0, 10)])
    with pytest.raises(CutoffTooSmall) as exc:
        make_coherent(reg, {"a": 4.0})
    assert exc.value.required_cutoff > 10


# amplitudes in [0, 12], plus the ones the CLI runners size cutoffs for at
# their defaults: linearity (1), fringe (hypot(1, 0.25)) and depletion (2..5),
# and sqrt(2) just above its float value
ORACLE_ALPHAS = np.concatenate(
    [
        np.linspace(0.0, 12.0, 1001),
        [1.0, np.hypot(1.0, 0.25), np.sqrt(2) * (1 + 1e-12), 2.0, 3.0, 4.0, 5.0],
    ]
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
        make_coherent(ModeRegistry([("a", 1.0, need)]), {"a": alpha})
        if need > 1:
            with pytest.raises(CutoffTooSmall) as exc:
                make_coherent(ModeRegistry([("a", 1.0, need - 1)]), {"a": alpha})
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
    c = make_coherent(reg, {"a": alpha})
    # amplitude ratio c_1/c_0 = alpha
    assert np.isclose(c.amplitudes[1] / c.amplitudes[0], alpha)


def test_make_coherent_multimode_is_the_product_state():
    # listed modes in any order, unlisted modes vacuum, exactly the product
    reg = ModeRegistry([("a", 1.0, 6), ("b", 1.0, 3), ("c", 1.0, 8)])
    got = make_coherent(reg, {"c": 0.5j, "a": 0.3})
    want = product_state(
        make_coherent(ModeRegistry([("a", 1.0, 6)]), {"a": 0.3}),
        make_vacuum(ModeRegistry([("b", 1.0, 3)])),
        make_coherent(ModeRegistry([("c", 1.0, 8)]), {"c": 0.5j}),
    )
    assert np.array_equal(got.amplitudes, want.amplitudes)
    assert np.array_equal(make_coherent(reg, {}).amplitudes, make_vacuum(reg).amplitudes)
    with pytest.raises(UnknownMode):
        make_coherent(reg, {"z": 1.0})
    with pytest.raises(CutoffTooSmall, match="'c'"):
        make_coherent(reg, {"a": 0.3, "c": 3.0})


def test_make_coherent_takes_a_single_mode_state_as_that_mode_factor():
    # a state stands in for an amplitude; its own label is not read
    reg = ModeRegistry([("a", 1.0, 6), ("b", 1.0, 3), ("c", 1.0, 8)])
    b = PureState(ModeRegistry([("x", 5.0, 3)]), np.array([1, 1j, 0, -1]) / np.sqrt(3))
    got = make_coherent(reg, {"b": b, "a": 0.3})
    want = product_state(
        make_coherent(ModeRegistry([("a", 1.0, 6)]), {"a": 0.3}),
        b,
        make_vacuum(ModeRegistry([("c", 1.0, 8)])),
    )
    assert np.array_equal(got.amplitudes, want.amplitudes)


@pytest.mark.parametrize(
    "state, dims",
    [
        (make_fock(ModeRegistry([("b", 1.0, 2)]), [1]), r"\(3,\)"),  # one level short
        (make_fock(ModeRegistry([("b", 1.0, 4)]), [1]), r"\(5,\)"),  # one level over
        (make_vacuum(ModeRegistry([("b", 1.0, 1), ("c", 1.0, 1)])), r"\(2, 2\)"),  # two modes
    ],
    ids=["short", "over", "two-modes"],
)
def test_make_coherent_refuses_a_state_of_another_shape(state, dims):
    reg = ModeRegistry([("a", 1.0, 6), ("b", 1.0, 3)])
    with pytest.raises(DimensionMismatch, match=f"dims {dims} on mode 'b', which has 4 levels"):
        make_coherent(reg, {"b": state})


def test_to_density_properties():
    reg = ModeRegistry([("a", 1.0, 14)])
    rho = to_density(make_coherent(reg, {"a": 0.8}))
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
    c = make_coherent(reg, {"a": 1.0})
    out1 = apply_loss(c, "a", 1.0)
    assert np.max(np.abs(out1.matrix - to_density(c).matrix)) < 1e-12
    out0 = apply_loss(c, "a", 0.0)
    assert abs(out0.matrix[0, 0] - 1) < 1e-10


def test_loss_on_coherent_is_scaled_coherent():
    reg = ModeRegistry([("a", 1.0, 20)])
    alpha, T = 1.2 + 0.5j, 0.37
    out = apply_loss(make_coherent(reg, {"a": alpha}), "a", T)
    target = make_coherent(reg, {"a": np.sqrt(T) * alpha})
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


def dense_loss(rho, dims, axis, transmission):
    # independent oracle: sum_k K_k rho K_k^dag with full-space Kraus operators
    d = dims[axis]
    out = np.zeros_like(rho)
    for k in range(d):
        K = np.zeros((d, d))
        for n in range(k, d):
            K[n - k, n] = np.sqrt(comb(n, k) * (1 - transmission) ** k * transmission ** (n - k))
        full = np.array([[1.0]])
        for i, di in enumerate(dims):
            full = np.kron(full, K if i == axis else np.eye(di))
        out += full @ rho @ full.T
    return out


def kraus_loss_reference(rho, axis, transmission):
    return dense_loss(rho.matrix, rho.registry.dims, axis, transmission)


@pytest.mark.parametrize("mode", ["a", "b"])
def test_loss_matches_kraus_sum(mode):
    rng = np.random.default_rng(5)
    reg = ModeRegistry([("a", 1.0, 4), ("b", 1.0, 3)])
    rho = random_density(reg, rng)
    out = apply_loss(rho, mode, 0.37)
    want = kraus_loss_reference(rho, reg.index(mode), 0.37)
    assert np.max(np.abs(out.matrix - want)) < 1e-13


def loop_loss_factor(state, axis, transmission):
    # the per-branch loop apply_loss ran before it gathered every branch at once
    W = state.factor if isinstance(state, FockDensityOp) else state.amplitudes[:, None]
    reg = state.registry
    d = reg.dims[axis]
    t = np.moveaxis(W.reshape(reg.dims + W.shape[1:]), axis, 0)
    out = np.zeros(t.shape + (d,), dtype=complex)
    for k in range(d):
        amp = np.sqrt(
            [
                math.comb(n, k) * (1.0 - transmission) ** k * transmission ** (n - k)
                for n in range(k, d)
            ]
        )
        out[: d - k, ..., k] = amp.reshape((-1,) + (1,) * (t.ndim - 1)) * t[k:]
    return FockDensityOp(reg, factor=np.moveaxis(out, 0, axis).reshape(reg.dim, -1)).factor


@pytest.mark.parametrize("transmission", [1.0, 0.3, 0.01, 0.0])
def test_loss_equals_the_per_branch_loop_bitwise(transmission):
    rng = np.random.default_rng(17)
    reg = ModeRegistry([("a", 1.0, 4), ("b", 1.0, 3), ("c", 1.0, 2)])
    pure = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
    pure[rng.random(reg.dim) < 0.3] = 0  # exact zeros, whose signs must survive too
    mixed = random_density(reg, rng)
    for state in (PureState(reg, -pure / np.linalg.norm(pure)), mixed):
        for axis, mode in enumerate("abc"):
            out = apply_loss(state, mode, transmission).factor
            assert np.array_equal(out, loop_loss_factor(state, axis, transmission))


@pytest.mark.parametrize("transmission", [1.0, 0.97, 0.5, 0.3, 0.0])
def test_loss_past_the_float_range_of_the_binomials_keeps_the_trace(transmission):
    # C(m + k, k) leaves the float range at m + k >= 1030; |30> holds 1.2e-5 of its
    # probability there, far above the 1e-10 trace tolerance
    reg = ModeRegistry([("a", 1.0, 1100)])
    for state in (make_vacuum(reg), make_coherent(reg, {"a": 30.0})):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = apply_loss(state, "a", transmission)
        assert abs(np.vdot(out.factor, out.factor).real - 1.0) < 1e-12
        n = mean_photon(state, "a")  # loss scales the mean photon number by T
        assert abs(mean_photon(out, "a") - transmission * n) <= 1e-12 * n


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
    same = reduced_density(rho, ["a", "b"])
    assert np.max(np.abs(same.matrix - rho.matrix)) < 1e-12


def test_product_state_is_the_kron_fold_bitwise():
    # the box is allocated first and the factors folded into it; every amplitude,
    # signed zeros too, is the one np.kron's fold gives
    rng = np.random.default_rng(11)
    states = []
    for label, c in (("a", 3), ("b", 1), ("c", 4), ("d", 2)):
        amp = rng.normal(size=c + 1) + 1j * rng.normal(size=c + 1)
        amp[-1] = complex(-0.0, 0.0)
        states.append(PureState(ModeRegistry([(label, 1.0, c)]), amp / np.linalg.norm(amp)))
    want = np.array([1.0 + 0j])
    for s in states:
        want = np.kron(want, s.amplitudes)
    got = product_state(*states)
    assert got.registry.cutoffs == (3, 1, 4, 2)
    assert got.amplitudes.tobytes() == want.tobytes()
    assert product_state().amplitudes.tobytes() == np.array([1.0 + 0j]).tobytes()


def test_partial_trace_product_state():
    regA = ModeRegistry([("a", 1.0, 12)])
    regB = ModeRegistry([("b", 1.0, 12)])
    psiA = make_coherent(regA, {"a": 0.7})
    psiB = make_coherent(regB, {"b": -0.4 + 0.2j})
    rho = to_density(product_state(psiA, psiB))
    redA = reduced_density(rho, ["a"])
    assert np.max(np.abs(redA.matrix - to_density(psiA).matrix)) < 1e-12


def test_partial_trace_tmsv_idler_is_thermal():
    # two-mode squeezed vacuum: idler reduced diagonal follows the geometric
    # distribution with mean sinh^2(r)
    r = 0.5
    reg = ModeRegistry([("s", 1.0, 30), ("i", 1.0, 30)])
    state = apply_device(make_vacuum(reg), Amplifier("s", "i", r))
    red = reduced_density(to_density(state), ["i"])
    n = np.arange(31)
    nbar = np.sinh(r) ** 2
    geometric = nbar**n / (1 + nbar) ** (n + 1)
    assert np.max(np.abs(np.diag(red.matrix).real - geometric)) < 1e-10
    assert abs(np.trace(red.matrix) - 1) < 1e-10


def test_partial_trace_unknown_mode():
    reg = ModeRegistry([("a", 1.0, 2)])
    with pytest.raises(UnknownMode):
        reduced_density(to_density(make_vacuum(reg)), ["zz"])


# ---------------------------------------------------------------------------
# density operators stored as the factor W of rho = W W^dag


def dense(state):
    if isinstance(state, FockDensityOp):
        return state.matrix
    return np.outer(state.amplitudes, state.amplitudes.conj())


def dense_reduced_density(rho, dims, keep_axes):
    # independent oracle: move the kept axes first on both sides, then trace
    # the remaining row index against the remaining column index
    m = len(dims)
    rest = [i for i in range(m) if i not in keep_axes]
    order = list(keep_axes) + rest
    t = rho.reshape(dims + dims).transpose(order + [m + i for i in order])
    dk = int(np.prod([dims[i] for i in keep_axes]))
    dr = int(np.prod([dims[i] for i in rest]))
    return np.einsum("arbr->ab", t.reshape(dk, dr, dk, dr))


def dense_device(rho, registry, dev, generator, strength):
    # independent oracle: U rho U^dag with U the dense expm of the
    # Kronecker-built generator on the full registry
    U = expm(strength * generator(registry, dev))
    return U @ rho @ U.conj().T


LABELS = ("a", "b", "c")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_factor_path_matches_dense_reference(data):
    cutoffs = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="cutoffs")
    reg = ModeRegistry([(lab, 1.0 + i, c) for i, (lab, c) in enumerate(zip(LABELS, cutoffs))])
    rank = data.draw(st.integers(1, reg.dim), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    W = rng.standard_normal((reg.dim, rank)) + 1j * rng.standard_normal((reg.dim, rank))
    W /= np.linalg.norm(W)
    if rank == 1 and data.draw(st.booleans(), label="pure"):
        state = PureState(reg, W[:, 0])
    else:
        state = FockDensityOp(reg, factor=W)
    rho = W @ W.conj().T
    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        reg = state.registry
        kind = data.draw(st.sampled_from(["loss", "device", "reduce"]))
        if kind == "loss":
            mode = data.draw(st.sampled_from(reg.labels))
            T = data.draw(st.floats(0.0, 1.0))
            state = apply_loss(state, mode, T)
            rho = dense_loss(rho, reg.dims, reg.index(mode), T)
        elif kind == "device" and reg.num_modes >= 2:
            modes = data.draw(st.permutations(reg.labels))
            strength = data.draw(st.floats(0.0, 2.0))
            phase = data.draw(st.floats(-np.pi, np.pi))
            if reg.num_modes == 3 and data.draw(st.booleans()):
                dev, gen = TrilinearCoupler(*modes, strength, phase), trilinear_generator
            else:
                dev, gen = Converter(modes[0], modes[1], strength, phase), converter_generator
            state = apply_device(state, dev)
            rho = dense_device(rho, reg, dev, gen, strength)
        elif kind == "reduce":
            keep = data.draw(st.lists(st.sampled_from(reg.labels), min_size=1, unique=True))
            state = reduced_density(state, keep)
            rho = dense_reduced_density(rho, reg.dims, [reg.index(lab) for lab in keep])
        if isinstance(state, FockDensityOp):
            assert state.factor.shape[1] <= state.registry.dim
        assert np.max(np.abs(dense(state) - rho)) < 1e-12


def test_factor_width_stays_within_dim_under_repeated_loss():
    rng = np.random.default_rng(13)
    reg = ModeRegistry([("a", 1.0, 3), ("b", 1.0, 2)])
    state = random_density(reg, rng)
    rho = state.matrix
    for step in range(8):
        mode = "ab"[step % 2]
        state = apply_loss(state, mode, 0.8)
        rho = dense_loss(rho, reg.dims, reg.index(mode), 0.8)
        assert state.factor.shape[1] <= reg.dim
    assert np.max(np.abs(state.matrix - rho)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_states_rejected(bad):
    # NaN fails every comparison, so a norm check must accept only on `<= tol`
    reg = ModeRegistry([("a", 1.0, 2)])
    with pytest.raises(ValueError, match="deviates from 1"):
        PureState(reg, np.full(3, bad, dtype=complex))
    with pytest.raises(ValueError, match="deviates from 1"):
        FockDensityOp(reg, factor=np.full((3, 1), bad, dtype=complex))


def test_density_op_is_built_from_its_factor_only():
    # the factor is keyword-only, so a density matrix passed positionally fails loudly
    with pytest.raises(TypeError):
        FockDensityOp(ModeRegistry([("a", 1.0, 1)]), np.eye(2) / 2)


def test_density_from_factor_checks_shape_and_norm():
    reg = ModeRegistry([("a", 1.0, 2)])
    with pytest.raises(DimensionMismatch):
        FockDensityOp(reg, factor=np.ones((2, 1)) / np.sqrt(2))
    with pytest.raises(ValueError):
        FockDensityOp(reg, factor=np.ones((3, 2)))
    with pytest.raises(TypeError):
        FockDensityOp(reg)
    # a factor wider than tall is narrowed without changing rho
    W = np.random.default_rng(19).standard_normal((3, 7)) + 0j
    W /= np.linalg.norm(W)
    rho = FockDensityOp(reg, factor=W)
    assert rho.factor.shape == (3, 3)
    assert np.max(np.abs(rho.matrix - W @ W.conj().T)) < 1e-15


def test_loss_on_large_coherent_state_allocates_little():
    # alpha = 5 needs cutoff 63; a (d^2, d^2) loss superoperator would take 256 MB
    c = coherent_required_cutoff(5.0)
    assert c == 63
    state = make_coherent(ModeRegistry([("a", 1.0, c)]), {"a": 5.0})
    tracemalloc.start()
    try:
        out = apply_loss(state, "a", 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert abs(mean_photon(out, "a") - 12.5) < 1e-8


def test_quadratures_on_large_cutoff_allocate_little():
    # at cutoff 3,000 one dense (d, d) quadrature matrix would take 144 MB
    state = make_coherent(ModeRegistry([("a", 1.0, 3000)]), {"a": 2.0 - 1.0j})
    tracemalloc.start()
    try:
        var = quadrature_variance(state, "a", 0.7)
        means, cov = moments_from_fock(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert abs(var - 0.25) < 1e-9
    assert np.abs(means - [2.0, -1.0]).max() < 1e-9
    assert np.abs(cov - np.eye(2) / 4).max() < 1e-9


@pytest.mark.parametrize(
    "make",
    [make_vacuum, lambda reg: make_fock(reg, [0, 0]), lambda reg: make_coherent(reg, {"a": 1.0})],
    ids=["vacuum", "fock", "coherent"],
)
def test_oversized_box_raises_one_memory_error_naming_it(make):
    # numpy refuses a (10^18 + 1)^2 box; the error names its cutoffs and bytes
    reg = ModeRegistry([("a", 1.0, 10**18), ("b", 1.0, 10**18)])
    with pytest.raises(MemoryError) as exc:
        make(reg)
    assert str(exc.value) == f"a state on cutoffs ({10**18}, {10**18}) needs {reg.dim * 16} bytes"


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
    c = make_coherent(reg, {"a": 1.5 * np.exp(0.4j)})
    assert abs(quadrature_variance(c, "a", phi) - 0.25) < 1e-9


def test_amplifier_idler_variance():
    # Heisenberg picture: var X_phi = (2 sinh^2 r + 1)/4 on vacuum, any phi
    r = 0.6
    reg = ModeRegistry([("s", 1.0, 30), ("i", 1.0, 30)])
    state = apply_device(make_vacuum(reg), Amplifier("s", "i", r))
    expect = (2 * np.sinh(r) ** 2 + 1) / 4
    for phi in (0.0, 0.7, 1.9):
        assert abs(quadrature_variance(state, "i", phi) - expect) < 1e-8


@st.composite
def random_fock_states(draw):
    """A random pure state or density factor on 1-3 modes with cutoffs 1-8."""
    cutoffs = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    reg = ModeRegistry([(f"m{k}", 1.0 + k, c) for k, c in enumerate(cutoffs)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.sampled_from([None, 1, 2, 5]))
    shape = (reg.dim,) if rank is None else (reg.dim, rank)
    W = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    W /= np.linalg.norm(W)
    return PureState(reg, W) if rank is None else FockDensityOp(reg, factor=W)


@settings(max_examples=80, deadline=None)
@given(state=random_fock_states(), phase=st.floats(-2 * np.pi, 2 * np.pi), data=st.data())
def test_ladder_shift_quadratures_match_dense_reference(state, phase, data):
    mode = data.draw(st.sampled_from(state.registry.labels))
    want = dense_quadrature_variance(state, mode, phase)
    assert abs(quadrature_variance(state, mode, phase) - want) < 1e-13
    means, cov = moments_from_fock(state)
    want_means, want_cov = dense_moments(state)
    assert np.abs(means - want_means).max() < 1e-13
    assert np.abs(cov - want_cov).max() < 1e-13


def test_fidelity_basics():
    reg = ModeRegistry([("a", 1.0, 5)])
    psi = make_fock(reg, [2])
    assert fidelity(psi, psi) == 1.0
    assert fidelity(psi, make_fock(reg, [3])) == 0.0


def test_fidelity_coherent_overlap():
    reg = ModeRegistry([("a", 1.0, 30)])
    a, b = 0.9 + 0.3j, -0.2 + 0.8j
    f = fidelity(make_coherent(reg, {"a": a}), make_coherent(reg, {"a": b}))
    assert abs(f - np.exp(-abs(a - b) ** 2)) < 1e-8


def test_fidelity_dimension_mismatch():
    regA = ModeRegistry([("a", 1.0, 2)])
    regB = ModeRegistry([("a", 1.0, 3)])
    with pytest.raises(DimensionMismatch):
        fidelity(make_vacuum(regA), make_vacuum(regB))
