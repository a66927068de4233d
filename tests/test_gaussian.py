import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fconv import (
    Amplifier,
    Attenuator,
    Converter,
    GaussianState,
    ModeRegistry,
    NonGaussianDevice,
    PhaseShift,
    TrilinearCoupler,
    apply_device,
    apply_loss,
    coherent_gaussian,
    gaussian_apply,
    make_fock,
    gaussian_mean_photon,
    gaussian_quadrature_variance,
    make_coherent,
    make_vacuum,
    mean_photon,
    moments_from_fock,
    quadrature_variance,
)
from fconv.devices import heisenberg_uv
from fconv.gaussian import _fold, _local_map, _moment_map, _step, gaussian_sweep

from dense_reference import reference_symplectic


def device_symplectic(registry, dev):
    """2M x 2M quadrature transfer matrix of one unitary Gaussian device."""
    return _moment_map(registry, [dev])[0][0]


def symplectic_form(num_modes):
    """Omega = diag of [[0, 1], [-1, 0]] blocks in (x, p) ordering."""
    return np.kron(np.eye(num_modes), [[0.0, 1.0], [-1.0, 0.0]])


def two_mode_registry(cutoff=25):
    return ModeRegistry([("p", 2.0, cutoff), ("i", 1.0, cutoff)])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the check
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["means", "cov"])
def test_gaussian_state_rejects_non_finite_moments(where, bad):
    # NaN fails every comparison, so the symmetry check alone must not admit it
    means, cov = np.zeros(2), np.eye(2) / 4
    if where == "means":
        means[0] = bad
    else:
        cov[0, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        GaussianState(ModeRegistry([("a", 1.0, 1)]), means, cov)


def test_vacuum_moments():
    reg = two_mode_registry()
    g = coherent_gaussian(reg, {})
    assert np.allclose(g.means, 0.0)
    assert np.allclose(g.cov, np.eye(4) / 4)


def test_coherent_calibration():
    # amplitude 1 must read mean photon 1 in both backends
    reg = ModeRegistry([("a", 1.0, 15)])
    g = coherent_gaussian(reg, {"a": 1.0})
    assert abs(gaussian_mean_photon(g, "a") - 1.0) < 1e-12
    f = make_coherent(reg, {"a": 1.0})
    assert abs(mean_photon(f, "a") - 1.0) < 1e-9


@pytest.mark.parametrize("alpha", [np.inf, np.nan, complex(0, np.inf)])
def test_coherent_gaussian_rejects_non_finite_amplitude(alpha):
    # unchecked, the state reads a mean photon number of inf or nan
    reg = ModeRegistry([("a", 1.0, 1), ("b", 1.0, 1)])
    with pytest.raises(ValueError, match=re.escape(f"mode 'b' must be finite, got {alpha}")):
        coherent_gaussian(reg, {"a": 0.5, "b": alpha})


def test_converter_zero_identity():
    reg = two_mode_registry()
    g = coherent_gaussian(reg, {"p": 0.7 + 0.1j})
    out = gaussian_apply(g, Converter("p", "i", 0.0))
    assert np.allclose(out.means, g.means) and np.allclose(out.cov, g.cov)


def test_converter_swaps_coherent_pump():
    reg = two_mode_registry()
    alpha = 1.3
    g = gaussian_apply(coherent_gaussian(reg, {"p": alpha}), Converter("p", "i", np.pi / 2))
    # pump amplitude moves into the idler as -alpha (phi_s = 0); covariance stays vacuum
    assert np.allclose(g.means, [0, 0, -alpha, 0], atol=1e-12)
    assert np.allclose(g.cov, np.eye(4) / 4, atol=1e-12)


def test_amplifier_variance_matches_fock():
    r = 0.6
    reg = two_mode_registry(cutoff=30)
    g = gaussian_apply(coherent_gaussian(reg, {}), Amplifier("p", "i", r))
    var = g.cov[2 * reg.index("i"), 2 * reg.index("i")]
    assert abs(var - (2 * np.sinh(r) ** 2 + 1) / 4) < 1e-12
    f = apply_device(make_vacuum(reg), Amplifier("p", "i", r))
    _, cov_f = moments_from_fock(f)
    assert np.max(np.abs(cov_f - g.cov)) < 1e-8


def test_tmsv_idler_mean_photon_cross_backend():
    r = 0.5
    reg = two_mode_registry(cutoff=30)
    g = gaussian_apply(coherent_gaussian(reg, {}), Amplifier("p", "i", r))
    assert abs(gaussian_mean_photon(g, "i") - np.sinh(r) ** 2) < 1e-12
    f = apply_device(make_vacuum(reg), Amplifier("p", "i", r))
    assert abs(mean_photon(f, "i") - gaussian_mean_photon(g, "i")) < 1e-8


@pytest.mark.parametrize(
    "dev",
    [
        Converter("p", "i", 0.8, 0.3),
        Amplifier("p", "i", 0.5, 1.0),
        PhaseShift("i", 1.7),
    ],
)
def test_symplectic_property(dev):
    reg = two_mode_registry()
    S = device_symplectic(reg, dev)
    omega = symplectic_form(2)
    assert np.max(np.abs(S @ omega @ S.T - omega)) < 1e-10


@pytest.mark.parametrize(
    "dev", [Converter("p", "i", 0.8, 0.3), Converter("i", "p", 2.1, -1.4), PhaseShift("i", 1.7)]
)
def test_passive_symplectic_is_real_form_of_mode_matrix(dev):
    # with a = x + i p, u a acts on (x, p) as Re u * I + Im u * [[0, -1], [1, 0]]
    reg = ModeRegistry([(m, 1.0, 1) for m in dev.modes])
    U = heisenberg_uv([dev])[0][0]
    real_form = np.kron(U.real, np.eye(2)) + np.kron(U.imag, [[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(device_symplectic(reg, dev) - real_form)) < 1e-15


def test_converter_orthogonal_amplifier_not():
    reg = two_mode_registry()
    Sc = device_symplectic(reg, Converter("p", "i", 0.8, 0.3))
    assert np.max(np.abs(Sc @ Sc.T - np.eye(4))) < 1e-12
    Sa = device_symplectic(reg, Amplifier("p", "i", 0.5, 1.0))
    assert np.max(np.abs(Sa @ Sa.T - np.eye(4))) > 0.1


def test_attenuator_channel_on_coherent():
    reg = two_mode_registry()
    alpha, T = 1.1 - 0.4j, 0.3
    g = gaussian_apply(coherent_gaussian(reg, {"p": alpha}), Attenuator("p", T))
    want = coherent_gaussian(reg, {"p": np.sqrt(T) * alpha})
    assert np.allclose(g.means, want.means, atol=1e-12)
    assert np.allclose(g.cov, want.cov, atol=1e-12)


def test_attenuator_keeps_uncertainty_relation():
    reg = two_mode_registry()
    state = gaussian_apply(coherent_gaussian(reg, {}), Amplifier("p", "i", 0.7))
    state = gaussian_apply(state, Attenuator("i", 0.4))
    omega = symplectic_form(2)
    eig = np.linalg.eigvalsh(state.cov + 0.25j * omega)
    assert np.min(eig) > -1e-9


def test_trilinear_rejected():
    reg = ModeRegistry([("p", 2.0, 2), ("s", 1.0, 2), ("i", 1.0, 2)])
    with pytest.raises(NonGaussianDevice):
        gaussian_apply(coherent_gaussian(reg, {}), TrilinearCoupler("p", "s", "i", 0.2))


_MODES = ("a", "b", "c")
_pairs = st.permutations(_MODES).map(lambda m: m[:2])
_angle = st.floats(0.0, 2 * np.pi)
_device = st.one_of(
    st.builds(lambda m, t, p: Converter(*m, t, p), _pairs, _angle, _angle),
    st.builds(lambda m, r, p: Amplifier(*m, r, p), _pairs, st.floats(0.0, 0.5), _angle),
    st.builds(PhaseShift, st.sampled_from(_MODES), _angle),
    st.builds(Attenuator, st.sampled_from(_MODES), st.floats(0.0, 1.0)),
)
_alpha = st.complex_numbers(max_magnitude=1.5)


def _apply_by_hand(reg, dev, means, cov):
    """One device on (means, cov), written out: the loss channel scales the
    mode's quadratures by sqrt(T) and adds (1 - T) / 4 vacuum variance."""
    if not isinstance(dev, Attenuator):
        S = device_symplectic(reg, dev)
        return S @ means, S @ cov @ S.T
    q = 2 * reg.index(dev.mode) + np.arange(2)
    scale = np.ones(len(means))
    scale[q] = np.sqrt(dev.transmission)
    cov = scale[:, None] * cov * scale
    cov[q, q] += (1.0 - dev.transmission) / 4
    return scale * means, cov


@settings(max_examples=60, deadline=None)
@given(st.lists(_device, max_size=6), st.lists(_alpha, min_size=3, max_size=3))
def test_compiled_circuit_matches_sequential_application(devices, alphas):
    reg = ModeRegistry([(m, 1.0, 1) for m in _MODES])
    state = coherent_gaussian(reg, dict(zip(_MODES, alphas)))
    channel = _fold(reg, [[dev] for dev in devices])
    means, cov, one_by_one = state.means, state.cov, state
    for dev in devices:
        means, cov = _apply_by_hand(reg, dev, means, cov)
        one_by_one = gaussian_apply(one_by_one, dev)
    # one device at a time keeps the unstacked shape
    assert one_by_one.means.shape == (6,) and one_by_one.cov.shape == (6, 6)
    # the map is folded once, and every step reuses it
    for out in (one_by_one, _step(state, channel), _step(state, channel)):
        assert np.max(np.abs(out.means - means)) < 1e-12
        assert np.max(np.abs(out.cov - cov)) < 1e-12


_strength = st.just(0.0) | st.floats(0.0, 3.0)
_any_phase = st.floats(allow_nan=False, allow_infinity=False)
_gaussian_kinds = (
    st.builds(lambda m, t, p: Converter(*m, t, p), _pairs, _strength, _any_phase),
    st.builds(lambda m, r, p: Amplifier(*m, r, p), _pairs, _strength, _any_phase),
    st.builds(PhaseShift, st.sampled_from(_MODES), _any_phase),
)
_gaussian_device = st.one_of(*_gaussian_kinds)


@settings(max_examples=200, deadline=None)
@given(_gaussian_device)
def test_symplectic_from_heisenberg_is_bitwise_the_two_branch_formula(dev):
    # one formula over (U, V) for every device, against the passive-or-amplifier fork
    reg = ModeRegistry([(m, 1.0, 1) for m in _MODES])
    assert np.array_equal(device_symplectic(reg, dev), reference_symplectic(reg, dev))


@settings(max_examples=100, deadline=None)
@given(st.lists(_device, min_size=1, max_size=8))
def test_stacked_moment_map_is_the_per_device_maps_bitwise(devices):
    # devices of one kind on the same modes are mapped in one call, the rest apart
    reg = ModeRegistry([(m, 1.0, 1) for m in _MODES])
    X, Y = _moment_map(reg, devices)
    for i, dev in enumerate(devices):
        Xi, Yi = _moment_map(reg, [dev])
        assert np.array_equal(X[i], Xi[0])
        if Yi is None:  # a unitary adds no noise
            assert Y is None or not Y[i].any()
        else:
            assert np.array_equal(Y[i], Yi[0])
    if not any(isinstance(dev, Attenuator) for dev in devices):
        assert Y is None


@settings(max_examples=200, deadline=None)
@given(st.one_of(*(st.lists(kind, min_size=1, max_size=5) for kind in _gaussian_kinds)))
def test_heisenberg_map_keeps_the_commutators(devs):
    # [a_j, a_k^dag] = delta_jk and [a_j, a_k] = 0 after a -> U a + V a^dag, for
    # one device (a list of one) and for a stack of one kind
    U, V = heisenberg_uv(devs)
    n = len(devs[0].modes)
    assert U.shape == V.shape == (len(devs), n, n)
    Ut, Vt = np.swapaxes(U, -1, -2), np.swapaxes(V, -1, -2)
    assert np.max(np.abs(U @ Ut.conj() - V @ Vt.conj() - np.eye(n))) < 1e-12
    assert np.max(np.abs(U @ Vt - V @ Ut)) < 1e-12


@pytest.mark.parametrize(
    "dev", [TrilinearCoupler("a", "b", "c", 0.2), Attenuator("b", 0.5)], ids=["trilinear", "loss"]
)
def test_devices_without_heisenberg_map_have_no_symplectic(dev):
    reg = ModeRegistry([(m, 1.0, 2) for m in _MODES])
    assert heisenberg_uv([dev]) is None and heisenberg_uv([dev, dev]) is None
    with pytest.raises(NonGaussianDevice):
        reference_symplectic(reg, dev)
    if isinstance(dev, Attenuator):  # no (U, V), but the loss channel's local map
        assert _local_map([dev])[1] is not None
        return
    for refuse in (lambda: _local_map([dev]), lambda: _local_map([dev, dev]),
                   lambda: gaussian_apply(coherent_gaussian(reg, {}), dev)):
        with pytest.raises(NonGaussianDevice, match=type(dev).__name__):
            refuse()


@pytest.mark.parametrize(
    "dev", [Converter("a", "b", 0.4, 0.3), Amplifier("b", "c", 0.2, -1.1), PhaseShift("c", 0.9)]
)
def test_subclass_of_a_gaussian_device_keeps_its_map(dev):
    # the (U, V) formula is found through the class hierarchy, one device or stacked
    sub = type("Sub" + type(dev).__name__, (type(dev),), {})(*vars(dev).values())
    reg = ModeRegistry([(m, 1.0, 1) for m in _MODES])
    assert all(np.array_equal(a, b) for a, b in zip(heisenberg_uv([sub]), heisenberg_uv([dev])))
    assert np.array_equal(_moment_map(reg, [sub])[0], _moment_map(reg, [dev])[0])
    assert np.array_equal(_moment_map(reg, [sub, sub])[0], _moment_map(reg, [dev, dev])[0])


def test_random_circuit_cross_backend():
    # modest version of the full cross-validation in the acceptance suite,
    # including a mid-circuit loss on a mixed Fock state
    reg = two_mode_registry(cutoff=20)
    devices = [
        PhaseShift("p", 0.7),
        Amplifier("p", "i", 0.3, 0.5),
        Attenuator("i", 0.6),
        Converter("p", "i", 1.0, 0.2),
    ]
    g = coherent_gaussian(reg, {"p": 0.8, "i": -0.3 + 0.2j})
    f = (
        make_coherent(ModeRegistry([("p", 2.0, 20)]), {"p": 0.8}),
        make_coherent(ModeRegistry([("i", 1.0, 20)]), {"i": -0.3 + 0.2j}),
    )
    from fconv import product_state

    fs = product_state(*f)
    for dev in devices:
        g = gaussian_apply(g, dev)
        fs = apply_device(fs, dev)
    means_f, cov_f = moments_from_fock(fs)
    assert np.max(np.abs(means_f - g.means)) < 1e-7
    assert np.max(np.abs(cov_f - g.cov)) < 1e-7
    for mode in ("p", "i"):
        assert abs(mean_photon(fs, mode) - gaussian_mean_photon(g, mode)) < 1e-7


@pytest.mark.parametrize("phase", np.linspace(0, np.pi, 8, endpoint=False))
def test_quadrature_variance_matches_fock(phase):
    # two-mode squeezing split on a 50:50 converter leaves each mode
    # single-mode squeezed, so the variance depends on the phase
    reg = ModeRegistry([("s", 1.0, 24), ("i", 1.0, 24)])
    devices = (Amplifier("s", "i", 0.3, 0.4), Converter("s", "i", np.pi / 4))
    f, g = make_vacuum(reg), coherent_gaussian(reg, {})
    for dev in devices:
        f, g = apply_device(f, dev), gaussian_apply(g, dev)
    for mode in ("s", "i"):
        want = quadrature_variance(f, mode, phase)
        assert abs(gaussian_quadrature_variance(g, mode, phase) - want) < 1e-9


def test_gaussian_sweep_refuses_a_fock_state_input_naming_its_mode():
    reg = ModeRegistry([("pump", 2.0, 1), ("idler", 1.0, 1)])
    pump = make_fock(ModeRegistry([("pump", 2.0, 1)]), [1])
    points = [((Converter("pump", "idler", 0.3),), {"idler": 0.2}),
              ((Converter("pump", "idler", 0.3),), {"idler": 0.2, "pump": pump})]
    with pytest.raises(NonGaussianDevice, match="Fock-state input on mode 'pump'"):
        gaussian_sweep(reg, points, [("photons", "idler")])


def test_gaussian_sweep_refuses_points_of_different_device_counts():
    # the Fock sweep runs these points; a Gaussian position needs a device on every point
    reg = ModeRegistry([("pump", 2.0, 1), ("idler", 1.0, 1)])
    conv = Converter("pump", "idler", 0.3)
    points = [((conv,), {"pump": 0.5}), ((Attenuator("pump", 0.5), conv), {"pump": 0.5})]
    with pytest.raises(ValueError, match=r"^the Gaussian sweep takes points of one device "
                                         r"count, got \[1, 2\]$"):
        gaussian_sweep(reg, points, [("photons", "idler")])
