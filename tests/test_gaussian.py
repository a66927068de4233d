import numpy as np
import pytest

from fconv import (
    Amplifier,
    Attenuator,
    Converter,
    ModeRegistry,
    NonGaussianDevice,
    PhaseShift,
    TrilinearCoupler,
    apply_device,
    apply_loss,
    coherent_gaussian,
    gaussian_apply,
    gaussian_mean_photon,
    gaussian_quadrature_variance,
    make_coherent,
    make_vacuum,
    mean_photon,
    moments_from_fock,
    quadrature_variance,
    symplectic_form,
    vacuum_gaussian,
)
from fconv.gaussian import device_symplectic


def two_mode_registry(cutoff=25):
    return ModeRegistry([("p", 2.0, cutoff), ("i", 1.0, cutoff)])


def test_vacuum_moments():
    reg = two_mode_registry()
    g = vacuum_gaussian(reg)
    assert np.allclose(g.means, 0.0)
    assert np.allclose(g.cov, np.eye(4) / 4)


def test_coherent_calibration():
    # amplitude 1 must read mean photon 1 in both backends
    reg = ModeRegistry([("a", 1.0, 15)])
    g = coherent_gaussian(reg, {"a": 1.0})
    assert abs(gaussian_mean_photon(g, "a") - 1.0) < 1e-12
    f = make_coherent(reg, {"a": 1.0})
    assert abs(mean_photon(f, "a") - 1.0) < 1e-9


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
    g = gaussian_apply(vacuum_gaussian(reg), Amplifier("p", "i", r))
    var = g.cov[2 * reg.index("i"), 2 * reg.index("i")]
    assert abs(var - (2 * np.sinh(r) ** 2 + 1) / 4) < 1e-12
    f = apply_device(make_vacuum(reg), Amplifier("p", "i", r))
    _, cov_f = moments_from_fock(f)
    assert np.max(np.abs(cov_f - g.cov)) < 1e-8


def test_tmsv_idler_mean_photon_cross_backend():
    r = 0.5
    reg = two_mode_registry(cutoff=30)
    g = gaussian_apply(vacuum_gaussian(reg), Amplifier("p", "i", r))
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
    state = gaussian_apply(vacuum_gaussian(reg), Amplifier("p", "i", 0.7))
    state = gaussian_apply(state, Attenuator("i", 0.4))
    omega = symplectic_form(2)
    eig = np.linalg.eigvalsh(state.cov + 0.25j * omega)
    assert np.min(eig) > -1e-9


def test_trilinear_rejected():
    reg = ModeRegistry([("p", 2.0, 2), ("s", 1.0, 2), ("i", 1.0, 2)])
    with pytest.raises(NonGaussianDevice):
        gaussian_apply(vacuum_gaussian(reg), TrilinearCoupler("p", "s", "i", 0.2))


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
    f, g = make_vacuum(reg), vacuum_gaussian(reg)
    for dev in devices:
        f, g = apply_device(f, dev), gaussian_apply(g, dev)
    for mode in ("s", "i"):
        want = quadrature_variance(f, mode, phase)
        assert abs(gaussian_quadrature_variance(g, mode, phase) - want) < 1e-9
