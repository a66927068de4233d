"""Acceptance gate: one test per headline capability, each printing a
single PASS/FAIL line (run with -s to see them on success).

These are the claims the package stands on; tolerances are deliberately
strict and must not be loosened to make a red test green.
"""

import filecmp
import time

import numpy as np
import pytest

from fconv import (
    Amplifier,
    Attenuator,
    Converter,
    ModeRegistry,
    PhaseShift,
    TrilinearCoupler,
    apply_device,
    coherent_gaussian,
    fidelity,
    fringe_visibility,
    gaussian_apply,
    gaussian_mean_photon,
    make_coherent,
    make_fock,
    make_vacuum,
    mean_photon,
    moments_from_fock,
    product_state,
    quadrature_variance,
    run_depletion_convergence,
    run_fringe,
    run_linearity,
    run_noise_comparison,
    run_wdm,
    WdmSpec,
)
from fconv.cli import main as cli_main

from dense_reference import dense_unitary


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# 1 -------------------------------------------------------------------------


def test_unit_conversion_of_a_single_photon():
    reg = ModeRegistry([("pump", 2.0, 5), ("idler", 1.0, 5)])
    t0 = time.perf_counter()
    out = apply_device(make_fock(reg, [1, 0]), Converter("pump", "idler", np.pi / 2))
    elapsed = time.perf_counter() - t0
    fid = fidelity(out, make_fock(reg, [0, 1]))
    _report("unit-conversion", fid >= 1 - 1e-9 and elapsed < 1.0)


# 2 -------------------------------------------------------------------------


def test_converter_noiseless_amplifier_noisy():
    reg_c = ModeRegistry([("pump", 2.0, 8), ("idler", 1.0, 8)])
    ok = True
    for theta in np.linspace(0.0, np.pi / 2, 10):
        st = apply_device(make_vacuum(reg_c), Converter("pump", "idler", theta))
        ok &= abs(quadrature_variance(st, "idler", 0.0) - 0.25) < 1e-10
        ok &= abs(quadrature_variance(st, "idler", np.pi / 3) - 0.25) < 1e-10
    reg_a = ModeRegistry([("signal", 1.2, 45), ("idler", 0.8, 45)])
    for s in (0.3, 0.7, 1.0):
        st = apply_device(make_vacuum(reg_a), Amplifier("signal", "idler", s))
        ok &= abs(quadrature_variance(st, "idler", 0.0) - (2 * np.sinh(s) ** 2 + 1) / 4) < 1e-8
        ok &= abs(mean_photon(st, "idler") - np.sinh(s) ** 2) < 1e-8
        if s == 1.0:
            ok &= abs(mean_photon(st, "idler") - 1.3811) < 1e-4
    _report("noiseless-conversion", bool(ok))


# 3 -------------------------------------------------------------------------


def test_linearity_two_decades_and_noise_floor():
    ts = np.geomspace(1.0, 1e-2, 9)  # two decades of attenuation
    res = run_linearity(ts, np.arcsin(0.1), 1.0)
    y = res.column("idler_mean_photons")
    slope = np.polyfit(np.log(ts), np.log(y), 1)[0]
    res_f = run_linearity(ts, np.arcsin(0.1), 1.0, noise_floor=1e-4)
    y_f = res_f.column("idler_mean_photons")
    deviates_up = y_f[-1] / y[-1] > 1.5 and abs(y_f[0] / y[0] - 1) < 0.05
    _report("linearity", abs(slope - 1.0) < 1e-6 and deviates_up)


# 4 -------------------------------------------------------------------------


def test_fringe_is_sinusoidal_with_closed_form_visibility():
    alpha_p, alpha_ref, theta = 1.0, 0.25, np.pi / 6
    phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    res = run_fringe(phis, alpha_p, alpha_ref, theta)
    y = res.column("combined_mean_photons")
    A = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    amp = np.hypot(coef[1], coef[2])
    residual_ok = np.max(np.abs(y - A @ coef)) <= 1e-8 * amp
    a_i = alpha_p * np.sin(theta)
    v_expect = 2 * a_i * alpha_ref / (a_i**2 + alpha_ref**2)
    vis_ok = abs(fringe_visibility(res) - v_expect) < 1e-8
    res_b = run_fringe(phis, alpha_p, a_i, theta)
    balanced_ok = abs(fringe_visibility(res_b) - 1.0) < 1e-8
    _report("fringe", residual_ok and vis_ok and balanced_ok)


# 5 -------------------------------------------------------------------------


def test_trilinear_conservation_and_rabi():
    reg = ModeRegistry([("p", 2.0, 4), ("s", 1.1, 4), ("i", 0.9, 4)])
    occ = reg.occupations()
    n_p, n_s, n_i = occ[:, 0], occ[:, 1], occ[:, 2]
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10):
        psi = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
        psi /= np.linalg.norm(psi)
        U = dense_unitary(reg, TrilinearCoupler("p", "s", "i", 0.37, 0.5))
        out = U @ psi
        for charge in (n_p + n_s, n_s - n_i):
            before = np.sum(charge * np.abs(psi) ** 2)
            after = np.sum(charge * np.abs(out) ** 2)
            ok &= abs(after - before) <= 1e-9
    reg1 = ModeRegistry([("p", 2.0, 2), ("s", 1.1, 2), ("i", 0.9, 2)])
    for eta_tau in np.linspace(0.1, 3.0, 10):
        st = apply_device(make_fock(reg1, [1, 0, 0]), TrilinearCoupler("p", "s", "i", eta_tau))
        p_conv = abs(st.amplitudes[reg1.flat_index([0, 1, 1])]) ** 2
        ok &= abs(p_conv - np.sin(eta_tau) ** 2) <= 1e-9
    _report("trilinear-dynamics", bool(ok))


# 6 -------------------------------------------------------------------------

# pump |1>, theta = pi/2: observed fidelities, pinned as regression constants
DEPLETION_PINNED = {
    2.0: 0.8687298342661054,
    3.0: 0.9363373331035082,
    4.0: 0.9630301112360883,
    5.0: 0.975982310979377,
}


def test_depletion_convergence_regression():
    reg = ModeRegistry([("pump", 2.0, 1)])
    t0 = time.perf_counter()
    res = run_depletion_convergence(sorted(DEPLETION_PINNED), np.pi / 2, make_fock(reg, [1]))
    elapsed = time.perf_counter() - t0
    fids = res.column("fidelity_vs_converter")
    ok = bool(np.all(np.diff(fids) > 0)) and elapsed < 60.0
    for a_s, fid in zip(res.abscissa, fids):
        ok &= abs(fid - DEPLETION_PINNED[a_s]) < 1e-9
    _report("depletion-convergence", ok)


# 7 -------------------------------------------------------------------------


def test_wdm_splitting():
    res, c = run_wdm(WdmSpec(2.0, ((1.1, np.pi / 4, 0.0), (0.9, np.pi / 2, 0.0))))
    probs = res.column("probability")
    ok = np.max(np.abs(probs - 0.5)) < 1e-9 and abs(c[0]) < 1e-9
    rng = np.random.default_rng(11)
    for _ in range(5):
        K = int(rng.integers(1, 6))
        chans = tuple(
            (float(rng.uniform(0.4, 1.6)), float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
            for _ in range(K)
        )
        _, ck = run_wdm(WdmSpec(2.0, chans))
        ok &= abs(np.sum(np.abs(ck) ** 2) - 1.0) < 1e-10
    _report("wdm-splitting", bool(ok))


# 8 -------------------------------------------------------------------------


def test_cross_backend_agreement_on_random_circuits():
    rng = np.random.default_rng(23)
    ok = True
    # pure path: three modes, unitary devices only
    cut = 25
    reg3 = ModeRegistry([("a", 2.0, cut), ("b", 1.0, cut), ("c", 1.0, cut)])
    for _ in range(3):
        alphas = {m: complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)) for m in ("a", "b", "c")}
        devs = [
            PhaseShift("a", float(rng.uniform(0, 2 * np.pi))),
            Converter("a", "b", float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))),
            Amplifier("b", "c", float(rng.uniform(0, 0.3)), float(rng.uniform(0, 2 * np.pi))),
            Converter("b", "c", float(rng.uniform(0, np.pi))),
        ]
        fs = product_state(
            *(make_coherent(ModeRegistry([(m, 1.0, cut)]), {m: alphas[m]}) for m in ("a", "b", "c"))
        )
        g = coherent_gaussian(reg3, alphas)
        for dev in devs:
            fs = apply_device(fs, dev)
            g = gaussian_apply(g, dev)
        means_f, cov_f = moments_from_fock(fs)
        ok &= np.max(np.abs(means_f - g.means)) < 1e-7
        ok &= np.max(np.abs(cov_f - g.cov)) < 1e-7
        for m in ("a", "b", "c"):
            ok &= abs(mean_photon(fs, m) - gaussian_mean_photon(g, m)) < 1e-7
    # mixed path: two modes with a mid-circuit attenuator
    reg2 = ModeRegistry([("a", 2.0, cut), ("b", 1.0, cut)])
    for _ in range(2):
        alphas = {m: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for m in ("a", "b")}
        devs = [
            Amplifier("a", "b", float(rng.uniform(0, 0.3))),
            Attenuator("b", float(rng.uniform(0.2, 0.9))),
            Converter("a", "b", float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))),
        ]
        fs = product_state(
            *(make_coherent(ModeRegistry([(m, 1.0, cut)]), {m: alphas[m]}) for m in ("a", "b"))
        )
        g = coherent_gaussian(reg2, alphas)
        for dev in devs:
            fs = apply_device(fs, dev)
            g = gaussian_apply(g, dev)
        means_f, cov_f = moments_from_fock(fs)
        ok &= np.max(np.abs(means_f - g.means)) < 1e-7
        ok &= np.max(np.abs(cov_f - g.cov)) < 1e-7
    _report("cross-backend", bool(ok))


# 9 -------------------------------------------------------------------------


@pytest.mark.parametrize("experiment", ["linearity", "fringe", "noise", "depletion", "wdm"])
def test_cli_byte_identical_reruns(experiment, tmp_path):
    fast = {
        "linearity": ["--points", "5"],
        "fringe": ["--points", "8"],
        "noise": ["--points", "4", "--s-max", "0.6"],
        "depletion": ["--alpha-s", "2.0"],
        "wdm": [],
    }
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [experiment] + fast[experiment]
    rc_a = cli_main(args + ["-o", str(a)])
    rc_b = cli_main(args + ["-o", str(b)])
    ok = rc_a == 0 and rc_b == 0 and filecmp.cmp(a, b, shallow=False)
    _report(f"cli-determinism[{experiment}]", ok)
