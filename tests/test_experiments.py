import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fconv.devices
import fconv.experiments
import fconv.gaussian
from fconv import (
    Amplifier,
    Attenuator,
    Converter,
    DimensionMismatch,
    EnergyConservationViolation,
    GaussianState,
    ModeRegistry,
    PhaseShift,
    PureState,
    TrilinearCoupler,
    coherent_gaussian,
    compile_circuit,
    fidelity_pure_mixed,
    gaussian_mean_photon,
    gaussian_quadrature_variance,
    ScanResult,
    WdmSpec,
    fringe_visibility,
    make_coherent,
    make_fock,
    make_vacuum,
    reduced_density,
    run_depletion_convergence,
    run_fringe,
    run_linearity,
    run_noise_comparison,
    run_wdm,
)

from fconv.fock import coherent_required_cutoff
from fconv.gaussian import _fold, _step

from dense_reference import wdm_fock_cascade


def test_scanresult_checks_shape_and_monotonicity():
    with pytest.raises(ValueError, match=r"values of shape \(1, 2\) do not match"):
        ScanResult("t", ("a",), [0.0], [[1.0, 2.0]])
    with pytest.raises(ValueError, match=r"values of shape \(2,\) do not match"):
        ScanResult("t", ("a",), [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="strictly monotone"):
        ScanResult("t", ("a",), [0.0, 0.0], [[1.0], [2.0]])
    r = ScanResult("t", ("a",), [0.0, 1.0], [[1.0], [2.0]])
    assert np.allclose(r.column("a"), [1.0, 2.0])


def test_scanresult_holds_read_only_copies():
    xs, ys = np.array([1.0, 0.5]), np.array([[1.0, 2.0], [3.0, 4.0]])
    r = ScanResult("t", ("a", "b"), xs, ys)
    xs[0], ys[0, 0] = 9.0, 9.0  # the caller's arrays stay writable and are not shared
    assert r.abscissa.tolist() == [1.0, 0.5] and r.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert r.column("b").tolist() == [2.0, 4.0]
    for held in (r.abscissa, r.values, r.column("a")):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0


# ---------------------------------------------------------------------------
# the backend seam: every runner hands its scan to its backend's sweep


@pytest.mark.parametrize(
    "run",
    [
        lambda b: run_linearity([1.0, 0.5], 0.1, 1.0, backend=b),
        lambda b: run_fringe([0.0, 1.0], 0.8, 0.3, 0.7, backend=b),
        lambda b: run_noise_comparison([0.0, 0.5], backend=b),
    ],
    ids=["linearity", "fringe", "noise"],
)
def test_unknown_backend_rejected(run):
    with pytest.raises(ValueError, match="unknown backend 'qutip'"):
        run("qutip")


@pytest.fixture
def unitary_builds(monkeypatch):
    """Counts the device unitaries built while the test runs."""
    built = []
    original = fconv.devices.device_unitary

    def counting(registry, dev):
        built.append(dev)
        return original(registry, dev)

    monkeypatch.setattr(fconv.devices, "device_unitary", counting)
    return built


def test_fringe_builds_each_unitary_once_per_scan(unitary_builds):
    run_fringe(np.linspace(0, 2 * np.pi, 16, endpoint=False), 0.8, 0.3, 0.7, 0.2)
    assert len(unitary_builds) == 2


def test_gaussian_fringe_builds_each_symplectic_once_per_scan(monkeypatch):
    built = []
    original = fconv.gaussian._symplectic

    def counting(registry, modes, U, V):
        built.append(modes)
        return original(registry, modes, U, V)

    monkeypatch.setattr(fconv.gaussian, "_symplectic", counting)
    phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    run_fringe(phis, 0.8, 0.3, 0.7, 0.2, backend="gaussian")
    assert len(built) == 2


def test_linearity_builds_one_unitary_per_transmission(unitary_builds):
    run_linearity([1.0, 0.3, 0.1, 0.03, 0.01], theta=0.1, alpha_pump=1.0)
    assert len(unitary_builds) == 5


# ---------------------------------------------------------------------------
# the sweep: every point of a scan handed to the backend at once

_MODES = ("a", "b", "c")
_pair = st.permutations(_MODES).map(lambda m: m[:2])
_phase = st.floats(-np.pi, np.pi)
_device = st.one_of(
    st.builds(lambda m, t, p: Converter(*m, t, p), _pair, st.floats(0.0, 3.0), _phase),
    st.builds(lambda m, r, p: Amplifier(*m, r, p), _pair, st.floats(0.0, 0.6), _phase),
    st.builds(PhaseShift, st.sampled_from(_MODES), _phase),
    st.builds(Attenuator, st.sampled_from(_MODES), st.floats(0.0, 1.0)),
)
_inputs = st.dictionaries(st.sampled_from(_MODES), st.complex_numbers(max_magnitude=2.0))
_read = st.one_of(
    st.tuples(st.just("photons"), st.sampled_from(_MODES)),
    st.tuples(st.just("variance"), st.sampled_from(_MODES), _phase),
)


@st.composite
def _scans(draw):
    """(points, reads): per-point circuits whose every position holds either one
    device object shared by every point or a device of its own per point."""
    n = draw(st.integers(1, 6))
    positions = draw(st.lists(st.one_of(_device, st.lists(_device, min_size=n, max_size=n)),
                              max_size=4))
    shared = draw(_inputs)
    inputs = draw(st.lists(st.just(shared) | _inputs, min_size=n, max_size=n))
    points = [(tuple(p[i] if isinstance(p, list) else p for p in positions), inputs[i])
              for i in range(n)]
    return points, draw(st.lists(_read, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_scans())
def test_gaussian_sweep_is_the_per_point_compiled_circuit(scan):
    points, reads = scan
    reg = ModeRegistry([(m, 1.0, 1) for m in _MODES])
    read = {"photons": gaussian_mean_photon, "variance": gaussian_quadrature_variance}
    want = np.array([
        [read[kind](_step(coherent_gaussian(reg, alphas), _fold(reg, devs)), *args)
         for kind, *args in reads]
        for devs, alphas in points
    ])
    _, sweep = fconv.experiments._backend("gaussian")
    got = sweep(reg, points, reads)
    assert got.shape == (len(points), len(reads))
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_gaussian_sweep_maps_each_shared_device_once(monkeypatch):
    built = []
    original = fconv.gaussian._symplectic

    def counting(registry, modes, U, V):
        built.append(U.shape)
        return original(registry, modes, U, V)

    monkeypatch.setattr(fconv.gaussian, "_symplectic", counting)
    reg = ModeRegistry([("a", 1.0, 1), ("b", 1.0, 1)])
    shared, alphas = Converter("a", "b", 0.3), {"a": 1.0}
    points = [((shared, Amplifier("a", "b", s)), alphas) for s in (0.1, 0.2, 0.3)]
    fconv.experiments._backend("gaussian")[1](reg, points, [("photons", "b")])
    # one call for the shared converter, one for the three amplifiers' stacked (U, V)
    assert built == [(2, 2), (3, 2, 2)]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the check
@pytest.mark.parametrize(
    "where, bad",
    [("means", np.nan), ("means", np.inf), ("cov", np.nan), ("cov", np.inf), ("cov", 1e-9)],
    ids=["nan-means", "inf-means", "nan-cov", "inf-cov", "asymmetric-cov"],
)
def test_stacked_gaussian_state_refuses_one_bad_point(where, bad):
    reg = ModeRegistry([("a", 1.0, 1)])
    means, cov = np.zeros((4, 2)), np.tile(np.eye(2) / 4, (4, 1, 1))
    GaussianState(reg, means, cov)
    GaussianState(reg, means, cov[0])  # a covariance shared by every point
    if where == "means":
        means[2, 1] = bad
    else:
        cov[2, 0, 1] += bad
    with pytest.raises(ValueError, match="must be finite, cov symmetric"):
        GaussianState(reg, means, cov)


@pytest.mark.parametrize("means, cov", [((3, 2), (4, 2, 2)), ((2,), (3, 2, 2)), ((3, 2), (3, 2))])
def test_gaussian_state_refuses_point_axes_that_differ(means, cov):
    with pytest.raises(ValueError, match=re.escape("expected means (..., 2) and cov (2,2)")):
        GaussianState(ModeRegistry([("a", 1.0, 1)]), np.zeros(means), np.zeros(cov))


def test_fock_sweep_compiles_a_shared_circuit_and_prepares_a_shared_input_once(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(fconv.devices, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(fconv.devices, name, wrapper)

    counting("compile_circuit")
    counting("make_coherent")
    reg = ModeRegistry([("a", 1.0, 10), ("b", 1.0, 10)])
    devices, alphas = (Converter("a", "b", 0.4),), {"a": 0.5}
    _, sweep = fconv.experiments._backend("fock")
    out = sweep(reg, [(devices, alphas)] * 5, [("photons", "b"), ("variance", "a", 0.3)])
    assert calls == ["compile_circuit", "make_coherent"] and out.shape == (5, 2)
    # a new object is compiled or prepared again, even if it equals the last one
    calls.clear()
    sweep(reg, [(devices, alphas), (devices, dict(alphas)), ((devices[0],), alphas)], [])
    assert calls == ["compile_circuit", "make_coherent", "make_coherent", "compile_circuit",
                     "make_coherent"]


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("alpha_s", [1.5, 3.0])
def test_fock_sweep_trilinear_keeps_both_charges_of_a_number_pump(n, alpha_s):
    # pump |N> and a coherent signal through the coupler: n_p + n_s and n_s - n_i
    # are conserved, so their means leave as they came (the signal is cut at its
    # coherent tail plus N, which the coupler can move onto it)
    reg = ModeRegistry([("pump", 2.0, n), ("signal", 1.0, coherent_required_cutoff(alpha_s) + n),
                        ("idler", 1.0, n)])
    inputs = {"pump": make_fock(ModeRegistry([("pump", 2.0, n)]), [n]), "signal": alpha_s}
    coupler = TrilinearCoupler("pump", "signal", "idler", eta_tau=0.7 / alpha_s)
    _, sweep = fconv.experiments._backend("fock")
    reads = [("photons", m) for m in ("pump", "signal", "idler")]
    (p0, s0, i0), (p1, s1, i1) = sweep(reg, [((), inputs), ((coupler,), inputs)], reads)
    assert abs(p0 - n) < 1e-12 and i0 == 0 and p1 < n - 0.1  # the pump is depleted
    assert abs((p1 + s1) - (p0 + s0)) < 1e-12
    assert abs((s1 - i1) - (s0 - i0)) < 1e-12


def test_fock_sweep_fidelity_read_is_the_reduced_state_fidelity():
    # a pure output, and a mixed one: the attenuator splits |2> into loss branches
    reg = ModeRegistry([("a", 2.0, 2), ("b", 1.0, 2), ("c", 1.0, 2)])
    inputs = {"a": make_fock(ModeRegistry([("a", 2.0, 2)]), [2]), "c": 0.01}
    target = PureState(ModeRegistry([("a", 2.0, 2), ("b", 1.0, 2)]),
                       np.array([0, 0, 0.6, 0, -0.8j, 0, 0, 0, 0]))  # 0.6 |0, 2> - 0.8i |1, 1>
    points = [((Converter("a", "b", 0.7),), inputs),
              ((Attenuator("a", 0.6), Converter("a", "b", 0.7)), inputs)]
    _, sweep = fconv.experiments._backend("fock")
    got = sweep(reg, points, [("fidelity", ("a", "b"), target)])[:, 0]
    for (devices, _), fid in zip(points, got):
        rho = reduced_density(compile_circuit(reg, devices)(make_coherent(reg, inputs)), ("a", "b"))
        assert fid == fidelity_pure_mixed(target, rho) and 0.0 < fid < 1.0
    assert np.trace(rho.matrix @ rho.matrix).real < 0.9  # the lossy output is mixed


# ---------------------------------------------------------------------------
# linearity


def test_linearity_exact_ratios_and_slope():
    ts = [1.0, 0.1, 0.01]
    res = run_linearity(ts, theta=np.arcsin(0.1), alpha_pump=1.0)
    y = res.column("idler_mean_photons")
    assert np.allclose(y / y[0], ts, rtol=1e-9)
    slope = np.polyfit(np.log(ts), np.log(y), 1)[0]
    assert abs(slope - 1.0) < 1e-9


def test_linearity_full_conversion():
    res = run_linearity([1.0], theta=np.pi / 2, alpha_pump=1.0)
    assert abs(res.column("idler_mean_photons")[0] - 1.0) < 1e-9


def test_linearity_noise_floor_flattens_tail():
    ts = list(np.geomspace(1, 1e-3, 7))
    floor = 1e-4
    res = run_linearity(ts, theta=np.arcsin(0.1), alpha_pump=1.0, noise_floor=floor)
    y = res.column("idler_mean_photons")
    ideal = np.array(ts) * 0.01
    # lowest-T point sits visibly above the noiseless line
    assert y[-1] / ideal[-1] > 1.05
    # the floor is purely additive: subtracting it recovers the ideal curve
    assert np.max(np.abs((y - floor) / ideal - 1)) < 1e-9


def test_linearity_backend_agreement():
    ts = list(np.geomspace(1, 0.01, 5))
    rf = run_linearity(ts, 0.4, 0.9 + 0.2j)
    rg = run_linearity(ts, 0.4, 0.9 + 0.2j, backend="gaussian")
    assert np.max(np.abs(rf.column("idler_mean_photons") - rg.column("idler_mean_photons"))) < 1e-7


def test_metadata_writes_numpy_scalars_as_the_python_numbers():
    # a numpy scalar is recorded as the Python number of its kind and value
    ts = np.geomspace(1, 0.1, 3)
    got = run_linearity(ts, np.arcsin(0.1), np.float64(1.0), np.float32(0.25)).metadata
    want = run_linearity(ts, float(np.arcsin(0.1)), 1.0, 0.25).metadata
    assert got == want and got["theta"] == repr(float(np.arcsin(0.1)))
    got = run_linearity(ts, 0.1, np.complex128(1 + 0.5j), np.int64(0), backend="gaussian")
    want = run_linearity(ts, 0.1, 1 + 0.5j, 0, backend="gaussian")
    assert got.metadata == want.metadata and got.metadata["noise_floor"] == "0"


def test_linearity_input_validation():
    with pytest.raises(ValueError):
        run_linearity([0.5, 0.9], 0.1, 1.0)  # not decreasing
    with pytest.raises(ValueError):
        run_linearity([1.5], 0.1, 1.0)
    with pytest.raises(ValueError, match="noise_floor"):
        run_linearity([1.0], 0.1, 1.0, noise_floor=np.nan)


# ---------------------------------------------------------------------------
# fringe


def test_fringe_balanced_visibility_one():
    theta = np.pi / 6
    alpha_ref = np.sin(theta)  # |a_i| = |alpha_ref|
    phis = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    res = run_fringe(phis, 1.0, alpha_ref, theta)
    assert abs(fringe_visibility(res) - 1.0) < 1e-9


def test_fringe_no_reference_is_flat():
    phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    res = run_fringe(phis, 1.0, 0.0, np.pi / 6)
    y = res.column("combined_mean_photons")
    assert np.max(y) - np.min(y) < 1e-10


def test_fringe_visibility_closed_form_and_phase():
    alpha_p, theta, alpha_ref, phi_s = 1.0, np.pi / 6, 0.25, 0.3
    phis = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    res = run_fringe(phis, alpha_p, alpha_ref, theta, phi_s)
    y = res.column("combined_mean_photons")
    a_i = alpha_p * np.sin(theta)
    v_expect = 2 * a_i * alpha_ref / (a_i**2 + alpha_ref**2)
    assert abs(fringe_visibility(res) - v_expect) < 1e-8
    # least-squares sinusoid fit: y = c0 + c1 cos(phi) + c2 sin(phi)
    A = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    amp = np.hypot(coef[1], coef[2])
    assert np.max(np.abs(y - fit)) < 1e-8 * amp
    # fringe offset: idler carries phase pi - phi_s + phi_p relative to the reference
    offset = np.arctan2(coef[2], coef[1])
    assert abs(((offset - (phi_s - np.pi)) + np.pi) % (2 * np.pi) - np.pi) < 1e-6


@pytest.mark.parametrize(
    "phis, count",
    [([0.0], 1), ([0.0, 1.0], 2), ([0.5, 0.5 + 2 * np.pi, 0.5 + 4 * np.pi], 3)],
    ids=["one-point", "two-points", "three-equal-mod-2pi"],
)
@pytest.mark.parametrize("backend", ["fock", "gaussian"])
def test_fringe_visibility_refuses_an_underdetermined_fit(phis, count, backend):
    # three coefficients need three distinct phases; two points once read 1.974, past 1
    res = run_fringe(phis, 1.0, 0.25, np.pi / 6, backend=backend)
    with pytest.raises(ValueError, match=f"three distinct phases mod 2 pi: {count} points"):
        fringe_visibility(res)
    assert abs(fringe_visibility(run_fringe([0.0, 1.0, 2.0], 1.0, 0.25, np.pi / 6)) - 0.8) < 1e-8


def test_fringe_periodicity():
    res_a = run_fringe([0.4], 1.0, 0.25, np.pi / 6)
    res_b = run_fringe([0.4 + 2 * np.pi], 1.0, 0.25, np.pi / 6)
    ya = res_a.column("combined_mean_photons")[0]
    yb = res_b.column("combined_mean_photons")[0]
    assert abs(ya - yb) < 1e-10


def test_fringe_backend_agreement():
    phis = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    rf = run_fringe(phis, 0.8, 0.3, 0.7, 0.2)
    rg = run_fringe(phis, 0.8, 0.3, 0.7, 0.2, backend="gaussian")
    assert np.max(np.abs(rf.column("combined_mean_photons") - rg.column("combined_mean_photons"))) < 1e-7


# ---------------------------------------------------------------------------
# noise comparison


def test_noise_zero_strength_row():
    res = run_noise_comparison([0.0, 0.5])
    assert np.allclose(res.values[0], (0.25, 0.25, 0.0), atol=1e-12)


@pytest.mark.parametrize("backend", ["gaussian", "fock"])
def test_noise_converter_stays_vacuum(backend):
    s_max = 1.0 if backend == "fock" else 1.2  # keep the fock cutoff modest
    res = run_noise_comparison(np.linspace(0, s_max, 5), backend=backend)
    assert np.max(np.abs(res.column("converter_variance") - 0.25)) < 1e-10


def test_noise_amplifier_columns():
    ss = np.linspace(0, 1.0, 6)
    res = run_noise_comparison(ss, backend="fock")
    v = res.column("amplifier_variance")
    n = res.column("amplifier_spontaneous_photons")
    assert np.max(np.abs(v - (2 * np.sinh(ss) ** 2 + 1) / 4)) < 1e-8
    assert np.max(np.abs(n - np.sinh(ss) ** 2)) < 1e-8
    assert np.all(np.diff(v) > 0)  # strictly increasing in s
    assert abs(n[-1] - 1.3811) < 1e-4


def test_noise_metadata_records_both_registries():
    from fconv.devices import amplifier_required_cutoff

    res = run_noise_comparison([0.0, 0.5], backend="fock")
    c = amplifier_required_cutoff(0.5, tail_tol=1e-10)
    assert res.metadata["cutoffs"] == f"signal={c};idler={c}"
    assert res.metadata["converter_cutoffs"] == "pump=1;idler=1"  # vacuum stays vacuum
    res = run_noise_comparison([0.0, 0.5], backend="gaussian")  # no Fock box, no record
    assert not {"cutoffs", "converter_cutoffs"} & set(res.metadata)
    res = run_noise_comparison([0.0], backend="fock")  # no squeezing: no floor either
    assert res.metadata["cutoffs"] == "signal=1;idler=1"
    assert res.values[0].tolist() == [0.25, 0.25, 0.0]


def test_gaussian_noise_past_tanh_rounding_records_no_cutoffs():
    # tanh(20)^2 rounds to 1; the moments hold sinh^2(20) with no Fock box behind them
    res = run_noise_comparison([0.0, 20.0], backend="gaussian")
    assert not {"cutoffs", "converter_cutoffs"} & set(res.metadata)
    assert abs(res.column("amplifier_spontaneous_photons")[1] / np.sinh(20.0) ** 2 - 1) < 1e-12


def test_gaussian_runs_call_no_fock_cutoff_rule(monkeypatch):
    # the backend's `space` sizes the modes: a Gaussian run never reaches either rule
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock cutoff rule was called")

    monkeypatch.setattr(fconv.devices, "coherent_required_cutoff", refuse)
    monkeypatch.setattr(fconv.devices, "amplifier_required_cutoff", refuse)
    runs = [
        lambda backend: run_linearity([1.0, 0.5], 0.1, 2.0, backend=backend),
        lambda backend: run_fringe([0.0, 1.0], 2.0, 0.5, 0.3, backend=backend),
        lambda backend: run_noise_comparison([0.0, 1.0], backend=backend),
    ]
    for run in runs:
        assert "cutoffs" not in run("gaussian").metadata
        with pytest.raises(AssertionError, match="cutoff rule"):  # the patch is live
            run("fock")


def test_space_sizes_the_box_from_the_points():
    from fconv.devices import amplifier_required_cutoff

    fock, _ = fconv.experiments._backend("fock")
    gaussian, _ = fconv.experiments._backend("gaussian")
    modes, conv = [("a", 2.0), ("b", 1.0)], (Converter("a", "b", 0.3),)

    def cutoffs(space, points):
        return space(modes, points).cutoffs

    # coherent inputs only: the coherent tail of the largest per-point total amplitude
    coherent = [(conv, {"a": 1.0}), ((Attenuator("a", 0.5),) + conv, {"a": 3.0, "b": -4j})]
    assert cutoffs(fock, coherent) == (coherent_required_cutoff(5.0),) * 2
    # any amplifier: the 1e-10 pair tail of the largest squeeze, whatever the amplitudes
    amplified = coherent + [((Amplifier("a", "b", s),), {}) for s in (0.2, 0.7, 0.4)]
    assert cutoffs(fock, amplified) == (amplifier_required_cutoff(0.7, tail_tol=1e-10),) * 2
    # no points, or only vacuum inputs: nothing to hold
    assert cutoffs(fock, []) == cutoffs(fock, [(conv, {}), ((), {"a": 0.0})]) == (1, 1)
    for points in ([], coherent, amplified):
        assert cutoffs(gaussian, points) == (1, 1)


def test_fock_space_refuses_a_fock_state_input_naming_its_mode():
    fock, _ = fconv.experiments._backend("fock")
    state = make_fock(ModeRegistry([("x", 1.0, 2)]), [2])
    points = [((), {"a": 1.0}), ((), {"a": 1.0, "b": state})]
    with pytest.raises(ValueError, match="^fock_space sizes coherent inputs only: the "
                                         "Fock-state input on mode 'b' sets its own cutoff$"):
        fock([("a", 2.0), ("b", 1.0)], points)


@pytest.mark.parametrize(
    "backend, read, message",
    [
        ("fock", ("photon", "a"),
         "the Fock backend takes no 'photon' read; it takes 'photons', 'variance', 'fidelity'"),
        ("gaussian", ("photon", "a"),
         "the Gaussian backend takes no 'photon' read; it takes 'photons', 'variance'"),
        ("gaussian", ("fidelity", ("a",), None),
         "the Gaussian backend takes no 'fidelity' read; it takes 'photons', 'variance'"),
    ],
    ids=["fock-photon", "gaussian-photon", "gaussian-fidelity"],
)
def test_sweep_refuses_an_unknown_read_before_any_point_runs(backend, read, message):
    _, sweep = fconv.experiments._backend(backend)
    reg = ModeRegistry([("a", 1.0, 1), ("b", 1.0, 1)])
    # the point names a mode the registry lacks: running it would raise UnknownMode
    points = [((Converter("a", "z", 0.3),), {"a": 1.0})]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep(reg, points, [("photons", "a"), read])


# ---------------------------------------------------------------------------
# depletion convergence


def test_depletion_vacuum_pump_trivial():
    reg = ModeRegistry([("pump", 2.0, 1)])
    res = run_depletion_convergence([1.0, 2.0], np.pi / 2, make_vacuum(reg))
    assert np.allclose(res.column("fidelity_vs_converter"), 1.0, atol=1e-10)


def test_depletion_single_photon_nondecreasing():
    reg = ModeRegistry([("pump", 2.0, 1)])
    res = run_depletion_convergence([2.0, 3.0], np.pi / 2, make_fock(reg, [1]))
    fids = res.column("fidelity_vs_converter")
    assert np.all(np.diff(fids) > 0)
    assert fids[0] > 0.8


def test_depletion_six_pump_photons_allocates_no_dense_unitary():
    # pump |6> and alpha_s 10 (auto signal cutoff 170 + 6): dim 7 * 177 * 7 = 8673,
    # where a dense complex U would take 1.1 GB; no trilinear chain holds more
    # than 7 states
    pump = make_fock(ModeRegistry([("pump", 2.0, 6)]), [6])
    tracemalloc.start()
    try:
        res = run_depletion_convergence([10.0], np.pi / 2, pump)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < res.column("fidelity_vs_converter")[0] <= 1.0
    assert peak < 5e6


def depletion_fidelity_closed_form(alpha_s, theta=np.pi / 2):
    """F = sum_k |cos(theta) c_k cos(eta sqrt(k + 1)) + sin(theta) c_{k-1} sin(eta sqrt(k))|^2.

    A one-photon pump with coherent signal (amplitudes c_k) and vacuum idler:
    the coupler (eta = theta / alpha_s) only mixes |1, k, 0> with
    |0, k + 1, 1>, at matrix element sqrt(k + 1), and the converter target
    is cos(theta) |1, 0> - sin(theta) |0, 1>.  Signal number k picks up the
    target's |1, 0> part from |1, k, 0> and its |0, 1> part from
    |0, k, 1>; at theta = pi/2 only the Rabi populations remain.
    """
    k = np.arange(int(alpha_s**2 + 20 * alpha_s + 50))
    log_c = k * np.log(alpha_s) - alpha_s**2 / 2 - np.cumsum(np.log(np.maximum(k, 1))) / 2
    c = np.exp(log_c)
    c_prev = np.concatenate(([0.0], c[:-1]))
    eta = theta / alpha_s
    kept = np.cos(theta) * c * np.cos(eta * np.sqrt(k + 1))  # from |1, k, 0>
    moved = np.sin(theta) * c_prev * np.sin(eta * np.sqrt(k))  # from |0, k, 1>
    return float(np.sum((kept + moved) ** 2))


def test_depletion_matches_closed_form():
    # independent of the Fock code: a Poisson-weighted sum of Rabi populations
    alphas = [2.0, 3.0, 4.0, 5.0, 8.0, 12.0]
    pump = make_fock(ModeRegistry([("pump", 2.0, 1)]), [1])
    res = run_depletion_convergence(alphas, np.pi / 2, pump)
    for a_s, fid in zip(alphas, res.column("fidelity_vs_converter")):
        assert abs(fid - depletion_fidelity_closed_form(a_s)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.0, np.pi, exclude_min=True, exclude_max=True),
    alpha_s=st.floats(2.0, 8.0),
)
def test_depletion_matches_closed_form_at_any_theta(theta, alpha_s):
    # away from theta = pi/2 the target keeps a |1, 0> part, so the fidelity
    # carries coherences between neighbouring signal numbers
    pump = make_fock(ModeRegistry([("pump", 2.0, 1)]), [1])
    [fid] = run_depletion_convergence([alpha_s], theta, pump).column("fidelity_vs_converter")
    assert abs(fid - depletion_fidelity_closed_form(alpha_s, theta)) < 1e-9


def test_depletion_strong_signal_limit():
    # expanding sin^2(pi sqrt(n + 1) / (2 alpha_s)) about n + 1 = alpha_s^2
    # gives 1 - F -> pi^2 / (16 alpha_s^2): the converter is the strong-signal limit
    pump = make_fock(ModeRegistry([("pump", 2.0, 1)]), [1])
    [fid] = run_depletion_convergence([30.0], np.pi / 2, pump).column("fidelity_vs_converter")
    assert abs(30.0**2 * (1 - fid) - np.pi**2 / 16) < 1e-3


def test_depletion_rejects_bad_amplitudes():
    reg = ModeRegistry([("pump", 2.0, 1)])
    with pytest.raises(ValueError):
        run_depletion_convergence([0.0], np.pi / 2, make_vacuum(reg))


def test_depletion_refuses_a_pump_on_two_modes():
    pump = make_fock(ModeRegistry([("pump", 2.0, 1), ("other", 1.0, 2)]), [1, 0])
    with pytest.raises(DimensionMismatch, match=r"dims \(2, 3\) on mode 'pump', which has 2"):
        run_depletion_convergence([2.0], np.pi / 2, pump)


# ---------------------------------------------------------------------------
# auto cutoffs: conservation sizes every mode for the input's photon budget,
# so a larger box changes nothing beyond the coherent tail tolerance


@settings(max_examples=20, deadline=None)
@given(
    alpha_pump=st.floats(0.0, 1.5),
    alpha_ref=st.floats(0.0, 1.5),
    theta=st.floats(0.0, 2 * np.pi),
    phi_s=st.floats(-np.pi, np.pi),
)
def test_fringe_auto_cutoff_is_converged(alpha_pump, alpha_ref, theta, phi_s):
    phis = np.linspace(0.0, 2 * np.pi, 4, endpoint=False)
    auto = run_fringe(phis, alpha_pump, alpha_ref, theta, phi_s)
    c = int(auto.metadata["cutoffs"].split(";")[0].split("=")[1])
    rule = fconv.devices.coherent_required_cutoff
    with mock.patch.object(fconv.devices, "coherent_required_cutoff", lambda a: rule(a) + 3):
        wider = run_fringe(phis, alpha_pump, alpha_ref, theta, phi_s)
    assert wider.metadata["cutoffs"] == f"pump={c + 3};idler={c + 3};ref={c + 3}"
    diff = auto.column("combined_mean_photons") - wider.column("combined_mean_photons")
    assert np.max(np.abs(diff)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    alpha_s=st.sampled_from([2.0, 4.0]),
    theta=st.floats(0.0, np.pi, exclude_min=True),
)
@example(n=3, alpha_s=4.0, theta=2.93)  # a signal cutoff without the + n misses by 1.8e-9
def test_depletion_auto_cutoff_is_converged(n, alpha_s, theta):
    # the coupler can move all n pump photons onto the signal
    def fidelity(pump_cutoff):
        pump = make_fock(ModeRegistry([("pump", 2.0, pump_cutoff)]), [n])
        return run_depletion_convergence([alpha_s], theta, pump).column("fidelity_vs_converter")[0]

    auto = fidelity(n)
    rule = fconv.experiments.coherent_required_cutoff
    with mock.patch.object(fconv.experiments, "coherent_required_cutoff", lambda a: rule(a) + 3):
        wider = fidelity(n + 3)  # 3 more levels on the pump and idler, 6 on the signal
    assert abs(auto - wider) <= 1e-9


def test_depletion_records_each_signal_cutoff():
    # the `cutoffs` line names only the pump and idler; the signal, the
    # largest mode, gets the coherent tail of each alpha_s plus the pump cutoff
    from fconv.fock import coherent_required_cutoff

    alphas, metas = [2.0, 3.0, 4.0, 5.0], {}
    for n in (1, 3):
        pump = make_fock(ModeRegistry([("pump", 2.0, n)]), [n])
        metas[n] = meta = run_depletion_convergence(alphas, np.pi / 2, pump).metadata
        assert meta["signal_cutoffs"] == ";".join(
            str(coherent_required_cutoff(a) + n) for a in alphas
        )
        assert meta["cutoffs"] == f"pump={n};idler={n}"
    assert metas[1]["signal_cutoffs"] == "23;35;48;64"  # `fconv depletion` at its defaults


# ---------------------------------------------------------------------------
# wavelength division multiplexing


def test_wdm_single_channel_full_conversion():
    res, c = run_wdm(WdmSpec(2.0, ((1.0 - 1e-9, np.pi / 2, 0.0),)))
    assert abs(abs(c[1]) - 1.0) < 1e-10
    assert abs(c[0]) < 1e-10


def test_wdm_two_channel_even_split():
    res, c = run_wdm(WdmSpec(2.0, ((1.1, np.pi / 4, 0.0), (0.9, np.pi / 2, 0.0))))
    probs = res.column("probability")
    assert np.allclose(probs, [0.5, 0.5], atol=1e-9)
    assert abs(c[0]) < 1e-10


def test_wdm_product_formula_with_phases():
    thetas = [0.5, 1.1, 0.8]
    phis = [0.3, 2.0, -0.7]
    spec = WdmSpec(2.0, tuple((1.0 + 0.05 * k, t, p) for k, (t, p) in enumerate(zip(thetas, phis))))
    _, c = run_wdm(spec)
    for k in range(3):
        want = -np.exp(-1j * phis[k]) * np.sin(thetas[k]) * np.prod(np.cos(thetas[:k]))
        assert abs(c[k + 1] - want) < 1e-10
    want_res = np.prod(np.cos(thetas))
    assert abs(c[0] - want_res) < 1e-10


def test_wdm_normalization_random_specs():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        K = int(rng.integers(1, 5))
        chans = tuple(
            (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
            for _ in range(K)
        )
        _, c = run_wdm(WdmSpec(2.0, chans))
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-10


@pytest.mark.parametrize("K", range(1, 7))
def test_wdm_matches_fock_cascade(K):
    rng = np.random.default_rng(700 + K)
    chans = tuple(
        (1.0 + 0.01 * k, float(rng.uniform(0, np.pi)), float(rng.uniform(-np.pi, np.pi)))
        for k in range(K)
    )
    spec = WdmSpec(2.0, chans)
    res, c = run_wdm(spec)
    want = wdm_fock_cascade(spec)
    assert np.max(np.abs(c - want)) < 1e-14
    assert np.max(np.abs(res.column("probability") - np.abs(want[1:]) ** 2)) < 1e-14


def test_wdm_200_channels_product_rule_in_little_memory():
    rng = np.random.default_rng(200)
    thetas = rng.uniform(0, 0.3, 200)
    phis = rng.uniform(-np.pi, np.pi, 200)
    spec = WdmSpec(2.0, tuple((1.0 + 1e-3 * k, t, p) for k, t, p in zip(range(200), thetas, phis)))
    tracemalloc.start()
    try:
        res, c = run_wdm(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    survive = np.concatenate(([1.0], np.cumprod(np.cos(thetas))))
    want = -np.exp(-1j * phis) * np.sin(thetas) * survive[:-1]
    assert np.max(np.abs(c[1:] - want)) < 1e-12
    assert abs(c[0] - survive[-1]) < 1e-12
    assert np.max(np.abs(res.column("probability") - np.abs(want) ** 2)) < 1e-12
    assert peak < 1e6


def test_wdm_energy_conservation_guard():
    with pytest.raises(EnergyConservationViolation):
        WdmSpec(1.0, ((1.2, 0.5, 0.0),))
