import dataclasses
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fconv.cli
from fconv import ScanResult, run_linearity
from fconv.cli import EXPERIMENTS, FOCK_ONLY, main, parse_args, write_csv
from fconv.devices import amplifier_required_cutoff


def _result():
    return ScanResult(
        abscissa_label="x",
        column_labels=("y", "z"),
        abscissa=[0.1, 0.2],
        values=[[1.0, 0.5], [2.0, 1.0 / 3.0]],
        metadata={"beta": "2", "alpha": "1"},
    )


# ---------------------------------------------------------------------------
# CSV serialization


def test_write_csv_layout(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(_result(), str(path))
    text = path.read_bytes().decode("utf-8")
    lines = text.split("\n")
    # metadata comments sorted by key, then header, then rows; trailing LF
    assert lines[0] == "# alpha=1"
    assert lines[1] == "# beta=2"
    assert lines[2] == "x,y,z"
    assert lines[-1] == ""
    assert "\r" not in text


def test_write_csv_floats_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(_result(), str(path))
    rows = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    assert float(rows[1][2]) == 1.0 / 3.0  # repr is shortest round-trip


def test_write_csv_unwritable_path(tmp_path):
    with pytest.raises(OSError, match="no/such/dir"):
        write_csv(_result(), str(tmp_path / "no" / "such" / "dir" / "x.csv"))


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_linearity_flags():
    cfg = parse_args(
        ["linearity", "--theta-eff", "0.04", "--points", "5", "-o", "lin.csv", "--alpha-pump", "2"]
    )
    assert cfg.experiment == "linearity"
    assert cfg.params["theta_eff"] == 0.04
    assert cfg.params["points"] == 5
    assert cfg.params["t_min"] == 0.01  # untouched default
    assert cfg.params["alpha_pump"] == 2.0
    assert cfg.output_path == "lin.csv"
    assert cfg.backend == "fock"


def test_parse_t_min_1_allowed_for_one_point():
    cfg = parse_args(["linearity", "--t-min", "1", "--points", "1"])
    assert cfg.params["t_min"] == 1.0 and cfg.params["points"] == 1


def test_parse_s_max_0_allowed_for_one_point(tmp_path):
    cfg = parse_args(["noise", "--s-max", "0", "--points", "1"])
    assert cfg.params["s_max"] == 0.0 and cfg.params["points"] == 1
    assert main(["noise", "--s-max", "0", "--points", "1", "-o", str(tmp_path / "n.csv")]) == 0


def test_parse_missing_subcommand_errors():
    with pytest.raises(SystemExit) as exc:
        parse_args([])
    assert exc.value.code == 2


def test_parse_gaussian_rejected_for_depletion(capsys):
    with pytest.raises(SystemExit):
        parse_args(["depletion", "--backend", "gaussian"])
    assert "NonGaussianDevice" in capsys.readouterr().err


def test_parse_wdm_channels():
    cfg = parse_args(["wdm", "--channel", "1.2:0.5", "--channel", "0.8:1.0:0.25"])
    assert cfg.params["channel"] == [(1.2, 0.5, 0.0), (0.8, 1.0, 0.25)]


def test_parse_config_file_then_flag_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"fringe": {"points": 32, "alpha_ref": 0.5}}))
    cfg = parse_args(["--config", str(cfgfile), "fringe", "--alpha-ref", "0.1"])
    assert cfg.params["points"] == 32  # from file
    assert cfg.params["alpha_ref"] == 0.1  # flag wins over file
    assert cfg.params["alpha_pump"] == 1.0  # builtin default


def test_parse_config_unknown_key_errors(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"noise": {"bogus": 1}}))
    with pytest.raises(SystemExit):
        parse_args(["--config", str(cfgfile), "noise"])


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_top_level_keys_serve_every_experiment(experiment, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"output": "shared.csv", "backend": "fock"}))
    cfg = parse_args(["--config", str(cfgfile), experiment])
    assert (cfg.output_path, cfg.backend) == ("shared.csv", "fock")
    argv = ["--config", str(cfgfile), experiment, "-o", "flag.csv"]
    if experiment not in FOCK_ONLY:
        argv += ["--backend", "gaussian"]
    cfg = parse_args(argv)  # explicit flags beat the file
    assert cfg.output_path == "flag.csv"
    assert cfg.backend == ("fock" if experiment in FOCK_ONLY else "gaussian")


def test_section_for_one_experiment_leaves_the_others_alone(tmp_path):
    # an experiment without a section of its own takes only the top-level
    # keys that name no experiment, so another experiment's section is no
    # unknown key
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"fringe": {"points": 32}, "output": "shared.csv"}))
    cfg = parse_args(["--config", str(cfgfile), "fringe"])
    assert cfg.params["points"] == 32 and cfg.output_path == "fringe.csv"
    cfg = parse_args(["--config", str(cfgfile), "noise"])
    assert cfg.params["points"] == 11 and cfg.output_path == "shared.csv"
    for experiment in ("noise", "fringe"):
        out = tmp_path / f"{experiment}.csv"
        argv = ["--config", str(cfgfile), experiment, "--backend", "gaussian", "-o", str(out)]
        assert main(argv) == 0
    rows = [l for l in (tmp_path / "fringe.csv").read_text().splitlines() if l[0] != "#"]
    assert len(rows) == 1 + 32  # header, then one row per phase point


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_cutoff_option_is_gone(experiment, tmp_path, capsys):
    # every run sizes its own cutoffs from the photon number its circuit
    # conserves, so neither a flag nor a config key can set one
    out = tmp_path / "x.csv"
    assert main([experiment, "--cutoff", "9", "-o", str(out)]) == 2
    assert "unrecognized arguments: --cutoff 9" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cutoff": 9}))
    assert main(["--config", str(cfgfile), experiment, "-o", str(out)]) == 2
    assert f"config key 'cutoff' unknown for experiment {experiment!r}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_channel_flag_names_the_format(capsys):
    assert main(["wdm", "--channel", "a:b"]) == 2
    err = capsys.readouterr().err
    assert "argument --channel: channel 'a:b' must be SIGNAL_FREQ:THETA[:PHI]" in err
    assert "_parse_channel" not in err


# ---------------------------------------------------------------------------
# end-to-end runs


def _read_csv(path):
    """({metadata key: value}, header, rows as a float array) of a written scan."""
    lines = path.read_text().splitlines()
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
    header, *rows = [l for l in lines if not l.startswith("#")]
    return meta, header, np.array([[float(v) for v in r.split(",")] for r in rows])


def test_main_deterministic_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["wdm", "--channel", "1.1:0.7854", "--channel", "0.9:1.5708"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_main_both_backends_writes_two_files(tmp_path):
    out = tmp_path / "lin.csv"
    rc = main(
        [
            "linearity",
            "--backend",
            "both",
            "--points",
            "5",
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    fock = tmp_path / "lin.fock.csv"
    gauss = tmp_path / "lin.gaussian.csv"
    assert fock.exists() and gauss.exists()
    assert np.max(np.abs(_read_csv(fock)[2] - _read_csv(gauss)[2])) < 1e-7


@pytest.mark.parametrize("shift, code", [(2e-7, 2), (5e-8, 0)])
def test_main_both_backends_disagreeing_exits_2(shift, code, monkeypatch, tmp_path, capsys):
    # shifted by 2e-7 the Gaussian scan is past the 1e-7 tolerance: exit 2 and one line,
    # both CSVs still written; by 5e-8 it agrees
    def shifted(*args, backend, **kwargs):
        res = run_linearity(*args, backend=backend, **kwargs)
        return res if backend == "fock" else dataclasses.replace(res, values=res.values + shift)

    monkeypatch.setattr(fconv.cli, "run_linearity", shifted)
    assert main(["linearity", "--backend", "both", "-o", str(tmp_path / "lin.csv")]) == code
    line = "fconv: backends disagree by 2.000e-07 (> 1e-07)"
    assert capsys.readouterr().err.splitlines() == ([line] if code else [])
    assert (tmp_path / "lin.fock.csv").exists() and (tmp_path / "lin.gaussian.csv").exists()


def test_main_noise_csv_content(tmp_path):
    # a Fock run records the cutoffs it sized; a Gaussian run sizes none
    metas = {}
    for backend in ("fock", "gaussian"):
        out = tmp_path / f"noise.{backend}.csv"
        assert main(["noise", "--backend", backend, "--points", "3", "-o", str(out)]) == 0
        metas[backend], header, _ = _read_csv(out)
        assert header == (
            "strength,converter_variance,amplifier_variance,amplifier_spontaneous_photons"
        )
        assert metas[backend]["backend"] == backend
    c = amplifier_required_cutoff(1.0, tail_tol=1e-10)
    assert metas["fock"]["cutoffs"] == f"signal={c};idler={c}"
    assert metas["fock"]["converter_cutoffs"] == "pump=1;idler=1"
    assert not {"cutoffs", "converter_cutoffs"} & set(metas["gaussian"])


def _fringe(phi, alpha_pump=1.0, alpha_ref=0.25, theta=np.pi / 6):
    idler = -np.sin(theta) * alpha_pump * np.exp(1j * phi)  # converter at phi_s = 0
    return np.abs(idler + alpha_ref) ** 2 / 2  # one port of the balanced combiner


def _noise(s):
    sh2 = np.sinh(s) ** 2
    return np.column_stack([np.full_like(s, 0.25), (2 * sh2 + 1) / 4, sh2])


@pytest.mark.parametrize(
    "argv, closed_form",
    [
        (["linearity", "--alpha-pump", "1e100"], lambda t: (t * 1e200 * 0.01)[:, None]),
        (["fringe", "--alpha-pump", "1e6"], lambda phi: _fringe(phi, alpha_pump=1e6)[:, None]),
        (["fringe", "--alpha-ref", "1e9"], lambda phi: _fringe(phi, alpha_ref=1e9)[:, None]),
        (["noise", "--s-max", "355"], _noise),  # sinh^2(355) ~ 5.6e307
    ],
    ids=["linearity-alpha-1e100", "fringe-alpha-1e6", "fringe-ref-1e9", "noise-s-355"],
)
def test_gaussian_runs_size_no_fock_box(argv, closed_form, tmp_path):
    # no Fock box of these amplitudes or strengths fits in memory, and the
    # Gaussian backend builds none: each column is its closed form
    out = tmp_path / "out.csv"
    assert main([*argv, "--backend", "gaussian", "-o", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert "cutoffs" not in meta
    assert np.isfinite(rows).all()
    assert np.allclose(rows[:, 1:], closed_form(rows[:, 0]), rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning before the line either
@pytest.mark.parametrize(
    "argv",
    [["noise", "--s-max", "356"], ["linearity", "--alpha-pump", "1e200"]],
    ids=["noise-s-356", "linearity-alpha-1e200"],
)
def test_result_past_the_float_range_is_one_line(argv, tmp_path, capsys):
    # cosh^2(356) and (1e200)^2 leave the float range: an error, not a column of inf
    out = tmp_path / "out.csv"
    assert main([*argv, "--backend", "gaussian", "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fconv: ") and "overflow" in err[0]
    assert not out.exists()


def test_main_error_reports_nonzero(tmp_path, capsys):
    out = tmp_path / "w.csv"
    rc = main(["wdm", "--pump-frequency", "1.0", "--channel", "1.2:0.5", "-o", str(out)])
    assert rc == 1
    assert "fconv:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 12.8 TiB"), "fconv: Unable to allocate 12.8 TiB"),
        (MemoryError(), "fconv: MemoryError"),
        # a Python int converted to float past its range raises OverflowError
        (
            OverflowError("int too large to convert to float"),
            "fconv: int too large to convert to float",
        ),
    ],
    ids=["numpy-message", "bare", "overflow"],
)
def test_failed_allocation_is_one_line_and_exit_1(exc, line, monkeypatch, tmp_path, capsys):
    # a scan too large for memory or for floats, raised where the runner allocates its state
    def runner(*args, **kwargs):
        raise exc

    monkeypatch.setattr(fconv.cli, "run_noise_comparison", runner)
    assert main(["noise", "--backend", "fock", "-o", str(tmp_path / "n.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not (tmp_path / "n.csv").exists()


def test_oversized_cutoff_is_one_line_naming_it(tmp_path, capsys):
    # s = 20 sizes an amplifier cutoff near 1.35e18: numpy refuses the (c + 1)^2 box
    cutoff = amplifier_required_cutoff(20.0, tail_tol=1e-10)
    assert main(["noise", "--s-max", "20", "-o", str(tmp_path / "n.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fconv: ") and str(cutoff) in err[0]
    assert not (tmp_path / "n.csv").exists()


def test_oversized_product_state_is_one_line_naming_it(tmp_path, capsys):
    # the pump and idler of |3e6> each fit; their (3e6 + 1)^2 product box does not
    assert main(["depletion", "--pump-photon", "3000000", "-o", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fconv: ") and "(3000000, 3000000)" in err[0]
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("experiment", ["linearity", "fringe"])
def test_amplitude_too_large_for_any_cutoff_is_one_line(experiment, tmp_path, capsys):
    # unchecked, |alpha|^2 overflows: Python's float raises "(34, 'Numerical result
    # out of range')", numpy's (fringe's hypot) warns and then fails on int(inf)
    argv = [experiment, "--alpha-pump", "1e200", "-o", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fconv: ") and "1e+200" in err[0]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, amplitude",
    [
        (["linearity", "--alpha-pump", "1e9"], 1e9),  # numpy: "Unable to allocate 6.94 EiB"
        (["linearity", "--alpha-pump", "1e10"], 1e10),  # numpy: "Maximum allowed size exceeded"
        (["fringe", "--alpha-ref", "1e9"], 1e9),  # the hypot of 1 and 1e9 rounds to 1e9
    ],
)
def test_amplitude_too_large_to_size_is_one_line_naming_it(argv, amplitude, tmp_path, capsys):
    # the Poisson table that sizes the cutoff cannot be allocated
    assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fconv: ") and str(amplitude) in err[0]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "config_text, args",
    [
        (None, "wdm"),  # --config names a missing file
        ("{not json", "wdm"),
        ("[1, 2]", "wdm"),
        ('{"wdm": [1]}', "wdm"),
        ('{"points": "x"}', "fringe"),
        ('{"points": 2.5}', "fringe"),
        ('{"alpha_pump": true}', "fringe"),
        ('{"alpha_s": 3}', "depletion"),
        ('{"alpha_s": []}', "depletion"),
        ('{"channel": [[1.1, "a"]]}', "wdm"),
        ('{"output": 5}', "wdm"),
        ('{"theta_eff": 2, "backend": "gaussian"}', "linearity"),
        ('{"theta_eff": NaN, "backend": "gaussian"}', "linearity"),
        ("{}", "linearity --backend gaussian --theta-eff 2"),
        ("{}", "linearity --backend gaussian --theta-eff -0.5"),
        ('{"points": 0}', "fringe"),
        ("{}", "fringe --points 0"),
        ("{}", "noise --backend gaussian --points 0"),
    ],
    ids=[
        "missing-file",
        "malformed-json",
        "top-level-list",
        "list-section",
        "string-points",
        "fractional-points",
        "bool-scalar",
        "scalar-alpha-s",
        "empty-alpha-s",
        "string-in-channel",
        "integer-output",
        "config-theta-eff-above-1",
        "config-theta-eff-nan",
        "flag-theta-eff-above-1",
        "flag-theta-eff-negative",
        "config-zero-points",
        "flag-zero-points",
        "flag-zero-points-noise",
    ],
)
def test_main_bad_config_is_one_line_and_exit_1(config_text, args, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    if config_text is not None:
        cfgfile.write_text(config_text)
    rc = main(["--config", str(cfgfile), *args.split(), "-o", str(tmp_path / "w.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("fconv: ") and err.count("\n") == 1
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize(
    "config, experiment, rule",
    [
        ({"alpha_s": []}, "depletion", "'alpha_s' must be a non-empty list of numbers, got []"),
        ({"backend": "fast"}, "noise", "'backend' must be one of 'fock', 'gaussian', 'both', got 'fast'"),
    ],
    ids=["empty-alpha-s", "unknown-backend"],
)
def test_config_value_errors_name_the_rule(config, experiment, rule, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    with pytest.raises(ValueError) as exc:
        parse_args(["--config", str(cfgfile), experiment])
    assert str(exc.value) == f"config {str(cfgfile)!r}: {rule}"


T_MIN_RANGE = "--t-min must lie in (0, 1), or be 1 with --points 1, got"
S_MAX_RANGE = "--s-max must be > 0, or be 0 with --points 1, got"
ALPHA_S_RANGE = "--alpha-s must be > 0 and strictly monotone, got"
WDM_SIGNAL_RANGE = ("signal frequency %s must lie strictly between 0 and a finite pump frequency, "
                    "got pump 2.0")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["linearity", "--theta-eff", "2"], "theta_eff must lie in [0, 1], got 2.0"),
        (["noise", "--points", "0"], "points must be >= 1, got 0"),
        # NaN passes every `x < 0` check; unchecked, the first ends in an all-nan
        # CSV with exit 0 and the others in "cannot convert float NaN to integer"
        (["linearity", "--noise-floor", "nan"], "--noise-floor must be finite, got nan"),
        (["fringe", "--alpha-ref", "nan"], "--alpha-ref must be finite, got nan"),
        (["noise", "--s-max", "nan"], "--s-max must be finite, got nan"),
        # unchecked, an infinite amplitude ends in an OverflowError traceback
        (["fringe", "--alpha-ref", "inf"], "--alpha-ref must be finite, got inf"),
        # unchecked, numpy's "Geometric sequence cannot include zero"
        (["linearity", "--t-min", "0"], f"{T_MIN_RANGE} 0.0"),
        # unchecked, a numpy RuntimeWarning on stderr before the error line
        (["linearity", "--t-min", "-0.5"], f"{T_MIN_RANGE} -0.5"),
        (["linearity", "--t-min", "1.5"], f"{T_MIN_RANGE} 1.5"),
        # unchecked, nine equal transmissions fail as "not strictly decreasing"
        (["linearity", "--t-min", "1"], f"{T_MIN_RANGE} 1.0"),
        # unchecked, eleven zero strengths fail as "abscissa must be strictly monotone"
        (["noise", "--s-max", "0"], f"{S_MAX_RANGE} 0.0"),
        # unchecked, the runner's "strengths must be >= 0", which names no flag
        (["noise", "--s-max", "-0.5"], f"{S_MAX_RANGE} -0.5"),
        # unchecked, every point runs before "abscissa must be strictly monotone"
        (["depletion", "--alpha-s", "2", "2"], f"{ALPHA_S_RANGE} 2.0 2.0"),
        (["depletion", "--alpha-s", "2", "4", "3"], f"{ALPHA_S_RANGE} 2.0 4.0 3.0"),
        # unchecked, the runner's "signal amplitudes must be > 0", which names no flag
        (["depletion", "--alpha-s", "0"], f"{ALPHA_S_RANGE} 0.0"),
        # unchecked, each wrote an idler at or above the 2.0 pump and exited 0
        (["wdm", "--channel", "0:0.1"], WDM_SIGNAL_RANGE % 0.0),
        (["wdm", "--channel=-1:0.1"], WDM_SIGNAL_RANGE % -1.0),
        # unchecked, argparse took -1:0.1 for an option: a usage error and exit 2
        (["wdm", "--channel", "-1:0.1"], WDM_SIGNAL_RANGE % -1.0),
    ],
    ids=[
        "theta-eff",
        "points",
        "nan-noise-floor",
        "nan-alpha-ref",
        "nan-s-max",
        "inf-alpha-ref",
        "zero-t-min",
        "negative-t-min",
        "t-min-above-1",
        "t-min-1-with-points",
        "zero-s-max",
        "negative-s-max",
        "repeated-alpha-s",
        "non-monotone-alpha-s",
        "zero-alpha-s",
        "zero-wdm-signal",
        "negative-wdm-signal",
        "negative-wdm-signal-own-word",
    ],
)
def test_range_errors_name_the_parameter(argv, message, tmp_path, capsys):
    # unchecked, both runs fail deep inside the Fock backend with unrelated messages
    assert main(argv + ["-o", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"fconv: {message}\n"


def test_config_values_take_their_flag_types(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps(
            {
                "depletion": {"alpha_s": [2, "3.5"], "pump_photon": 2.0},
                "noise": {"points": "7"},
                "wdm": {"channel": [[1.2, 0.5], [0.8, 1, 0.25]], "pump_frequency": 2},
            }
        )
    )
    cfg = parse_args(["--config", str(cfgfile), "depletion"])
    assert cfg.params["alpha_s"] == [2.0, 3.5]
    assert cfg.params["pump_photon"] == 2 and isinstance(cfg.params["pump_photon"], int)
    cfg = parse_args(["--config", str(cfgfile), "noise"])
    assert cfg.params["points"] == 7 and isinstance(cfg.params["points"], int)
    cfg = parse_args(["--config", str(cfgfile), "wdm"])
    assert cfg.params["channel"] == [(1.2, 0.5, 0.0), (0.8, 1.0, 0.25)]
    assert cfg.params["pump_frequency"] == 2.0 and isinstance(cfg.params["pump_frequency"], float)


def _as_typed(default) -> list[str]:
    """The command-line words of a table default: one per number or channel."""
    values = default if isinstance(default, list) else [default]
    return [":".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in values]


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_config_of_every_default_writes_the_default_csv(experiment, tmp_path):
    # every table parameter set to its default, once from a config file and
    # once from flags typed as --help shows them: both CSVs equal a plain run
    # byte for byte, so config values and flags convert alike
    params = EXPERIMENTS[experiment][1]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({experiment: {k: d for k, (d, _, _) in params.items()}}))
    flags = []
    for key, (default, _, _) in params.items():
        flag = "--" + key.replace("_", "-")
        words = _as_typed(default)
        flags += [a for w in words for a in (flag, w)] if key == "channel" else [flag, *words]
    runs = {"plain": [], "config": ["--config", str(cfgfile)], "flags": []}
    for name, pre in runs.items():
        post = flags if name == "flags" else []
        assert main([*pre, experiment, *post, "-o", str(tmp_path / f"{name}.csv")]) == 0
    plain = (tmp_path / "plain.csv").read_bytes()
    assert (tmp_path / "config.csv").read_bytes() == plain
    assert (tmp_path / "flags.csv").read_bytes() == plain


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_help_shows_every_parameter_and_its_default(experiment, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "120")  # wide enough that no default is split
    assert main([experiment, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    for key, (default, _, about) in EXPERIMENTS[experiment][1].items():
        assert f"--{key.replace('_', '-')} " in text
        assert f"{about}, default {' '.join(_as_typed(default))}" in text


def test_main_runs_without_scipy(tmp_path):
    # the runtime depends on numpy alone: with every scipy import made to
    # fail, all five experiments still run at their default flags, and the
    # Fock and Gaussian backends agree on every runner that has both
    # (main exits 2 when they differ by more than 1e-7)
    import fconv

    script = f"""
import sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
import fconv.cli
leaked = sorted(m for m in sys.modules if m.startswith("scipy") and sys.modules[m] is not None)
assert not leaked, leaked
runs = [[e] for e in {list(fconv.cli.EXPERIMENTS)!r}]
runs += [[e, "--backend", "both"] for e in ("linearity", "fringe", "noise")]
for argv in runs:
    rc = fconv.cli.main(argv + ["-o", "-".join(argv) + ".csv"])
    assert rc == 0, (argv, rc)
assert "numpy.ma" not in sys.modules  # np.unique would import it
"""
    src = str(Path(fconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 11
