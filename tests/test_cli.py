import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fconv import ScanResult
from fconv.cli import main, parse_args, write_csv


def _result():
    return ScanResult(
        name="demo",
        abscissa_label="x",
        column_labels=("y", "z"),
        rows=((0.1, (1.0, 0.5)), (0.2, (2.0, 1.0 / 3.0))),
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
        ["linearity", "--theta-eff", "0.04", "--points", "5", "-o", "lin.csv", "--cutoff", "12"]
    )
    assert cfg.experiment == "linearity"
    assert cfg.params["theta_eff"] == 0.04
    assert cfg.params["points"] == 5
    assert cfg.params["t_min"] == 0.01  # untouched default
    assert cfg.cutoff == 12
    assert cfg.output_path == "lin.csv"
    assert cfg.backend == "fock"


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


def test_env_default_cutoff(monkeypatch):
    monkeypatch.setenv("FCONV_DEFAULT_CUTOFF", "7")
    cfg = parse_args(["fringe"])
    assert cfg.cutoff == 7
    cfg = parse_args(["fringe", "--cutoff", "9"])
    assert cfg.cutoff == 9  # explicit flag beats the environment


def test_negative_cutoff_rejected():
    with pytest.raises(SystemExit):
        parse_args(["fringe", "--cutoff", "0"])


# ---------------------------------------------------------------------------
# end-to-end runs


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

    def column(path):
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        return np.array([[float(v) for v in r.split(",")] for r in rows])

    assert np.max(np.abs(column(fock) - column(gauss))) < 1e-7


def test_main_noise_csv_content(tmp_path):
    out = tmp_path / "noise.csv"
    assert main(["noise", "--backend", "gaussian", "--points", "3", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "strength,converter_variance,amplifier_variance,amplifier_spontaneous_photons"
    meta = {l[2:].split("=")[0] for l in lines if l.startswith("# ")}
    assert "backend" in meta and "cutoffs" in meta


def test_main_error_reports_nonzero(tmp_path, capsys):
    out = tmp_path / "w.csv"
    rc = main(["wdm", "--pump-frequency", "1.0", "--channel", "1.2:0.5", "-o", str(out)])
    assert rc == 1
    assert "fconv:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_text, env_cutoff, args",
    [
        (None, None, "wdm"),  # --config names a missing file
        ("{not json", None, "wdm"),
        ("[1, 2]", None, "wdm"),
        ('{"wdm": [1]}', None, "wdm"),
        ('{"wdm": {}}', "abc", "wdm"),
        ('{"cutoff": "abc"}', None, "fringe"),
        ('{"points": "x"}', None, "fringe"),
        ('{"points": 2.5}', None, "fringe"),
        ('{"alpha_pump": true}', None, "fringe"),
        ('{"alpha_s": 3}', None, "depletion"),
        ('{"channel": [[1.1, "a"]]}', None, "wdm"),
        ('{"output": 5}', None, "wdm"),
        ('{"theta_eff": 2, "backend": "gaussian"}', None, "linearity"),
        ('{"theta_eff": NaN, "backend": "gaussian"}', None, "linearity"),
        ("{}", None, "linearity --backend gaussian --theta-eff 2"),
        ("{}", None, "linearity --backend gaussian --theta-eff -0.5"),
        ('{"points": 0}', None, "fringe"),
        ("{}", None, "fringe --points 0"),
        ("{}", None, "noise --backend gaussian --points 0"),
    ],
    ids=[
        "missing-file",
        "malformed-json",
        "top-level-list",
        "list-section",
        "env-cutoff",
        "string-cutoff",
        "string-points",
        "fractional-points",
        "bool-scalar",
        "scalar-alpha-s",
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
def test_main_bad_config_is_one_line_and_exit_1(
    config_text, env_cutoff, args, tmp_path, monkeypatch, capsys
):
    cfgfile = tmp_path / "cfg.json"
    if config_text is not None:
        cfgfile.write_text(config_text)
    if env_cutoff is not None:
        monkeypatch.setenv("FCONV_DEFAULT_CUTOFF", env_cutoff)
    rc = main(["--config", str(cfgfile), *args.split(), "-o", str(tmp_path / "w.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("fconv: ") and err.count("\n") == 1
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["linearity", "--theta-eff", "2"], "theta_eff must lie in [0, 1], got 2.0"),
        (["noise", "--points", "0"], "points must be >= 1, got 0"),
    ],
    ids=["theta-eff", "points"],
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
                "depletion": {"alpha_s": [2, "3.5"], "pump_photon": 2.0, "cutoff": "9"},
                "wdm": {"channel": [[1.2, 0.5], [0.8, 1, 0.25]], "pump_frequency": 2},
            }
        )
    )
    cfg = parse_args(["--config", str(cfgfile), "depletion"])
    assert cfg.params["alpha_s"] == [2.0, 3.5]
    assert cfg.params["pump_photon"] == 2 and isinstance(cfg.params["pump_photon"], int)
    assert cfg.cutoff == 9
    cfg = parse_args(["--config", str(cfgfile), "wdm"])
    assert cfg.params["channel"] == [(1.2, 0.5, 0.0), (0.8, 1.0, 0.25)]
    assert cfg.params["pump_frequency"] == 2.0 and isinstance(cfg.params["pump_frequency"], float)


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
"""
    src = str(Path(fconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 11
