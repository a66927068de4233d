"""Command-line front end: one subcommand per experiment, CSV output.

Every run is deterministic: identical flags produce byte-identical files.
An optional JSON config file supplies defaults; explicit flags win.  The
environment variable FCONV_DEFAULT_CUTOFF sets the default Fock cutoff.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FconvError
from .experiments import (
    ScanResult,
    WdmSpec,
    run_depletion_convergence,
    run_fringe,
    run_linearity,
    run_noise_comparison,
    run_wdm,
)
from .fock import make_fock
from .registry import ModeRegistry

EXPERIMENTS = ("linearity", "fringe", "noise", "depletion", "wdm")
FOCK_ONLY = ("depletion", "wdm")
BACKEND_AGREEMENT_TOL = 1e-7


@dataclass
class RunConfig:
    experiment: str
    backend: str
    cutoff: int | None
    params: dict
    output_path: str


def write_csv(result: ScanResult, path: str) -> None:
    """Serialize a ScanResult.

    Layout: '# key=value' metadata comments sorted by key, a header row, then
    data rows with shortest round-trip float representations and LF endings.
    """
    lines = [f"# {k}={result.metadata[k]}" for k in sorted(result.metadata)]
    lines.append(",".join((result.abscissa_label,) + result.column_labels))
    for a, vals in result.rows:
        lines.append(",".join(repr(float(v)) for v in (a, *vals)))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write scan result to {path!r}: {exc}") from exc


def _parse_channel(text: str):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"channel {text!r} must be SIGNAL_FREQ:THETA[:PHI]"
        )
    f, t = float(parts[0]), float(parts[1])
    p = float(parts[2]) if len(parts) == 3 else 0.0
    return (f, t, p)


@functools.cache  # built on first use, not at import; parse_args reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fconv",
        description="Deterministic frequency down-conversion scans, written as CSV.",
    )
    parser.add_argument(
        "--config", help="JSON file with per-experiment default parameters"
    )
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")

    def common(p):
        p.add_argument("-o", "--output", help="output CSV path (default <experiment>.csv)")
        p.add_argument(
            "--backend",
            choices=("fock", "gaussian", "both"),
            help="state representation (default fock; 'both' cross-validates)",
        )
        p.add_argument(
            "--cutoff",
            type=int,
            help="Fock cutoff override (default: auto, or $FCONV_DEFAULT_CUTOFF)",
        )

    p = sub.add_parser("linearity", help="idler output vs pump attenuation")
    common(p)
    p.add_argument("--theta-eff", type=float, help="conversion efficiency sin^2(theta), default 0.01")
    p.add_argument("--points", type=int, help="number of transmissions, default 9")
    p.add_argument("--t-min", type=float, help="smallest transmission, default 0.01")
    p.add_argument("--alpha-pump", type=float, help="pump coherent amplitude, default 1.0")
    p.add_argument("--noise-floor", type=float, help="constant detector floor, default 0")

    p = sub.add_parser("fringe", help="interference fringe under pump-phase scan")
    common(p)
    p.add_argument("--points", type=int, help="number of phase points, default 64")
    p.add_argument("--alpha-pump", type=float, help="pump amplitude, default 1.0")
    p.add_argument("--alpha-ref", type=float, help="reference amplitude, default 0.25")
    p.add_argument("--theta", type=float, help="converter angle, default 0.5236 (pi/6)")
    p.add_argument("--phi-s", type=float, help="converter phase, default 0")

    p = sub.add_parser("noise", help="converter vs amplifier idler noise")
    common(p)
    p.add_argument("--s-max", type=float, help="largest interaction strength, default 1.0")
    p.add_argument("--points", type=int, help="number of strengths, default 11")

    p = sub.add_parser("depletion", help="trilinear convergence to the converter")
    common(p)
    p.add_argument(
        "--alpha-s", type=float, nargs="+", help="signal amplitudes, default 2 3 4 5"
    )
    p.add_argument("--theta", type=float, help="target converter angle, default pi/2")
    p.add_argument("--pump-photon", type=int, help="pump Fock input |n>, default 1")

    p = sub.add_parser("wdm", help="single-photon wavelength division multiplexing")
    common(p)
    p.add_argument("--pump-frequency", type=float, help="pump frequency, default 2.0")
    p.add_argument(
        "--channel",
        action="append",
        type=_parse_channel,
        help="SIGNAL_FREQ:THETA[:PHI], repeatable; default 1.1:0.7854 0.9:1.5708",
    )
    return parser


_DEFAULTS = {
    "linearity": {
        "theta_eff": 0.01,
        "points": 9,
        "t_min": 0.01,
        "alpha_pump": 1.0,
        "noise_floor": 0.0,
    },
    "fringe": {
        "points": 64,
        "alpha_pump": 1.0,
        "alpha_ref": 0.25,
        "theta": float(np.pi / 6),
        "phi_s": 0.0,
    },
    "noise": {"s_max": 1.0, "points": 11},
    "depletion": {"alpha_s": [2.0, 3.0, 4.0, 5.0], "theta": float(np.pi / 2), "pump_photon": 1},
    "wdm": {
        "pump_frequency": 2.0,
        "channel": [(1.1, float(np.pi / 4), 0.0), (0.9, float(np.pi / 2), 0.0)],
    },
}


def _read_config(path: str, experiment: str) -> dict:
    """The file's section for ``experiment``, or the whole file if it has none."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from None
    section = raw.get(experiment, raw) if isinstance(raw, dict) else raw
    if not isinstance(section, dict):
        raise ValueError(f"config {path!r}: expected a JSON object, got {type(section).__name__}")
    return section


def _int(v) -> int:
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError
    return int(v)


def _float(v) -> float:
    if isinstance(v, bool):
        raise ValueError
    return float(v)


def _floats(v) -> list[float]:
    if not isinstance(v, list):
        raise ValueError
    return [_float(x) for x in v]


def _channels(v) -> list[tuple[float, float, float]]:
    chans = [_floats(c) for c in v] if isinstance(v, list) else []
    if not chans or any(len(c) not in (2, 3) for c in chans):
        raise ValueError
    return [(*c, 0.0)[:3] for c in chans]  # PHI defaults to 0, as in --channel


def _backend(v) -> str:
    if v not in ("fock", "gaussian", "both"):
        raise ValueError
    return v


def _text(v) -> str:
    if not isinstance(v, str):
        raise ValueError
    return v


# config key -> (conversion matching the key's flag, what the key must be);
# every other key is a float scalar
_CONFIG_TYPES = {
    "cutoff": (_int, "an integer"),
    "points": (_int, "an integer"),
    "pump_photon": (_int, "an integer"),
    "alpha_s": (_floats, "a list of numbers"),
    "channel": (_channels, "a list of [SIGNAL_FREQ, THETA] or [SIGNAL_FREQ, THETA, PHI] lists"),
    "backend": (_backend, "one of 'fock', 'gaussian', 'both'"),
    "output": (_text, "a string"),
}
_RUN_KEYS = ("backend", "cutoff", "output")


def _typed(path: str, key: str, val):
    """A config file value converted like the value of its flag."""
    convert, what = _CONFIG_TYPES.get(key, (_float, "a number"))
    try:
        return convert(val)
    except (TypeError, ValueError):
        raise ValueError(f"config {path!r}: {key!r} must be {what}, got {val!r}") from None


def parse_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.experiment is None:
        parser.error("missing experiment subcommand (one of: " + ", ".join(EXPERIMENTS) + ")")

    params = dict(_DEFAULTS[ns.experiment])
    file_cfg = {}
    if ns.config:
        for key, val in _read_config(ns.config, ns.experiment).items():
            if key not in params and key not in _RUN_KEYS:
                parser.error(f"config key {key!r} unknown for experiment {ns.experiment!r}")
            if val is not None:  # null keeps the default
                file_cfg[key] = _typed(ns.config, key, val)
    params.update((k, v) for k, v in file_cfg.items() if k in params)
    for key in params:
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            params[key] = flag_val

    backend = ns.backend or file_cfg.get("backend") or "fock"
    if ns.experiment in FOCK_ONLY and backend != "fock":
        parser.error(
            f"--backend {backend} is not available for {ns.experiment}: "
            "the scenario is non-Gaussian (NonGaussianDevice)"
        )
    cutoff = ns.cutoff if ns.cutoff is not None else file_cfg.get("cutoff")
    if cutoff is None:
        env = os.environ.get("FCONV_DEFAULT_CUTOFF")
        try:
            cutoff = int(env) if env else None
        except ValueError:
            raise ValueError(f"FCONV_DEFAULT_CUTOFF={env!r} is not an integer") from None
    if cutoff is not None and cutoff < 1:
        parser.error(f"cutoff must be >= 1, got {cutoff}")
    if params.get("points", 1) < 1:
        raise ValueError(f"points must be >= 1, got {params['points']}")
    if not 0.0 <= params.get("theta_eff", 0.0) <= 1.0:
        raise ValueError(f"theta_eff must lie in [0, 1], got {params['theta_eff']}")
    output = ns.output or file_cfg.get("output") or f"{ns.experiment}.csv"
    return RunConfig(ns.experiment, backend, cutoff, params, output)


def _run_one(cfg: RunConfig, backend: str) -> ScanResult:
    p = cfg.params
    if cfg.experiment == "linearity":
        theta = float(np.arcsin(np.sqrt(p["theta_eff"])))
        transmissions = np.geomspace(1.0, p["t_min"], p["points"])
        return run_linearity(
            transmissions,
            theta,
            p["alpha_pump"],
            p["noise_floor"],
            backend=backend,
            cutoff=cfg.cutoff,
        )
    if cfg.experiment == "fringe":
        phis = np.linspace(0.0, 2 * np.pi, p["points"], endpoint=False)
        return run_fringe(
            phis,
            p["alpha_pump"],
            p["alpha_ref"],
            p["theta"],
            p["phi_s"],
            backend=backend,
            cutoff=cfg.cutoff,
        )
    if cfg.experiment == "noise":
        strengths = np.linspace(0.0, p["s_max"], p["points"])
        return run_noise_comparison(strengths, backend=backend, cutoff=cfg.cutoff)
    if cfg.experiment == "depletion":
        n = p["pump_photon"]
        reg = ModeRegistry([("pump", 2.0, max(n, 1))])
        pump = make_fock(reg, [n])
        return run_depletion_convergence(
            p["alpha_s"], p["theta"], pump, signal_cutoff=cfg.cutoff
        )
    if cfg.experiment == "wdm":
        spec = WdmSpec(p["pump_frequency"], tuple(p["channel"]))
        result, _ = run_wdm(spec)
        return result
    raise ValueError(cfg.experiment)


def _suffixed(path: str, tag: str) -> str:
    if path.endswith(".csv"):
        return path[: -len(".csv")] + f".{tag}.csv"
    return path + f".{tag}.csv"


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        if cfg.backend == "both":
            res_f = _run_one(cfg, "fock")
            res_g = _run_one(cfg, "gaussian")
            write_csv(res_f, _suffixed(cfg.output_path, "fock"))
            write_csv(res_g, _suffixed(cfg.output_path, "gaussian"))
            yf = np.array([vals for _, vals in res_f.rows])
            yg = np.array([vals for _, vals in res_g.rows])
            dev = float(np.max(np.abs(yf - yg)))
            if dev > BACKEND_AGREEMENT_TOL:
                print(
                    f"fconv: backends disagree by {dev:.3e} (> {BACKEND_AGREEMENT_TOL})",
                    file=sys.stderr,
                )
                return 2
            return 0
        result = _run_one(cfg, cfg.backend)
        write_csv(result, cfg.output_path)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (FconvError, OSError, ValueError) as exc:
        print(f"fconv: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
