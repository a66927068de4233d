"""Command-line front end: one subcommand per experiment, CSV output.

Every run is deterministic: identical flags produce byte-identical files.
`EXPERIMENTS` holds one row per experiment: its parameters, each declared
once (the flags, their defaults and help, and the types of config-file values
all follow from it), and the runner call.  Every Fock cutoff is sized by the
backend from the photon number the circuit conserves; no flag overrides it.
An optional JSON config file supplies defaults: the experiment's own section,
or else the top-level keys that name no experiment.  Explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
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

FOCK_ONLY = ("depletion", "wdm")
BACKEND_AGREEMENT_TOL = 1e-7


@dataclass
class RunConfig:
    experiment: str
    backend: str
    params: dict
    output_path: str


def write_csv(result: ScanResult, path: str) -> None:
    """Serialize a ScanResult.

    Layout: '# key=value' metadata comments sorted by key, a header row, then
    data rows with shortest round-trip float representations and LF endings.
    """
    lines = [f"# {k}={result.metadata[k]}" for k in sorted(result.metadata)]
    lines.append(",".join((result.abscissa_label,) + result.column_labels))
    for row in np.column_stack((result.abscissa, result.values)).tolist():
        lines.append(",".join(map(repr, row)))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write scan result to {path!r}: {exc}") from exc


# Conversions of config-file values; each rejects what its flag would reject.
def _int(v) -> int:
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError
    return int(v)


def _float(v) -> float:
    if isinstance(v, bool):
        raise ValueError
    return float(v)


def _floats(v) -> list[float]:
    if not isinstance(v, list) or not v:  # nargs="+" rejects an empty list too
        raise ValueError
    return [_float(x) for x in v]


def _channels(v) -> list[tuple[float, float, float]]:
    chans = [_floats(c) for c in v] if isinstance(v, list) else []
    if not chans or any(len(c) not in (2, 3) for c in chans):
        raise ValueError
    return [(*c, 0.0)[:3] for c in chans]  # PHI defaults to 0


def _text(v) -> str:
    if not isinstance(v, str):
        raise ValueError
    return v


def _parse_channel(text: str):
    try:
        return _channels([text.split(":")])[0]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"channel {text!r} must be SIGNAL_FREQ:THETA[:PHI]"
        ) from None


# Flag kinds: (config-file conversion, what a config value must be, add_argument keywords).
_INT = (_int, "an integer", {"type": int})
_NUMBER = (_float, "a number", {"type": float})
_NUMBERS = (_floats, "a non-empty list of numbers", {"type": float, "nargs": "+"})
_CHANNELS = (_channels, "a list of [SIGNAL_FREQ, THETA] or [SIGNAL_FREQ, THETA, PHI] lists",
             {"type": _parse_channel, "action": "append"})
_BACKEND = (_text, "one of 'fock', 'gaussian', 'both'", {"choices": ("fock", "gaussian", "both")})

# experiment -> (subcommand help, {parameter: (default, flag kind, help)},
# run(params, backend) -> ScanResult).  A parameter is the flag --<name with
# '-' for '_'> and the config key <name>.  Each run names its runner at call
# time, so a wrapper bound to this module's name (such as the benchmark
# tracer) sees the call.
EXPERIMENTS = {
    "linearity": ("idler output vs pump attenuation", {
        "theta_eff": (0.01, _NUMBER, "conversion efficiency sin^2(theta)"),
        "points": (9, _INT, "number of transmissions"),
        "t_min": (0.01, _NUMBER, "smallest transmission"),
        "alpha_pump": (1.0, _NUMBER, "pump coherent amplitude"),
        "noise_floor": (0.0, _NUMBER, "constant detector floor"),
    }, lambda p, backend: run_linearity(
        np.geomspace(1.0, p["t_min"], p["points"]), float(np.arcsin(np.sqrt(p["theta_eff"]))),
        p["alpha_pump"], p["noise_floor"], backend=backend,
    )),
    "fringe": ("interference fringe under pump-phase scan", {
        "points": (64, _INT, "number of phase points"),
        "alpha_pump": (1.0, _NUMBER, "pump amplitude"),
        "alpha_ref": (0.25, _NUMBER, "reference amplitude"),
        "theta": (float(np.pi / 6), _NUMBER, "converter angle"),
        "phi_s": (0.0, _NUMBER, "converter phase"),
    }, lambda p, backend: run_fringe(
        np.linspace(0.0, 2 * np.pi, p["points"], endpoint=False),
        p["alpha_pump"], p["alpha_ref"], p["theta"], p["phi_s"], backend=backend,
    )),
    "noise": ("converter vs amplifier idler noise", {
        "s_max": (1.0, _NUMBER, "largest interaction strength"),
        "points": (11, _INT, "number of strengths"),
    }, lambda p, backend: run_noise_comparison(
        np.linspace(0.0, p["s_max"], p["points"]), backend=backend,
    )),
    "depletion": ("trilinear convergence to the converter", {
        "alpha_s": ([2.0, 3.0, 4.0, 5.0], _NUMBERS, "signal amplitudes"),
        "theta": (float(np.pi / 2), _NUMBER, "target converter angle"),
        "pump_photon": (1, _INT, "pump Fock input |n>"),
    }, lambda p, _: run_depletion_convergence(p["alpha_s"], p["theta"], make_fock(
        ModeRegistry([("pump", 2.0, max(p["pump_photon"], 1))]), [p["pump_photon"]],
    ))),
    "wdm": ("single-photon wavelength division multiplexing", {
        "pump_frequency": (2.0, _NUMBER, "pump frequency"),
        "channel": ([(1.1, float(np.pi / 4), 0.0), (0.9, float(np.pi / 2), 0.0)], _CHANNELS,
                    "SIGNAL_FREQ:THETA[:PHI], repeatable"),
    }, lambda p, _: run_wdm(WdmSpec(p["pump_frequency"], tuple(p["channel"])))[0]),
}

# run key -> (default, flag kind, help), taken by every experiment; the None
# output default is worked out per run, as its help says
_RUN_KEYS = {
    "output": (None, (_text, "a string", {}), "output CSV path (default <experiment>.csv)"),
    "backend": ("fock", _BACKEND, "state representation ('both' cross-validates)"),
}


def _shown(value) -> str:
    """A default as it is typed on the command line."""
    if isinstance(value, list):
        return " ".join(map(_shown, value))
    return ":".join(map(str, value)) if isinstance(value, tuple) else str(value)


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
    for name, (about, params, _) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=about)
        for key, (default, (_, _, flag_kw), text) in {**_RUN_KEYS, **params}.items():
            flags = ("-o", "--output") if key == "output" else ("--" + key.replace("_", "-"),)
            if default is not None:
                text += f", default {_shown(default)}"
            p.add_argument(*flags, help=text, **flag_kw)
    return parser


def _read_config(path: str, experiment: str) -> dict:
    """The file's section for ``experiment``, or else its keys that name no experiment."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from None
    section = raw.get(experiment, raw) if isinstance(raw, dict) else raw
    if not isinstance(section, dict):
        raise ValueError(f"config {path!r}: expected a JSON object, got {type(section).__name__}")
    if section is raw:  # no section of its own; other experiments' sections are not keys
        section = {k: v for k, v in raw.items() if k not in EXPERIMENTS}
    return section


def _typed(path: str, key: str, kind, val):
    """A config file value converted like the value of its flag."""
    convert, what, flag_kw = kind
    try:
        typed = convert(val)
        if typed in flag_kw.get("choices", (typed,)):
            return typed
    except (TypeError, ValueError):
        pass
    raise ValueError(f"config {path!r}: {key!r} must be {what}, got {val!r}")


def _joined_channels(argv) -> list[str]:
    """Each ``--channel VALUE`` as ``--channel=VALUE``: argparse takes a VALUE that
    starts with '-', such as -1:0.1, for an option, not for the flag's value."""
    args = []
    for arg in argv:
        if args and args[-1] == "--channel":
            args[-1] += "=" + arg
        else:
            args.append(arg)
    return args


def parse_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(_joined_channels(argv))
    if ns.experiment is None:
        parser.error("missing experiment subcommand (one of: " + ", ".join(EXPERIMENTS) + ")")

    table = {**_RUN_KEYS, **EXPERIMENTS[ns.experiment][1]}
    params = {key: default for key, (default, _, _) in table.items()}
    if ns.config:
        for key, val in _read_config(ns.config, ns.experiment).items():
            if key not in table:
                parser.error(f"config key {key!r} unknown for experiment {ns.experiment!r}")
            if val is not None:  # null keeps the default
                params[key] = _typed(ns.config, key, table[key][1], val)
    for key in params:  # a flag beats the config file
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            params[key] = flag_val

    backend = params.pop("backend")
    output = params.pop("output") or f"{ns.experiment}.csv"
    if ns.experiment in FOCK_ONLY and backend != "fock":
        parser.error(
            f"--backend {backend} is not available for {ns.experiment}: "
            "the scenario is non-Gaussian (NonGaussianDevice)"
        )
    for key, val in params.items():  # NaN passes `x < 0` checks; inf overflows int()
        if not np.isfinite(np.asarray(val, dtype=float)).all():
            raise ValueError(f"--{key.replace('_', '-')} must be finite, got {val!r}")
    if params.get("points", 1) < 1:
        raise ValueError(f"points must be >= 1, got {params['points']}")
    t_min = params.get("t_min", 0.5)  # geomspace(1, t_min, points) must strictly decrease
    if not (0.0 < t_min < 1.0 or t_min == 1.0 and params["points"] == 1):
        raise ValueError(f"--t-min must lie in (0, 1), or be 1 with --points 1, got {t_min}")
    s_max = params.get("s_max", 1.0)  # linspace(0, s_max, points) must strictly increase
    if not (s_max > 0.0 or s_max == 0.0 and params["points"] == 1):
        raise ValueError(f"--s-max must be > 0, or be 0 with --points 1, got {s_max}")
    alpha_s = params.get("alpha_s", [1.0])  # depletion's abscissa
    ordered = sorted(set(alpha_s))  # strictly monotone: alpha_s is this or its reverse
    if ordered[0] <= 0.0 or ordered not in (alpha_s, alpha_s[::-1]):
        raise ValueError(f"--alpha-s must be > 0 and strictly monotone, got {_shown(alpha_s)}")
    if not 0.0 <= params.get("theta_eff", 0.0) <= 1.0:
        raise ValueError(f"theta_eff must lie in [0, 1], got {params['theta_eff']}")
    return RunConfig(ns.experiment, backend, params, output)


def _suffixed(path: str, tag: str) -> str:
    return path.removesuffix(".csv") + f".{tag}.csv"


@np.errstate(over="raise", invalid="raise")  # an inf or nan result ends the run
def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        run = EXPERIMENTS[cfg.experiment][2]
        if cfg.backend == "both":
            res_f = run(cfg.params, "fock")
            res_g = run(cfg.params, "gaussian")
            write_csv(res_f, _suffixed(cfg.output_path, "fock"))
            write_csv(res_g, _suffixed(cfg.output_path, "gaussian"))
            dev = float(np.max(np.abs(res_f.values - res_g.values)))
            if dev > BACKEND_AGREEMENT_TOL:
                print(
                    f"fconv: backends disagree by {dev:.3e} (> {BACKEND_AGREEMENT_TOL})",
                    file=sys.stderr,
                )
                return 2
            return 0
        write_csv(run(cfg.params, cfg.backend), cfg.output_path)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (FconvError, OSError, ValueError, MemoryError, ArithmeticError) as exc:
        print(f"fconv: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
