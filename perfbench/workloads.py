"""Workload definitions: the CLI scans each workload runs, made from a seed.

A workload is a list of scans run back to back, called a pass.  Every flag
the oracle needs is passed explicitly, so the oracle never depends on the
CLI's defaults; the values equal those defaults except where the seed picks
them.  The seed picks only the converter angle and phase on `linearity` and
`fringe`, which leave every auto-sized cutoff, and so the work, unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("noise-fock", "linearity-fock", "light-scans")

# Pinned fidelities of the default depletion scan (alpha_s -> fidelity).
DEPLETION_PINNED = {
    2.0: 0.8687298342661054,
    3.0: 0.9363373331035082,
    4.0: 0.9630301112360883,
    5.0: 0.975982310979377,
}


@dataclass(frozen=True)
class Scan:
    """One CLI invocation: the experiment, its backend and its flags."""

    experiment: str
    backend: str
    params: tuple[tuple[str, object], ...]
    points: int

    def param(self, name):
        return dict(self.params)[name]

    def argv(self, output: str, backend: str | None = None) -> list[str]:
        args = [self.experiment, "--backend", backend or self.backend, "-o", output]
        for name, value in self.params:
            flag = "--" + name.replace("_", "-")
            if name == "channel":
                for chan in value:
                    args += [flag, ":".join(repr(v) for v in chan)]
            elif isinstance(value, tuple):
                args += [flag, *(repr(v) for v in value)]
            else:
                args += [flag, repr(value)]
        return args

    @property
    def label(self) -> str:
        return f"{self.experiment}-{self.backend}"


def _linearity(rng: random.Random, backend: str) -> Scan:
    params = (
        ("theta_eff", rng.uniform(0.005, 0.02)),
        ("points", 9),
        ("t_min", 0.01),
        ("alpha_pump", 1.0),
    )
    return Scan("linearity", backend, params, 9)


def _fringe(rng: random.Random) -> Scan:
    params = (
        ("points", 64),
        ("alpha_pump", 1.0),
        ("alpha_ref", 0.25),
        ("theta", rng.uniform(0.3, 1.2)),
        ("phi_s", rng.uniform(0.0, 2 * math.pi)),
    )
    return Scan("fringe", "gaussian", params, 64)


def _noise(backend: str, points: int, s_max: float = 1.0) -> Scan:
    return Scan("noise", backend, (("s_max", s_max), ("points", points)), points)


def make_pass(workload: str, seed: int) -> list[Scan]:
    """The scans of one pass of `workload`; the same seed gives the same scans."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "noise-fock":
        # s_max 0.75 sizes the auto cutoff at 25 (dim 676), so a scan of two
        # points (s = 0 and s_max) takes a few tenths of a second and a run
        # holds ~100 of them; the per-point cost is set by the cutoff alone.
        return [_noise("fock", 2, s_max=0.75)]
    if workload == "linearity-fock":
        return [_linearity(rng, "fock")]
    if workload == "light-scans":
        depletion = (
            ("alpha_s", tuple(DEPLETION_PINNED)),
            ("theta", math.pi / 2),
            ("pump_photon", 1),
        )
        wdm = (
            ("pump_frequency", 2.0),
            ("channel", ((1.1, math.pi / 4), (0.9, math.pi / 2))),
        )
        return [
            _linearity(rng, "gaussian"),
            _fringe(rng),
            _noise("gaussian", 11),
            Scan("depletion", "fock", depletion, len(DEPLETION_PINNED)),
            Scan("wdm", "fock", wdm, 2),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
