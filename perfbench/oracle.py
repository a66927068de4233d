"""Independent oracles for the CSV each scan writes.

Each check reads the written file back and compares it with a closed form,
a pinned value and, for Fock linearity scans, the Gaussian backend.  A
check returns None when the file is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import DEPLETION_PINNED, Scan

NOISE_TOL = 1e-8
LINEARITY_TOL = 1e-7
FRINGE_TOL = 1e-7
DEPLETION_TOL = 1e-9
WDM_TOL = 1e-10
ABSCISSA_TOL = 1e-12


@dataclass(frozen=True)
class Table:
    metadata: dict[str, str]
    abscissa: np.ndarray
    values: np.ndarray  # one row per point, one column per value label


def read_csv(text: str) -> Table:
    lines = text.splitlines()
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    columns = len(lines[0].split(","))
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    rows = rows.reshape(len(lines) - 1, columns)
    return Table(meta, rows[:, 0], rows[:, 1:])


def _depletion_signal_cutoffs(alphas) -> list[int] | None:
    """The signal cutoff the depletion runner sizes for each amplitude.

    Its CSV records only the pump and idler registry.  None if fconv no
    longer exposes the sizing rule under these names.
    """
    try:
        from fconv.experiments import DEPLETION_SIGNAL_CUTOFF_FLOOR
        from fconv.fock import coherent_required_cutoff
    except ImportError:
        return None
    return [max(DEPLETION_SIGNAL_CUTOFF_FLOOR, coherent_required_cutoff(a)) for a in alphas]


def problem_size(scan: Scan, table: Table) -> dict | None:
    """Cutoffs and largest Hilbert dimension of a Fock scan; None otherwise.

    The Gaussian backend ignores the cutoffs its CSV records, so no Fock
    space of that size is built.
    """
    if scan.backend != "fock":
        return None
    cutoffs = {k: int(c) for k, c in (item.split("=") for item in table.metadata["cutoffs"].split(";"))}
    dim = math.prod(c + 1 for c in cutoffs.values())
    if scan.experiment == "depletion":
        signal = _depletion_signal_cutoffs(scan.param("alpha_s"))
        cutoffs["signal"] = signal
        dim = None if signal is None else dim * (max(signal) + 1)
    return {"cutoffs": cutoffs, "dim": dim}


def _expected(scan: Scan) -> tuple[np.ndarray, np.ndarray, float]:
    """(abscissa, values, tolerance) the scan must reproduce."""
    p = scan.param
    if scan.experiment == "noise":
        s = np.linspace(0.0, p("s_max"), p("points"))
        sh2 = np.sinh(s) ** 2
        values = np.column_stack([np.full_like(s, 0.25), (2 * sh2 + 1) / 4, sh2])
        return s, values, NOISE_TOL
    if scan.experiment == "linearity":
        t = np.geomspace(1.0, p("t_min"), p("points"))
        return t, (t * abs(p("alpha_pump")) ** 2 * p("theta_eff"))[:, None], LINEARITY_TOL
    if scan.experiment == "fringe":
        phi = np.linspace(0.0, 2 * np.pi, p("points"), endpoint=False)
        # converter: a_i -> -e^{-i phi_s} sin(theta) a_p; 50:50 combiner with the reference
        idler = -np.exp(-1j * p("phi_s")) * np.sin(p("theta")) * p("alpha_pump") * np.exp(1j * phi)
        return phi, (np.abs(idler + p("alpha_ref")) ** 2 / 2)[:, None], FRINGE_TOL
    if scan.experiment == "depletion":
        alphas = np.array(p("alpha_s"))
        return alphas, np.array([DEPLETION_PINNED[a] for a in p("alpha_s")])[:, None], DEPLETION_TOL
    if scan.experiment == "wdm":
        chans = p("channel")
        probs, survive = [], 1.0
        for _, theta in chans:  # product rule: sin^2(theta_k) * prod_{j<k} cos^2(theta_j)
            probs.append(survive * math.sin(theta) ** 2)
            survive *= math.cos(theta) ** 2
        idler_f = [p("pump_frequency") - f for f, _ in chans]
        return np.arange(1.0, len(chans) + 1), np.column_stack([idler_f, probs]), WDM_TOL
    raise ValueError(f"no oracle for {scan.experiment!r}")


def _compare(table: Table, xs, ys, tol, what: str) -> str | None:
    if table.values.shape != ys.shape:
        return f"{what}: shape {table.values.shape}, expected {ys.shape}"
    if not np.allclose(table.abscissa, xs, rtol=ABSCISSA_TOL, atol=ABSCISSA_TOL):
        return f"{what}: abscissa differs from the requested grid"
    err = np.abs(table.values - ys)
    bad = ~(err <= tol)  # NaN counts as bad
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        return f"{what}: row {row} off by {err[row].max():.3e} (tolerance {tol:g})"
    return None


def check(scan: Scan, text: str, gaussian_text: str | None = None) -> str | None:
    """None if the CSV `text` is right for `scan`, else the reason it is not.

    `gaussian_text` is the same scan's CSV from the Gaussian backend; a Fock
    linearity scan must also agree with it.
    """
    try:
        table = read_csv(text)
        ref = None if gaussian_text is None else read_csv(gaussian_text)
    except (ValueError, IndexError) as exc:
        return f"{scan.label}: unreadable CSV ({exc})"
    xs, ys, tol = _expected(scan)
    reason = _compare(table, xs, ys, tol, f"{scan.label} vs closed form")
    if reason is None and ref is not None:
        reason = _compare(table, ref.abscissa, ref.values, tol, f"{scan.label} vs gaussian")
    return reason


def needs_gaussian_reference(scan: Scan) -> bool:
    return scan.backend == "fock" and scan.experiment == "linearity"
