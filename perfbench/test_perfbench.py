"""Tests of the benchmark's own oracle, tracer and metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
from pathlib import Path

import fconv.cli
import fconv.devices
import fconv.fock
import pytest

import oracle
import run
import worker
from spans import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, make_pass

ROOT = Path(__file__).resolve().parents[1]


def _scan_csv(scan, tmp_path) -> str:
    path = tmp_path / f"{scan.label}.csv"
    assert fconv.cli.main(scan.argv(str(path))) == 0
    return path.read_text(encoding="utf-8")


def _perturb_row(text: str, row: int, delta: float) -> str:
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    lines[first + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("index", range(5), ids=lambda i: make_pass("light-scans", 0)[i].label)
def test_oracle_passes_real_output_and_fails_one_perturbed_row(index, tmp_path):
    scan = make_pass("light-scans", 7)[index]
    text = _scan_csv(scan, tmp_path)
    assert oracle.check(scan, text) is None
    # 1e-6 is above every oracle tolerance (at most 1e-7)
    reason = oracle.check(scan, _perturb_row(text, 1, 1e-6))
    assert reason is not None and "row 1" in reason


def test_runner_counts_a_perturbed_scan_as_failed(tmp_path):
    scan = make_pass("light-scans", 7)[4]
    good = _scan_csv(scan, tmp_path)

    class PerturbingCli:
        """Writes the real CSV with one row perturbed."""

        @staticmethod
        def main(argv):
            out = Path(argv[argv.index("-o") + 1])
            out.write_text(_perturb_row(good, 1, 1e-6), encoding="utf-8")
            return 0

    runner = worker.Runner([scan], tmp_path)
    runner.cli = PerturbingCli
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)
    runner.cli = fconv.cli
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_oracle_checks_fock_against_gaussian_backend(tmp_path):
    scan = make_pass("linearity-fock", 7)[0]
    text = _scan_csv(scan, tmp_path)
    gpath = tmp_path / "gaussian.csv"
    assert fconv.cli.main(scan.argv(str(gpath), backend="gaussian")) == 0
    gaussian = gpath.read_text(encoding="utf-8")
    assert oracle.check(scan, text, gaussian) is None
    # a reference that disagrees by more than the tolerance fails the scan
    assert "vs gaussian" in oracle.check(scan, text, _perturb_row(gaussian, 0, 1e-6))


def test_seed_changes_only_angles_and_is_reproducible():
    for workload in WORKLOADS:
        assert make_pass(workload, 3) == make_pass(workload, 3)
    a, b = make_pass("light-scans", 1), make_pass("light-scans", 2)
    changed = {
        (x.experiment, k)
        for x, y in zip(a, b)
        for (k, v), (_, w) in zip(x.params, y.params)
        if v != w
    }
    assert changed == {("linearity", "theta_eff"), ("fringe", "theta"), ("fringe", "phi_s")}


def test_default_linearity_span_counts(tmp_path):
    # a binding missed by the tracer (such as devices' own `apply_matrix`
    # or `expm`) would read zero here
    tracer = Tracer()
    with tracer:
        assert fconv.cli.main(["linearity", "-o", str(tmp_path / "lin.csv")]) == 0
    counts = tracer.counts()
    assert counts["fock.apply_loss"] == 9
    assert counts["devices.unitary"] == 9
    assert counts["fock.apply_matrix"] == 9
    assert counts["devices.expm"] == 207
    assert counts["cli.main"] == 1
    m = layer_metrics(tracer, 1)
    assert m["devices.unitary_reuse"] == 1.0
    assert m["devices.unitary.max_dim"] == 13 * 13
    assert m["fock.state_bytes.max"] == (13 * 13) ** 2 * 16
    # self times partition the root span
    root = sum(end - start for layer, start, end, _ in tracer.spans if layer == "cli.main")
    own, _ = tracer.self_times()
    assert math.isclose(sum(own.values()), root, rel_tol=1e-9)


def test_tracer_restores_every_binding(tmp_path):
    before = (fconv.devices.expm, fconv.devices.apply_matrix, fconv.fock.apply_matrix, fconv.cli.main)
    with Tracer():
        assert fconv.devices.expm is not before[0]
    after = (fconv.devices.expm, fconv.devices.apply_matrix, fconv.fock.apply_matrix, fconv.cli.main)
    assert all(x is y for x, y in zip(before, after))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
