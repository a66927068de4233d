"""Pinned numbers: each case's CSV against its committed file in ``tests/golden``.

Metadata and header lines must match exactly, and every value within 1e-12
relative or 1e-15 absolute: not byte for byte, since another BLAS or libm may
round the last digit of an `eigh` differently.  The cases are the five
defaults, the Gaussian runs, larger Fock boxes, three non-default depletion
scans, a phased two-channel WDM cascade, and Gaussian runs far beyond any
Fock box.  A change that means to move numbers regenerates every file with

    PYTHONPATH=src python tests/test_golden.py

and gives, per case, the largest change and its reason.
"""

from pathlib import Path

import numpy as np
import pytest

from fconv.cli import main

GOLDEN = Path(__file__).with_name("golden")

# file stem -> command-line arguments
CASES = {
    "linearity": "linearity",
    "fringe": "fringe",
    "noise": "noise",
    "depletion": "depletion",
    "wdm": "wdm",
    "linearity-gaussian": "linearity --backend gaussian",
    "fringe-gaussian": "fringe --backend gaussian",
    "noise-gaussian": "noise --backend gaussian",
    "linearity-alpha-pump-5": "linearity --alpha-pump 5",
    "fringe-alpha-pump-3": "fringe --alpha-pump 3",
    "noise-s-max-2": "noise --s-max 2",
    "depletion-pump-photon-6": "depletion --pump-photon 6 --alpha-s 10",
    "depletion-pump-photon-3-theta": "depletion --pump-photon 3 --alpha-s 2 3.5 --theta 1.1",
    "depletion-pump-photon-0": "depletion --pump-photon 0",
    "wdm-phased": "wdm --channel 1.2:0.5:0.3 --channel 0.8:1.0:-2.5",
    "linearity-gaussian-alpha-pump-1e100": "linearity --alpha-pump 1e100 --backend gaussian",
    "fringe-gaussian-alpha-pump-1e6": "fringe --alpha-pump 1e6 --backend gaussian",
    "fringe-gaussian-alpha-ref-1e9": "fringe --alpha-ref 1e9 --backend gaussian",
    "noise-gaussian-s-max-355": "noise --s-max 355 --backend gaussian",
}


def _run(case: str, path: Path) -> None:
    assert main([*CASES[case].split(), "-o", str(path)]) == 0


def _read(path: Path):
    """(the metadata lines and the header line, the values as an array)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = 1 + sum(line.startswith("#") for line in lines)
    return lines[:head], np.array([[float(v) for v in line.split(",")] for line in lines[head:]])


@pytest.mark.parametrize("case", CASES)
def test_case_matches_its_golden_file(case, tmp_path):
    _run(case, tmp_path / "got.csv")
    (got_head, got), (want_head, want) = _read(tmp_path / "got.csv"), _read(GOLDEN / f"{case}.csv")
    assert got_head == want_head
    assert got.shape == want.shape
    moved = np.abs(got - want) > np.maximum(1e-12 * np.abs(want), 1e-15)
    assert not moved.any(), f"{moved.sum()} values moved, first {got[moved][0]} from {want[moved][0]}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        _run(case, GOLDEN / f"{case}.csv")
