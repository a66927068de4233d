"""Mode bookkeeping for the truncated Fock space.

Basis ordering convention (used by every operator and state in the package):
basis states |n_1, ..., n_M> are enumerated in row-major multi-index order
with mode 1 slowest, i.e. the flat index of an occupation tuple is
``numpy.ravel_multi_index(occ, dims, order="C")`` with ``dims[m] = cutoff_m + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnknownMode


@dataclass(frozen=True)
class Mode:
    label: str
    frequency: float
    cutoff: int

    def __post_init__(self):
        # an integral cutoff (2.0 or a numpy int) is kept as an int, and 2.7 is refused
        # rather than cut; nan fails both checks, as it fails every comparison
        if not (float(self.cutoff).is_integer() and self.cutoff >= 1):
            raise ValueError(f"mode {self.label!r}: cutoff {self.cutoff} is not an integer >= 1")
        if not 0 < self.frequency < math.inf:
            raise ValueError(f"mode {self.label!r}: frequency {self.frequency} is outside (0, inf)")
        object.__setattr__(self, "cutoff", int(self.cutoff))


class ModeRegistry:
    """Ordered set of optical modes with labels, frequencies and Fock cutoffs."""

    def __init__(self, modes: Sequence[tuple[str, float, int]]):
        parsed = [Mode(str(l), float(f), c) for (l, f, c) in modes]
        labels = [m.label for m in parsed]
        if len(set(labels)) != len(labels):
            raise ValueError(f"mode labels must be unique, got {labels}")
        self.modes = tuple(parsed)
        self._index = {m.label: i for i, m in enumerate(self.modes)}
        self.labels = tuple(labels)
        self.cutoffs = tuple(m.cutoff for m in parsed)
        self.dims = tuple(c + 1 for c in self.cutoffs)  # per-mode Hilbert dimensions
        self.dim = math.prod(self.dims)  # total Hilbert dimension
        self.num_modes = len(parsed)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownMode(f"unknown mode {label!r}; have {self.labels}") from None

    def occupations(self) -> np.ndarray:
        """(dim, M) integer array: row i is the occupation tuple of basis state i."""
        grids = np.indices(self.dims).reshape(self.num_modes, -1).T
        return grids

    def flat_index(self, occupations: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(int(n) for n in occupations), self.dims))

    def subregistry(self, labels: Sequence[str]) -> "ModeRegistry":
        """New registry containing only the given modes, in the given order."""
        return ModeRegistry(
            [(m.label, m.frequency, m.cutoff) for m in (self.modes[self.index(l)] for l in labels)]
        )

    def __repr__(self):
        inner = ", ".join(f"{m.label}(w={m.frequency:g}, cutoff={m.cutoff})" for m in self.modes)
        return f"ModeRegistry[{inner}]"
