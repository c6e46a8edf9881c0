"""Shared container for computed Steklov spectra, and their merge by mode."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SteklovSpectrum:
    """Ordered eigenvalues sigma_0 <= sigma_1 <= ... with optional traces.

    ``boundary_eigenvectors`` holds mass-orthonormal boundary traces as
    columns (FEM-produced spectra only); analytic ball spectra carry None.
    ``modes`` tags each eigenvalue with its azimuthal mode for axisymmetric
    solves.
    """

    eigenvalues: np.ndarray
    boundary_eigenvectors: np.ndarray | None = None
    modes: list[int] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)

    def to_json_dict(self) -> dict:
        d = {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "metadata": self.metadata,
        }
        if self.modes is not None:
            d["modes"] = list(self.modes)
        return d


def merge_modes(solve, mult, k: int, metadata: dict) -> SteklovSpectrum:
    """sigma_0..sigma_k, tagged by mode, of the union of modes m = 0, 1, ...
    whose values do not decrease with m: ``solve(m)`` gives mode m's
    smallest values in order, each counted ``mult(m)`` times.  The walk
    stops at the first mode whose smallest value is at or above the
    (k+1)-th merged value; no later one can place a value, as a tie sorts
    after the earlier mode."""
    entries, m = [], 0
    while True:
        vals = solve(m)
        entries = sorted(entries + [(float(v), m, copy) for v in vals
                                    for copy in range(mult(m))])[:k + 1]
        if len(entries) == k + 1 and vals[0] >= entries[-1][0]:
            values, modes, _ = zip(*entries)
            return SteklovSpectrum(np.array(values), modes=list(modes),
                                   metadata=metadata)
        m += 1
