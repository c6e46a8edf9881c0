"""Shared container for computed Steklov spectra."""
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
