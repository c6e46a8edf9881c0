"""Steklov spectra of axisymmetric solids via azimuthal Fourier modes.

A solid of revolution in R^3 is described by its meridian half-section in
the (r, z) half-plane, meshed with the same mapped polar construction as
the planar domains (rays limited to [-pi/2, pi/2], the z-axis forming the
flat side).  Separating u = U(r, z) e^{i m theta} turns the 3-D problem
into a family of 2-D pencils

    K^(m)(U, V) = int e^{-phi(t)} (grad U . grad V + m^2 U V / r^2) r dr dz,
    M_b^(m)(U, V) = int_outer e^{-phi(t)} U V r ds,      t = sqrt(r^2 + z^2),

with essential axis conditions for m >= 1.  These are the shared P1
pencils under the ``MERIDIAN`` measure; they differ only in m^2 times the
e^{-phi}/r block, assembled once.  Mode eigenvalues enter the global
spectrum once for m = 0 and twice for m >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainError, RadialWeight
from .mesh2d import MERIDIAN, TriMesh
from .spectrum import SteklovSpectrum
from .steklov2d import AssembledSystem, assemble_p1, solve_spectrum

# Azimuthal modes solved for a merged spectrum.
MODES = (0, 1, 2)


@dataclass(frozen=True, eq=False)
class MeridianDomain:
    """Axisymmetric solid, given by the shape of its meridian half-section."""

    kind: str                 # ball | spheroid | perturbed_ball
    R: float = 1.0
    a: float = 1.0
    c: float = 1.0
    eps: float = 0.0
    k: int = 0

    center = (0.0, 0.0)       # rays of the meridian fan start at the origin

    def __post_init__(self):
        if not np.all(np.isfinite([self.R, self.a, self.c, self.eps])):
            raise DomainError(f"{self.kind} parameters must be finite")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def ball(R: float) -> "MeridianDomain":
        if R <= 0:
            raise DomainError("ball radius must be positive")
        return MeridianDomain(kind="ball", R=float(R))

    @staticmethod
    def spheroid(a: float, c: float) -> "MeridianDomain":
        """Boundary (r/a)^2 + (z/c)^2 = 1."""
        if a <= 0 or c <= 0:
            raise DomainError("spheroid semi-axes must be positive")
        return MeridianDomain(kind="spheroid", a=float(a), c=float(c))

    @staticmethod
    def perturbed_ball(R: float, eps: float, k: int) -> "MeridianDomain":
        """Polar boundary radius R (1 + eps cos(k theta_colat))."""
        if R <= 0:
            raise DomainError("radius must be positive")
        if not 1 <= k < math.inf:
            raise DomainError("perturbation frequency k must be >= 1 and finite")
        if abs(eps) * k >= 1.0:
            raise DomainError("|eps|*k >= 1 breaks star-shapedness")
        return MeridianDomain(kind="perturbed_ball", R=float(R),
                              eps=float(eps), k=int(k))

    # -- geometry ---------------------------------------------------------
    def fan(self, sectors: int) -> tuple[np.ndarray, bool]:
        """The open meridian fan: sectors + 1 rays over [-pi/2, pi/2]."""
        N = int(sectors)
        if N < 4:
            raise DomainError("meridian mesh needs sectors >= 4")
        return -math.pi / 2.0 + math.pi * np.arange(N + 1) / N, False

    def curved_edges(self, mesh: TriMesh) -> np.ndarray:
        return outer_edges(mesh)

    def boundary_radius(self, alpha) -> np.ndarray:
        """Boundary distance along the ray at angle alpha from the +r axis."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        if self.kind == "ball":
            return np.full_like(alpha, self.R)
        if self.kind == "spheroid":
            if self.a == self.c:
                return np.full_like(alpha, self.a)
            return 1.0 / np.sqrt((np.cos(alpha) / self.a) ** 2
                                 + (np.sin(alpha) / self.c) ** 2)
        colat = math.pi / 2.0 - alpha
        return self.R * (1.0 + self.eps * np.cos(self.k * colat))

    @property
    def label(self) -> str:
        if self.kind == "ball":
            return f"ball(R={self.R:g})"
        if self.kind == "spheroid":
            return f"spheroid(a={self.a:g},c={self.c:g})"
        return f"pball(R={self.R:g},eps={self.eps:g},k={self.k})"

    def is_centered_ball(self) -> bool:
        if self.kind == "ball":
            return True
        if self.kind == "spheroid":
            return self.a == self.c
        return self.eps == 0.0


def axis_nodes(mesh: TriMesh) -> np.ndarray:
    """Vertices of a meridian mesh on the symmetry axis (r = 0 exactly)."""
    return np.nonzero(mesh.vertices[:, 0] == 0.0)[0]


def outer_edges(mesh: TriMesh) -> np.ndarray:
    """Boundary edges of a meridian mesh off the axis (an endpoint at r > 0)."""
    v = mesh.vertices
    be = mesh.boundary_edges
    on_axis = (v[be[:, 0], 0] == 0.0) & (v[be[:, 1], 0] == 0.0)
    return be[~on_axis]


# ---------------------------------------------------------------------------
# mode assembly and spectra
# ---------------------------------------------------------------------------

def _mode(sys: AssembledSystem, m: int, axis: np.ndarray) -> AssembledSystem:
    """Mode m >= 1 of the mode-0 system ``sys``: m^2 azimuthal blocks added
    and the ``axis`` nodes (u = 0 there) removed."""
    keep = np.setdiff1d(np.arange(sys.stiffness.shape[0]), axis)
    sub = lambda A: A[np.ix_(keep, keep)].tocsr()
    off_axis = ~np.isin(sys.boundary_index, axis)
    return AssembledSystem(
        sub(sys.stiffness + (m * m) * sys.azimuthal), sub(sys.boundary_mass),
        np.searchsorted(keep, sys.boundary_index[off_axis]), sys.extent,
        sys.boundary_points[off_axis], mode=m)


def assemble_mode(mesh: TriMesh, w: RadialWeight, m: int) -> AssembledSystem:
    """Mode-m stiffness and outer-boundary mass of a meridian mesh, axis dofs
    removed for m >= 1."""
    if m < 0:
        raise DomainError("azimuthal mode must be >= 0")
    sys = assemble_p1(mesh, MERIDIAN, w, outer_edges(mesh), azimuthal=True)
    return _mode(sys, m, axis_nodes(mesh)) if m else sys


def solve_axisym_spectrum(mesh: TriMesh, w: RadialWeight,
                          k: int) -> SteklovSpectrum:
    """sigma_0..sigma_k across the azimuthal ``MODES``, multiplicity 2 for
    m >= 1.  Mode 0 is asked for k+1 eigenvalues and each m >= 1 for
    ceil((k+1)/2), all it can place among the first k+1.  The mode-0
    assembly serves every mode."""
    base, axis = assemble_mode(mesh, w, 0), axis_nodes(mesh)
    entries: list[tuple[float, int, int]] = []
    for m in MODES:
        sys, mult = (base, 1) if m == 0 else (_mode(base, m, axis), 2)
        for val in solve_spectrum(sys, k // mult).eigenvalues:
            for copy in range(mult):
                entries.append((float(val), m, copy))
    entries = sorted(entries)[:k + 1]
    return SteklovSpectrum(
        eigenvalues=np.array([e[0] for e in entries]),
        modes=[e[1] for e in entries],
        metadata={"h": mesh.h, "curvature": "euclidean", "n": 3,
                  "weight": w.label, "domain": mesh.domain.label,
                  "modes_solved": list(MODES)})
