"""Steklov spectra of axisymmetric solids via azimuthal Fourier modes.

A solid of revolution in R^3 is described by its meridian half-section in
the (r, z) half-plane, meshed with the same mapped polar construction as
the planar domains (rays limited to [-pi/2, pi/2], the z-axis forming the
flat side).  Separating u = U(r, z) e^{i m theta} turns the 3-D problem
into a family of 2-D pencils

    K^(m)(U, V) = int e^{-phi(t)} (grad U . grad V + m^2 U V / r^2) r dr dz,
    M_b^(m)(U, V) = int_outer e^{-phi(t)} U V r ds,      t = sqrt(r^2 + z^2),

with essential axis conditions for m >= 1.  These are the shared P1
pencils under the ``MERIDIAN`` measure.  Mode eigenvalues enter the global
spectrum once for m = 0 and twice for m >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .geometry import Curvature, DomainError, RadialWeight, SpaceForm
from .mesh2d import (MERIDIAN, TriMesh, integrate_boundary_weighted,
                     integrate_weighted, polar_mesh, subdivide)
from .spectrum import SteklovSpectrum
from .steklov2d import AssembledSystem, assemble_p1, dtn_reduce, solve_spectrum

E3 = SpaceForm(Curvature.EUCLIDEAN, 3)


@dataclass(frozen=True, eq=False)
class MeridianDomain:
    """Axisymmetric solid: shape parameters plus its meridian mesh."""

    kind: str                 # ball | spheroid | perturbed_ball
    R: float = 1.0
    a: float = 1.0
    c: float = 1.0
    eps: float = 0.0
    k: int = 0
    mesh: TriMesh = None

    center = (0.0, 0.0)       # rays of the meridian fan start at the origin

    # -- constructors ---------------------------------------------------
    @staticmethod
    def ball(R: float, rings: int = 8, sectors: int = 32,
             config: NumericsConfig = DEFAULT_CONFIG) -> "MeridianDomain":
        if R <= 0:
            raise DomainError("ball radius must be positive")
        return MeridianDomain(kind="ball", R=float(R))._meshed(
            rings, sectors, config)

    @staticmethod
    def spheroid(a: float, c: float, rings: int = 8, sectors: int = 32,
                 config: NumericsConfig = DEFAULT_CONFIG) -> "MeridianDomain":
        """Boundary (r/a)^2 + (z/c)^2 = 1."""
        if a <= 0 or c <= 0:
            raise DomainError("spheroid semi-axes must be positive")
        return MeridianDomain(kind="spheroid", a=float(a), c=float(c))._meshed(
            rings, sectors, config)

    @staticmethod
    def perturbed_ball(R: float, eps: float, k: int, rings: int = 8,
                       sectors: int = 32,
                       config: NumericsConfig = DEFAULT_CONFIG
                       ) -> "MeridianDomain":
        """Polar boundary radius R (1 + eps cos(k theta_colat))."""
        if R <= 0:
            raise DomainError("radius must be positive")
        if abs(eps) * k >= 1.0:
            raise DomainError("|eps|*k >= 1 breaks star-shapedness")
        return MeridianDomain(kind="perturbed_ball", R=float(R),
                              eps=float(eps), k=int(k))._meshed(
            rings, sectors, config)

    def _meshed(self, rings: int, sectors: int,
                config: NumericsConfig) -> "MeridianDomain":
        """Copy carrying the open polar fan over [-pi/2, pi/2]."""
        N = int(sectors)
        if N < 4:
            raise DomainError("meridian mesh needs sectors >= 4")
        alphas = -math.pi / 2.0 + math.pi * np.arange(N + 1) / N
        return replace(self, mesh=polar_mesh(self, alphas, rings, False, config))

    # -- geometry ---------------------------------------------------------
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

    @property
    def axis_nodes(self) -> np.ndarray:
        return np.nonzero(self.mesh.vertices[:, 0] == 0.0)[0]

    @property
    def outer_edges(self) -> np.ndarray:
        """Boundary edges not lying on the axis (at least one endpoint r > 0)."""
        v = self.mesh.vertices
        be = self.mesh.boundary_edges
        on_axis = (v[be[:, 0], 0] == 0.0) & (v[be[:, 1], 0] == 0.0)
        return be[~on_axis]

    def refine(self, config: NumericsConfig = DEFAULT_CONFIG) -> "MeridianDomain":
        return replace(self, mesh=subdivide(self.mesh, self.outer_edges, self,
                                            config))


# ---------------------------------------------------------------------------
# weighted measures of the solid (the mesh integrals under MERIDIAN)
# ---------------------------------------------------------------------------

def integrate_meridian(md: MeridianDomain, w: RadialWeight, fn=None) -> float:
    """Weighted volume integral of fn(t) over the solid of revolution."""
    return integrate_weighted(md.mesh, E3, w, fn)


def meridian_measures(md: MeridianDomain, w: RadialWeight) -> tuple[float, float]:
    """(weighted volume, weighted boundary area) of the solid."""
    return (integrate_weighted(md.mesh, E3, w),
            integrate_boundary_weighted(md.mesh, E3, w, edges=md.outer_edges))


# ---------------------------------------------------------------------------
# mode assembly and spectra
# ---------------------------------------------------------------------------

def assemble_mode(md: MeridianDomain, w: RadialWeight, m: int,
                  config: NumericsConfig = DEFAULT_CONFIG) -> AssembledSystem:
    """Mode-m stiffness and outer-boundary mass, axis dofs removed for m >= 1."""
    if m < 0:
        raise DomainError("azimuthal mode must be >= 0")
    return assemble_p1(md.mesh, MERIDIAN, w, md.outer_edges, m,
                       md.axis_nodes if m else None)


def solve_axisym_spectrum(md: MeridianDomain, w: RadialWeight,
                          modes=(0, 1, 2), k_per_mode: int = 6,
                          config: NumericsConfig = DEFAULT_CONFIG
                          ) -> SteklovSpectrum:
    """Merged spectrum across azimuthal modes, multiplicity 2 for m >= 1."""
    entries: list[tuple[float, int, int]] = []
    for m in sorted(modes):
        sys = assemble_mode(md, w, m, config)
        S, Mb = dtn_reduce(sys)
        k_m = min(k_per_mode, S.shape[0] - 1)
        spec = solve_spectrum(S, Mb, k_m)
        mult = 1 if m == 0 else 2
        for val in spec.eigenvalues:
            for copy in range(mult):
                entries.append((float(val), m, copy))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    eigenvalues = np.array([e[0] for e in entries])
    mode_tags = [e[1] for e in entries]
    return SteklovSpectrum(
        eigenvalues=eigenvalues, modes=mode_tags,
        metadata={"h": md.mesh.h, "curvature": "euclidean", "n": 3,
                  "weight": w.label, "domain": md.label,
                  "modes_solved": list(sorted(modes))})
