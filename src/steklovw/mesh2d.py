"""Deterministic triangulation of star-shaped domains, and the FEM measures.

Meshes come from a mapped polar grid: rings at radius fractions j/M along
N rays, scaled by the boundary radius function of the domain, with a
triangle fan at the center (a closed fan for planar domains, an open one
for the meridian of a solid).  Refinement is a uniform 4-way split with new
boundary midpoints re-projected onto the exact boundary curve.  The FEM
models differ only in the ``Measure`` that ``measure`` picks for a form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                       conformal_factor, poincare_distance)


class MeshQualityError(ValueError):
    """Triangle quality below the configured floor (increase M, N)."""


@dataclass(frozen=True, eq=False)
class Domain2D:
    """Planar star-shaped domain spec, translated by ``center_offset``.

    The offset moves the domain relative to the weight origin; the weight
    itself always stays anchored at the coordinate origin.
    """

    kind: str                       # disk | ellipse | perturbed_disk | polygon
    radius: float = 1.0
    a: float = 1.0
    b: float = 1.0
    eps: float = 0.0
    k: int = 0
    vertices_local: np.ndarray | None = field(default=None, repr=False)
    center_offset: tuple[float, float] = (0.0, 0.0)

    # -- constructors -------------------------------------------------
    @staticmethod
    def disk(radius: float, center: tuple[float, float] = (0.0, 0.0)) -> "Domain2D":
        if radius <= 0:
            raise DomainError("disk radius must be positive")
        return Domain2D(kind="disk", radius=float(radius),
                        center_offset=(float(center[0]), float(center[1])))

    @staticmethod
    def ellipse(a: float, b: float,
                center: tuple[float, float] = (0.0, 0.0)) -> "Domain2D":
        if a <= 0 or b <= 0:
            raise DomainError("ellipse semi-axes must be positive")
        return Domain2D(kind="ellipse", a=float(a), b=float(b),
                        center_offset=(float(center[0]), float(center[1])))

    @staticmethod
    def perturbed_disk(radius: float, eps: float, k: int,
                       center: tuple[float, float] = (0.0, 0.0)) -> "Domain2D":
        if radius <= 0:
            raise DomainError("radius must be positive")
        if k < 1:
            raise DomainError("perturbation frequency k must be >= 1")
        if abs(eps) * k >= 1.0:
            raise DomainError(
                f"|eps|*k = {abs(eps) * k:g} >= 1 breaks star-shapedness")
        return Domain2D(kind="perturbed_disk", radius=float(radius),
                        eps=float(eps), k=int(k),
                        center_offset=(float(center[0]), float(center[1])))

    @staticmethod
    def polygon(vertices, center: tuple[float, float] = (0.0, 0.0)) -> "Domain2D":
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise DomainError("polygon needs at least 3 (x, y) vertices")
        centroid = verts.mean(axis=0)
        rel = verts - centroid
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        wraps = np.sum(np.diff(np.concatenate([ang, ang[:1]])) < 0)
        cross = rel[:, 0] * np.roll(rel[:, 1], -1) - rel[:, 1] * np.roll(rel[:, 0], -1)
        if wraps != 1 or np.any(cross <= 0):
            raise DomainError("polygon must be star-shaped (CCW) about its centroid")
        return Domain2D(kind="polygon", vertices_local=verts,
                        center_offset=(float(center[0]), float(center[1])))

    # -- geometry -----------------------------------------------------
    @property
    def center(self) -> np.ndarray:
        off = np.asarray(self.center_offset, dtype=float)
        if self.kind == "polygon":
            return self.vertices_local.mean(axis=0) + off
        return off

    def boundary_radius(self, theta) -> np.ndarray:
        """Distance from the domain center to the boundary along angle theta."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.kind == "disk":
            return np.full_like(theta, self.radius)
        if self.kind == "ellipse":
            if self.a == self.b:
                return np.full_like(theta, self.a)
            return self.a * self.b / np.sqrt(
                (self.b * np.cos(theta)) ** 2 + (self.a * np.sin(theta)) ** 2)
        if self.kind == "perturbed_disk":
            return self.radius * (1.0 + self.eps * np.cos(self.k * theta))
        # polygon: ray/edge intersection from the centroid
        centroid = self.vertices_local.mean(axis=0)
        v1 = self.vertices_local - centroid
        v2 = np.roll(self.vertices_local, -1, axis=0) - centroid
        e = v2 - v1
        d = np.stack([np.cos(theta), np.sin(theta)], axis=-1)   # (m, 2)
        denom = d[:, None, 0] * e[None, :, 1] - d[:, None, 1] * e[None, :, 0]
        num_s = v1[None, :, 0] * e[None, :, 1] - v1[None, :, 1] * e[None, :, 0]
        num_u = v1[None, :, 0] * d[:, None, 1] - v1[None, :, 1] * d[:, None, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = num_s / denom
            u = num_u / denom
        valid = (np.abs(denom) > 1e-14) & (s > 0) & (u >= -1e-12) & (u <= 1 + 1e-12)
        s = np.where(valid, s, np.inf)
        r = s.min(axis=1)
        if np.any(~np.isfinite(r)):
            raise DomainError("polygon radial function undefined for some angle")
        return r

    @property
    def label(self) -> str:
        off = "" if self.center_offset == (0.0, 0.0) else \
            f"@({self.center_offset[0]:g},{self.center_offset[1]:g})"
        if self.kind == "disk":
            return f"disk(R={self.radius:g}){off}"
        if self.kind == "ellipse":
            return f"ellipse(a={self.a:g},b={self.b:g}){off}"
        if self.kind == "perturbed_disk":
            return f"pdisk(R={self.radius:g},eps={self.eps:g},k={self.k}){off}"
        return f"polygon[{len(self.vertices_local)}]{off}"

    def is_centered_ball(self, tol: float = 0.0) -> bool:
        if self.center_offset != (0.0, 0.0):
            return False
        if self.kind == "disk":
            return True
        if self.kind == "ellipse":
            return abs(self.a - self.b) <= tol
        if self.kind == "perturbed_disk":
            return abs(self.eps) <= tol
        return False


@dataclass(eq=False)
class TriMesh:
    """Planar triangulation with an oriented boundary-edge loop."""

    vertices: np.ndarray          # (V, 2)
    triangles: np.ndarray         # (T, 3) int, positive orientation
    boundary_edges: np.ndarray    # (B, 2) int, CCW loop
    h: float                      # maximum edge length
    domain: Domain2D | None = None

    @property
    def boundary_nodes(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    def min_angle_deg(self) -> float:
        p = self.vertices[self.triangles]
        angles = []
        for i in range(3):
            u = p[:, (i + 1) % 3] - p[:, i]
            v = p[:, (i + 2) % 3] - p[:, i]
            cosang = np.sum(u * v, axis=1) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        return float(np.min(angles))

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _validate(mesh: TriMesh, min_angle_deg: float):
    if np.any(mesh.signed_areas() <= 0):
        raise MeshQualityError("mesh contains non-positively-oriented triangles")
    ang = mesh.min_angle_deg()
    if ang < min_angle_deg:
        raise MeshQualityError(
            f"minimum triangle angle {ang:.3f} deg below floor "
            f"{min_angle_deg:g} deg (increase rings/sectors or lower the floor)")


def polar_mesh(shape, angles: np.ndarray, rings: int, closed: bool,
               config: NumericsConfig = DEFAULT_CONFIG,
               domain: Domain2D | None = None) -> TriMesh:
    """Mapped polar grid of ``shape`` (``center``, ``boundary_radius``).

    A closed fan wraps the last ray onto the first.  An open fan is a
    meridian half-plane: its end rays are snapped onto the symmetry axis
    and form the flat side of the boundary loop.
    """
    M, K = int(rings), len(angles)
    if M < 2:
        raise DomainError("need at least 2 rings")
    N = K if closed else K - 1          # sectors between consecutive rays
    center = np.asarray(shape.center, dtype=float)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if not closed:
        dirs[0], dirs[-1] = (0.0, -1.0), (0.0, 1.0)
    rad = shape.boundary_radius(angles)

    verts = np.empty((1 + M * K, 2))
    verts[0] = center
    for j in range(1, M + 1):
        verts[1 + (j - 1) * K: 1 + j * K] = center + (j / M) * rad[:, None] * dirs

    def idx(j, l):
        return 1 + (j - 1) * K + (l % K)

    tris = []
    for l in range(N):
        tris.append((0, idx(1, l), idx(1, l + 1)))
    for j in range(1, M):
        for l in range(N):
            a, b = idx(j, l), idx(j + 1, l)
            c, d = idx(j + 1, l + 1), idx(j, l + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    triangles = np.array(tris, dtype=np.int64)
    boundary = [(idx(M, l), idx(M, l + 1)) for l in range(N)]   # outer arc, CCW
    if not closed:
        boundary += [(idx(j, N), idx(j - 1, N)) for j in range(M, 1, -1)]
        boundary += [(idx(1, N), 0), (0, idx(1, 0))]
        boundary += [(idx(j, 0), idx(j + 1, 0)) for j in range(1, M)]

    mesh = TriMesh(vertices=verts, triangles=triangles,
                   boundary_edges=np.array(boundary, dtype=np.int64),
                   h=_max_edge(verts, triangles), domain=domain)
    _validate(mesh, config.min_angle_deg)
    return mesh


def generate_mesh(dom: Domain2D, rings: int, sectors: int,
                  config: NumericsConfig = DEFAULT_CONFIG) -> TriMesh:
    """Mapped polar mesh: 1 + rings*sectors vertices, deterministic layout."""
    N = int(sectors)
    if N < 8:
        raise DomainError("need at least 8 sectors")
    thetas = 2.0 * math.pi * np.arange(N) / N
    return polar_mesh(dom, thetas, rings, True, config, domain=dom)


def _max_edge(verts: np.ndarray, triangles: np.ndarray) -> float:
    p = verts[triangles]
    lengths = [np.linalg.norm(p[:, (i + 1) % 3] - p[:, i], axis=1) for i in range(3)]
    return float(np.max(lengths))


def subdivide(mesh: TriMesh, curved_edges, shape,
              config: NumericsConfig = DEFAULT_CONFIG) -> TriMesh:
    """Uniform 4-way split, midpoints appended in deterministic order.

    Midpoints of ``curved_edges`` move along their ray from ``shape.center``
    onto ``shape.boundary_radius``: exact (a no-op) on straight pieces, it
    restores corner/curvature geometry otherwise.  Other midpoints stay, so
    one between two axis nodes keeps r = 0 exactly.
    """
    verts = list(map(tuple, mesh.vertices))
    mid_index: dict[tuple[int, int], int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        if key not in mid_index:
            mid_index[key] = len(verts)
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            verts.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
        return mid_index[key]

    new_tris = []
    for a, b, c in mesh.triangles:
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_tris.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc),
                         (mab, mbc, mca)])
    new_boundary = []
    for a, b in mesh.boundary_edges:
        m = midpoint(a, b)
        new_boundary.extend([(a, m), (m, b)])
    verts = np.array(verts, dtype=float)
    tris = np.array(new_tris, dtype=np.int64)

    center = None if shape is None else np.asarray(shape.center, dtype=float)
    for a, b in curved_edges:
        m = mid_index[(a, b) if a < b else (b, a)]
        d = verts[m] - center
        theta = math.atan2(d[1], d[0])
        r = shape.boundary_radius(theta)[0]
        verts[m] = center + r * np.array([math.cos(theta), math.sin(theta)])

    out = TriMesh(vertices=verts, triangles=tris,
                  boundary_edges=np.array(new_boundary, dtype=np.int64),
                  h=_max_edge(verts, tris), domain=mesh.domain)
    _validate(out, config.min_angle_deg)
    return out


def refine(mesh: TriMesh, config: NumericsConfig = DEFAULT_CONFIG) -> TriMesh:
    """4-way refinement with boundary midpoints snapped to the exact curve."""
    dom = mesh.domain
    curved = mesh.boundary_edges if dom is not None else ()
    return subdivide(mesh, curved, dom, config)


def mesh_levels(dom: Domain2D, rings: int, sectors: int, levels: int,
                config: NumericsConfig = DEFAULT_CONFIG) -> list[TriMesh]:
    meshes = [generate_mesh(dom, rings, sectors, config)]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1], config))
    return meshes


# ---------------------------------------------------------------------------
# the model's measure and weighted quadrature on meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure:
    """Point densities of one FEM model on its 2-D chart.

    ``dist`` is the model distance t(x) to the weight origin; ``area``,
    ``length`` and ``stiffness`` multiply e^{-phi(t)} in the volume,
    boundary and Dirichlet-energy integrals.  On the meridian (r, z) of a
    solid they are per radian: ``revolution`` = 2 pi turns integrals into
    totals, while the FEM pencil keeps the per-radian scale.
    """

    dist: Callable[[np.ndarray], np.ndarray]
    area: Callable[[np.ndarray], np.ndarray | float]
    length: Callable[[np.ndarray], np.ndarray | float]
    stiffness: Callable[[np.ndarray], np.ndarray | float]
    revolution: float = 1.0


def _norm(pts: np.ndarray) -> np.ndarray:
    return np.linalg.norm(pts, axis=-1)


def _one(pts: np.ndarray) -> float:
    return 1.0


def _radius(pts: np.ndarray) -> np.ndarray:
    return pts[..., 0]


PLANE = Measure(_norm, _one, _one, _one)
# The 2-D Dirichlet energy is conformally invariant, so the stiffness keeps
# Euclidean gradients; area and length pick up the conformal factor.
POINCARE_DISK = Measure(poincare_distance, lambda p: conformal_factor(p) ** 2,
                        conformal_factor, _one)
MERIDIAN = Measure(_norm, _radius, _radius, _radius, 2.0 * math.pi)


def measure(form: SpaceForm) -> Measure:
    """The FEM model of ``form``: the plane or the Poincare disk for n = 2,
    the meridian of an axisymmetric solid for Euclidean n = 3."""
    if form.dim == 2 and form.curvature is Curvature.EUCLIDEAN:
        return PLANE
    if form.dim == 2 and form.curvature is Curvature.HYPERBOLIC:
        return POINCARE_DISK
    if form.dim == 3 and form.curvature is Curvature.EUCLIDEAN:
        return MERIDIAN
    raise DomainError(f"no mesh model for the {form.curvature.label} "
                      f"space form of dimension {form.dim}")


def integrate_weighted(mesh: TriMesh, form: SpaceForm, w: RadialWeight,
                       fn=None) -> float:
    """int_Omega fn(t(x)) dmu with the 3-point edge-midpoint triangle rule.

    ``fn`` maps distance values to integrand values (default 1).  The area
    element is the density of ``measure(form)``; for n = 3 the mesh is the
    meridian of a solid of revolution.
    """
    meas = measure(form)
    p = mesh.vertices[mesh.triangles]
    areas = mesh.signed_areas()
    mids = np.stack([(p[:, 0] + p[:, 1]) / 2.0,
                     (p[:, 1] + p[:, 2]) / 2.0,
                     (p[:, 2] + p[:, 0]) / 2.0], axis=1)   # (T, 3, 2)
    t = meas.dist(mids)
    vals = np.exp(-w.phi(t))
    if fn is not None:
        vals = vals * fn(t)
    vals = vals * meas.area(mids)
    return meas.revolution * float(np.sum(areas / 3.0 * np.sum(vals, axis=1)))


_GAUSS2 = np.array([-1.0, 1.0]) / math.sqrt(3.0)


def boundary_gauss_points(mesh: TriMesh, edges: np.ndarray | None = None):
    """2-point Gauss nodes and Euclidean weights on each edge (default: the
    whole boundary loop)."""
    edges = mesh.boundary_edges if edges is None else edges
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    pts = np.stack([mid + g * half for g in _GAUSS2], axis=1)  # (B, 2, 2)
    lengths = np.linalg.norm(b - a, axis=1)
    wts = np.stack([lengths / 2.0, lengths / 2.0], axis=1)     # (B, 2)
    return pts, wts


def integrate_boundary_weighted(mesh: TriMesh, form: SpaceForm, w: RadialWeight,
                                fn=None, edges: np.ndarray | None = None) -> float:
    """int over the Steklov ``edges`` (default: the boundary loop) of
    fn(t(x)) dmu-hat with 2-point Gauss per edge."""
    meas = measure(form)
    pts, wts = boundary_gauss_points(mesh, edges)
    t = meas.dist(pts)
    vals = np.exp(-w.phi(t))
    if fn is not None:
        vals = vals * fn(t)
    vals = vals * meas.length(pts)
    return meas.revolution * float(np.sum(wts * vals))


def mesh_measures(mesh: TriMesh, form: SpaceForm,
                  w: RadialWeight) -> tuple[float, float]:
    """(weighted area, weighted boundary length) of the meshed domain."""
    return (integrate_weighted(mesh, form, w),
            integrate_boundary_weighted(mesh, form, w))


# ---------------------------------------------------------------------------
# plain-text export / import
# ---------------------------------------------------------------------------

def save_mesh(mesh: TriMesh, path):
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} "
                 f"{len(mesh.boundary_edges)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for i, j in mesh.boundary_edges:
            fh.write(f"{i} {j}\n")


def load_mesh(path) -> TriMesh:
    with open(path) as fh:
        tokens = fh.read().split("\n")
    nv, nt, nb = map(int, tokens[0].split())
    verts = np.array([[float(v) for v in tokens[1 + i].split()]
                      for i in range(nv)])
    tris = np.array([[int(v) for v in tokens[1 + nv + i].split()]
                     for i in range(nt)], dtype=np.int64)
    bnd = np.array([[int(v) for v in tokens[1 + nv + nt + i].split()]
                    for i in range(nb)], dtype=np.int64)
    return TriMesh(vertices=verts, triangles=tris, boundary_edges=bnd,
                   h=_max_edge(verts, tris), domain=None)
