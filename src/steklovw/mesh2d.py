"""Deterministic triangulation of star-shaped domains, and the FEM measures.

Meshes come from a mapped polar grid: rings at radius fractions j/M along
N rays, scaled by the boundary radius function of the domain, with a
triangle fan at the center: a closed fan for a planar ``Domain2D``, an
open one for the ``MeridianDomain`` half-section of a solid of revolution,
whose flat side is the symmetry axis.  Refinement is a uniform 4-way split
with new boundary midpoints re-projected onto the exact boundary curve.
The FEM models differ only in the ``Measure`` that ``measure`` picks for a
form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULT_CONFIG
from .geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                       conformal_factor, poincare_distance)


class MeshQualityError(ValueError):
    """Triangle quality below the fixed floor (increase M, N)."""


def _check_star(radius: float, eps: float = 0.0, k: int = 1) -> None:
    """A perturbed disk or ball radius (1 + eps cos(k angle)) stays a
    positive, star-shaped radial function."""
    if radius <= 0:
        raise DomainError("radius must be positive")
    if not 1 <= k < math.inf:
        raise DomainError("perturbation frequency k must be >= 1 and finite")
    if abs(eps) * k >= 1.0:
        raise DomainError(
            f"|eps|*k = {abs(eps) * k:g} >= 1 breaks star-shapedness")


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

    def __post_init__(self):
        verts = () if self.vertices_local is None else self.vertices_local.ravel()
        if not np.all(np.isfinite([self.radius, self.a, self.b, self.eps,
                                   *self.center_offset, *verts])):
            raise DomainError(f"{self.kind} parameters must be finite")

    # -- constructors -------------------------------------------------
    @staticmethod
    def disk(radius: float, center: tuple[float, float] = (0.0, 0.0)) -> "Domain2D":
        _check_star(radius)
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
        _check_star(radius, eps, k)
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
    def fan(self, sectors: int) -> tuple[np.ndarray, bool]:
        """The closed fan: ``sectors`` rays over the full turn."""
        N = int(sectors)
        if N < 8:
            raise DomainError("need at least 8 sectors")
        return 2.0 * math.pi * np.arange(N) / N, True

    def curved_edges(self, mesh: TriMesh) -> np.ndarray:
        return mesh.boundary_edges

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

    def is_centered_ball(self) -> bool:
        if self.center_offset != (0.0, 0.0):
            return False
        if self.kind == "disk":
            return True
        if self.kind == "ellipse":
            return self.a == self.b
        if self.kind == "perturbed_disk":
            return self.eps == 0.0
        return False


@dataclass(frozen=True, eq=False)
class MeridianDomain:
    """Axisymmetric solid, given by the shape of its meridian half-section
    in the (r, z) half-plane."""

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
        _check_star(R)
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
        _check_star(R, eps, k)
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
    """Boundary edges of a meridian mesh off the axis (an endpoint at r > 0):
    the Steklov boundary of a solid."""
    v = mesh.vertices
    be = mesh.boundary_edges
    on_axis = (v[be[:, 0], 0] == 0.0) & (v[be[:, 1], 0] == 0.0)
    return be[~on_axis]


@dataclass(eq=False)
class TriMesh:
    """Planar triangulation with an oriented boundary-edge loop.

    ``domain`` is the shape it was meshed from: a ``Domain2D`` or the
    ``MeridianDomain`` of a solid.  Every mesh, generated, refined or built
    by hand, is measured once here: the triangle ``areas`` 0.5 d1 x d2
    (d1 = p1 - p0, d2 = p2 - p0), ``h`` its longest edge and its smallest
    angle; a triangle that is not positively oriented, or an angle below
    the fixed floor, raises ``MeshQualityError``.
    """

    vertices: np.ndarray          # (V, 2)
    triangles: np.ndarray         # (T, 3) int, positive orientation
    boundary_edges: np.ndarray    # (B, 2) int, CCW loop
    domain: object = None
    areas: np.ndarray = field(init=False, repr=False)
    h: float = field(init=False)
    min_angle_deg: float = field(init=False)

    def __post_init__(self):
        p0, p1, p2 = (self.vertices[c] for c in self.triangles.T)
        d1, d2, d3 = p1 - p0, p2 - p0, p2 - p1     # (T, 2) each
        del p0, p1, p2
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if not np.all(self.areas > 0):
            raise MeshQualityError(
                "mesh contains non-positively-oriented triangles")
        n1, n2, n3 = (np.linalg.norm(d, axis=1) for d in (d1, d2, d3))
        self.h = float(max(n1.max(), n2.max(), n3.max()))
        dot = lambda a, b: np.einsum("ij,ij->i", a, b)
        # the largest corner cosine is the smallest angle: at p0, p1, p2
        cos = dot(d1, d2) / (n1 * n2)
        np.maximum(cos, -dot(d1, d3) / (n1 * n3), out=cos)
        np.maximum(cos, dot(d2, d3) / (n2 * n3), out=cos)
        self.min_angle_deg = float(np.degrees(np.arccos(min(cos.max(), 1.0))))
        ang, floor = self.min_angle_deg, DEFAULT_CONFIG.min_angle_deg
        if ang < floor:
            raise MeshQualityError(
                f"minimum triangle angle {ang:.3f} deg below floor {floor:g} deg")


def generate_mesh(shape, rings: int, sectors: int) -> TriMesh:
    """Mapped polar grid of ``shape``: 1 + rings * rays vertices.

    The shape states its fan of rays (``fan``), its ``center`` and its
    ``boundary_radius``.  A closed fan wraps the last ray onto the first.
    An open fan is a meridian half-plane: its end rays are snapped onto the
    symmetry axis and form the flat side of the boundary loop.
    """
    angles, closed = shape.fan(sectors)
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

    return TriMesh(vertices=verts, triangles=triangles,
                   boundary_edges=np.array(boundary, dtype=np.int64),
                   domain=shape)


def refine(mesh: TriMesh) -> TriMesh:
    """Uniform 4-way split, midpoints appended in first-appearance order.

    Edges are numbered by walking the triangles' edges (ab, bc, ca) in
    order.  Midpoints of the edges that ``mesh.domain.curved_edges`` names
    move along their ray from the domain's ``center`` onto its
    ``boundary_radius``: exact (a no-op) on straight pieces, it restores
    corner/curvature geometry otherwise.  Other midpoints stay, so one
    between two axis nodes keeps r = 0 exactly.
    """
    V, tri = mesh.vertices, mesh.triangles
    nv = len(V)
    occurrences = tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = np.sort(occurrences, axis=1)
    codes, first, inverse = np.unique(keys[:, 0] * nv + keys[:, 1],
                                      return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    edges = keys[first[order]]                  # unique edges, first seen first

    def mid(e: np.ndarray) -> np.ndarray:
        """Vertex index of the midpoint of each edge in ``e``."""
        e = np.sort(np.asarray(e, dtype=np.int64).reshape(-1, 2), axis=1)
        return nv + rank[np.searchsorted(codes, e[:, 0] * nv + e[:, 1])]

    mab, mbc, mca = (nv + rank[inverse]).reshape(-1, 3).T
    a, b, c = tri.T
    tris = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca],
                    axis=1).reshape(-1, 3)
    be = mesh.boundary_edges
    m = mid(be)
    new_boundary = np.stack([be[:, 0], m, m, be[:, 1]], axis=1).reshape(-1, 2)
    verts = np.concatenate([V, (V[edges[:, 0]] + V[edges[:, 1]]) / 2.0])

    shape = mesh.domain
    curved = () if shape is None else shape.curved_edges(mesh)
    if len(curved):
        center = np.asarray(shape.center, dtype=float)
        i = mid(curved)
        # math.atan2: numpy's SIMD arctan2 may differ from it in the last bit
        theta = np.array([math.atan2(y, x) for x, y in verts[i] - center])
        verts[i] = center + shape.boundary_radius(theta)[:, None] * \
            np.stack([np.cos(theta), np.sin(theta)], axis=1)

    return TriMesh(vertices=verts, triangles=tris, boundary_edges=new_boundary,
                   domain=shape)


def mesh_levels(shape, rings: int, sectors: int,
                levels: int) -> list[TriMesh]:
    """``levels`` meshes of a planar domain or a solid, coarse to fine."""
    if levels < 1:
        raise DomainError(f"need at least one mesh level, got {levels}")
    meshes = [generate_mesh(shape, rings, sectors)]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))
    return meshes


# ---------------------------------------------------------------------------
# the model's measure and weighted quadrature on meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure:
    """Point densities of one FEM model on its 2-D chart.

    ``dist`` is the model distance t(x) to the weight origin (the
    Poincare disk's refuses points past its margin); ``area``,
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


def _poincare_dist(pts: np.ndarray) -> np.ndarray:
    """Hyperbolic distance to the origin of points that keep the fixed
    margin from the ideal boundary: |x| <= 1 - ``hyperbolic_margin``."""
    rmax, margin = float(np.max(_norm(pts))), DEFAULT_CONFIG.hyperbolic_margin
    if rmax > 1.0 - margin:
        raise DomainError(f"hyperbolic mesh reaches |x| = {rmax:.4f}; "
                          f"must stay below 1 - {margin:g}")
    return poincare_distance(pts)


PLANE = Measure(_norm, _one, _one, _one)
# The 2-D Dirichlet energy is conformally invariant, so the stiffness keeps
# Euclidean gradients; area and length pick up the conformal factor.
POINCARE_DISK = Measure(_poincare_dist, lambda p: conformal_factor(p) ** 2,
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
                       fn=None):
    """int_Omega fn(t(x)) dmu with the 3-point edge-midpoint triangle rule.

    ``fn`` maps distance values to integrand values (default 1), or to a
    stack of k integrands, shape (k, T, 3), for a list of k integrals.
    The area element is the density of ``measure(form)``; for n = 3 the
    mesh is the meridian of a solid of revolution.
    """
    meas = measure(form)
    p = mesh.vertices[mesh.triangles]
    mids = np.stack([(p[:, 0] + p[:, 1]) / 2.0,
                     (p[:, 1] + p[:, 2]) / 2.0,
                     (p[:, 2] + p[:, 0]) / 2.0], axis=1)   # (T, 3, 2)
    t = meas.dist(mids)
    vals = np.exp(-w.phi(t))
    if fn is not None:
        vals = vals * fn(t)
    vals = vals * meas.area(mids)
    sums = np.sum(mesh.areas / 3.0 * np.sum(vals, axis=-1), axis=-1)
    return (meas.revolution * sums).tolist()


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
                                fn=None):
    """int over the boundary loop of fn(t(x)) dmu-hat with 2-point Gauss per
    edge; a stack of k integrands, shape (k, B, 2), gives a list of k
    integrals.  On the meridian of a solid the axis edges add nothing: their
    Gauss points have r = 0 exactly, where the length density vanishes."""
    meas = measure(form)
    pts, wts = boundary_gauss_points(mesh)
    t = meas.dist(pts)
    vals = np.exp(-w.phi(t))
    if fn is not None:
        vals = vals * fn(t)
    vals = vals * meas.length(pts)
    return (meas.revolution * np.sum(wts * vals, axis=(-2, -1))).tolist()
