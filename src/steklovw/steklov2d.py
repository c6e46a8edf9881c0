"""Weighted P1 finite elements for the Steklov problem.

The weak form pairs the weighted Dirichlet energy against the weighted
boundary mass.  One assembler serves every model: the plane, the
Poincare disk and the azimuthal modes of an axisymmetric solid differ only
in the ``Measure`` densities (see ``mesh2d.measure``), plus an m^2/r^2
term and an axis condition for the modes m >= 1.  The Dirichlet-to-Neumann
matrix is the boundary Schur complement of the stiffness; the small dense
pencil on boundary nodes is solved directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT_CONFIG
from .geometry import Curvature, DomainError, RadialWeight, SpaceForm
from .mesh2d import (_GAUSS2, Measure, TriMesh, boundary_gauss_points,
                     measure)
from .spectrum import SteklovSpectrum

_BARY3 = np.array([[2 / 3, 1 / 6, 1 / 6],
                   [1 / 6, 2 / 3, 1 / 6],
                   [1 / 6, 1 / 6, 2 / 3]])   # interior points, never on the axis


class FactorizationError(RuntimeError):
    """Sparse factorization of the interior block failed."""


@dataclass
class AssembledSystem:
    """Stiffness over all nodes plus boundary mass and boundary index list."""

    stiffness: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    boundary_index: np.ndarray


def assemble_p1(mesh: TriMesh, meas: Measure, w: RadialWeight,
                edges: np.ndarray, mode: int = 0,
                fixed: np.ndarray | None = None) -> AssembledSystem:
    """Weighted stiffness K and boundary mass M_b of one P1 pencil.

    K: e^{-phi} grad u . grad v times the stiffness density, weight at the
    centroid; a ``mode`` m >= 1 of a solid adds e^{-phi} m^2 u v / r on
    three interior points.  M_b: e^{-phi} u v times the length density on
    the Steklov ``edges``, 2-point Gauss.  ``fixed`` nodes (the axis for
    m >= 1) carry u = 0 and are removed.
    """
    nv = len(mesh.vertices)
    p = mesh.vertices[mesh.triangles]            # (T, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(det <= 0):
        raise DomainError("degenerate or misoriented triangle in mesh")
    areas = 0.5 * det
    # gradient of hat i is perp(opposite edge) / (2 area)
    grads = np.empty((len(areas), 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    cent = p.mean(axis=1)                        # (T, 2)
    wq = np.exp(-w.phi(meas.dist(cent)))
    # local 3x3 blocks: wq * area * density * grads grads^T
    local = np.einsum("t,tia,tja->tij", wq * areas * meas.stiffness(cent),
                      grads, grads)
    if mode:
        qpts = np.einsum("gi,tia->tga", _BARY3, p)    # (T, 3, 2) interior
        r_q = qpts[:, :, 0]
        if np.any(r_q <= 0.0):
            raise DomainError("interior quadrature point fell on the axis")
        f_q = np.exp(-w.phi(meas.dist(qpts))) * (mode * mode) / r_q
        local = local + np.einsum("t,tg,gi,gj->tij", areas / 3.0, f_q,
                                  _BARY3, _BARY3)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()

    pts, wts = boundary_gauss_points(mesh, edges)  # (B,2,2), (B,2)
    f = np.exp(-w.phi(meas.dist(pts))) * meas.length(pts)
    shape = np.stack([(1.0 - _GAUSS2) / 2.0, (1.0 + _GAUSS2) / 2.0],
                     axis=1)                     # (2 gauss, 2 nodes)
    # local edge mass: sum_g wts_g f_g N_g N_g^T
    locm = np.einsum("bg,gi,gj->bij", wts * f, shape, shape)
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    Mb = sp.coo_matrix((locm.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()

    boundary = np.unique(edges)
    if fixed is not None:
        keep = np.setdiff1d(np.arange(nv), fixed)
        renum = -np.ones(nv, dtype=np.int64)
        renum[keep] = np.arange(len(keep))
        K, Mb = K[np.ix_(keep, keep)].tocsr(), Mb[np.ix_(keep, keep)].tocsr()
        boundary = np.sort(renum[np.setdiff1d(boundary, fixed)])
    return AssembledSystem(stiffness=K, boundary_mass=Mb,
                           boundary_index=boundary)


def assemble(mesh: TriMesh, form: SpaceForm,
             w: RadialWeight) -> AssembledSystem:
    """Assemble weighted stiffness K and boundary mass M_b on a 2-D mesh."""
    if form.dim != 2:
        raise DomainError("steklov2d assembles 2-D problems only")
    if form.curvature is Curvature.HYPERBOLIC:
        rmax = float(np.max(np.linalg.norm(mesh.vertices, axis=1)))
        margin = DEFAULT_CONFIG.hyperbolic_margin
        if rmax > 1.0 - margin:
            raise DomainError(
                f"hyperbolic mesh reaches |x| = {rmax:.4f}; must stay below "
                f"1 - {margin:g}")
    return assemble_p1(mesh, measure(form), w, mesh.boundary_edges)


def dtn_reduce(sys: AssembledSystem) -> tuple[np.ndarray, np.ndarray]:
    """Boundary Schur complement S = K_bb - K_bi K_ii^{-1} K_ib and mass."""
    nv = sys.stiffness.shape[0]
    b = sys.boundary_index
    mask = np.ones(nv, dtype=bool)
    mask[b] = False
    i = np.nonzero(mask)[0]

    K = sys.stiffness.tocsc()
    K_bb = K[np.ix_(b, b)].toarray()
    if len(i):
        K_ii = K[np.ix_(i, i)].tocsc()
        K_ib = K[np.ix_(i, b)].toarray()
        try:
            lu = spla.splu(K_ii)
        except RuntimeError as exc:
            raise FactorizationError(
                f"interior stiffness factorization failed: {exc}") from exc
        X = lu.solve(K_ib)
        S = K_bb - K[np.ix_(b, i)].toarray() @ X
    else:
        S = K_bb
    S = 0.5 * (S + S.T)
    Mb = sys.boundary_mass[np.ix_(b, b)].toarray()
    Mb = 0.5 * (Mb + Mb.T)
    return S, Mb


def solve_spectrum(schur: np.ndarray, mass: np.ndarray, k: int,
                   metadata: dict | None = None) -> SteklovSpectrum:
    """k+1 smallest eigenpairs of S u = sigma M u (mass-orthonormal)."""
    nb = schur.shape[0]
    if k + 1 > nb:
        raise DomainError(f"requested {k + 1} eigenvalues from a {nb}-node boundary")
    try:
        vals, vecs = sla.eigh(schur, mass)
    except sla.LinAlgError as exc:
        raise FactorizationError(
            f"boundary mass not positive definite: {exc}") from exc
    vals = vals[:k + 1]
    vecs = vecs[:, :k + 1]
    return SteklovSpectrum(eigenvalues=vals, boundary_eigenvectors=vecs,
                           metadata=dict(metadata or {}))


def domain_spectrum(mesh: TriMesh, form: SpaceForm, w: RadialWeight,
                    k: int) -> SteklovSpectrum:
    """Assemble, reduce and solve one mesh; attaches mesh/weight metadata."""
    sys = assemble(mesh, form, w)
    S, Mb = dtn_reduce(sys)
    meta = {
        "h": mesh.h,
        "curvature": form.curvature.label,
        "n": form.dim,
        "weight": w.label,
        "vertices": len(mesh.vertices),
        "boundary_nodes": len(sys.boundary_index),
    }
    if mesh.domain is not None:
        meta["domain"] = mesh.domain.label
    return solve_spectrum(S, Mb, k, metadata=meta)
