"""Weighted P1 finite elements for the Steklov problem.

The weak form pairs the weighted Dirichlet energy against the weighted
boundary mass.  One assembler serves every model: the plane, the
Poincare disk and the azimuthal modes of an axisymmetric solid differ only
in the ``Measure`` densities (see ``mesh2d.measure``), plus an m^2/r^2
term and an axis condition for the modes m >= 1.  The sparse pencil
K u = sigma M_b u is solved by shift-invert Lanczos on boundary vectors;
its finite eigenvalues are those of the Dirichlet-to-Neumann map, since
M_b vanishes off the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
# row g: the 3x3 outer product of _BARY3[g], flattened like a local block
_BARY3_OUTER = np.einsum("gi,gj->gij", _BARY3, _BARY3).reshape(3, 9)


class FactorizationError(RuntimeError):
    """The sparse shift-invert factorization or its Lanczos iteration failed."""


@dataclass
class AssembledSystem:
    """Stiffness over all nodes, boundary mass, boundary index list and the
    mesh extent (largest coordinate range), which sets the solver shift;
    a solid's mode m adds m^2 times its ``azimuthal`` block to K."""

    stiffness: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    boundary_index: np.ndarray
    extent: float
    azimuthal: sp.csr_matrix | None = None


def assemble_p1(mesh: TriMesh, meas: Measure, w: RadialWeight,
                edges: np.ndarray, azimuthal: bool = False) -> AssembledSystem:
    """Weighted stiffness K and boundary mass M_b of one P1 pencil.

    K: e^{-phi} grad u . grad v times the stiffness density, weight at the
    centroid; with ``azimuthal`` the block e^{-phi} u v / r of a solid's
    modes comes along, on three interior points.  M_b: e^{-phi} u v times
    the length density on the Steklov ``edges``, 2-point Gauss.
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
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    csr = lambda data: sp.coo_matrix((data.ravel(), (rows, cols)),
                                     shape=(nv, nv)).tocsr()
    K, R = csr(local), None
    if azimuthal:
        qpts = np.einsum("gi,tia->tga", _BARY3, p)    # (T, 3, 2) interior
        r_q = qpts[:, :, 0]
        if np.any(r_q <= 0.0):
            raise DomainError("interior quadrature point fell on the axis")
        f_q = np.exp(-w.phi(meas.dist(qpts))) / r_q
        R = csr(((areas / 3.0)[:, None] * f_q) @ _BARY3_OUTER)

    pts, wts = boundary_gauss_points(mesh, edges)  # (B,2,2), (B,2)
    f = np.exp(-w.phi(meas.dist(pts))) * meas.length(pts)
    shape = np.stack([(1.0 - _GAUSS2) / 2.0, (1.0 + _GAUSS2) / 2.0],
                     axis=1)                     # (2 gauss, 2 nodes)
    # local edge mass: sum_g wts_g f_g N_g N_g^T
    locm = np.einsum("bg,gi,gj->bij", wts * f, shape, shape)
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    Mb = sp.coo_matrix((locm.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()

    return AssembledSystem(stiffness=K, boundary_mass=Mb,
                           boundary_index=np.unique(edges),
                           extent=float(np.ptp(mesh.vertices, axis=0).max()),
                           azimuthal=R)


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


def solve_spectrum(sys: AssembledSystem, k: int,
                   metadata: dict | None = None) -> SteklovSpectrum:
    """k+1 smallest eigenpairs of K u = sigma M_b u by shift-invert Lanczos.

    For a shift s < 0, K - s M_b is positive definite (K is semidefinite
    and M_b is positive on its kernel; K alone is definite for the modes
    m >= 1 with the axis removed), so it is factored once with a symmetric
    fill-reducing order (minimum degree on A^T + A) and diagonal pivots,
    and the eigenvalues nearest s are the smallest.  s = -1/extent scales
    with the domain as the spectrum does (sigma(t Omega) = sigma(Omega)/t).
    M_b vanishes off the boundary, so the Lanczos vectors hold boundary
    entries only: the operator scatters them into a zero vector, solves
    and gathers the boundary rows, with M_bb as inner product.  Ritz
    residuals stop at ``eigen_rtol``, late enough for rounding to bring in
    the second copy of a repeated eigenvalue.  The start vector is fixed, so
    repeated solves agree bit for bit, and the basis is capped at the
    boundary size.  Returns the M_bb-orthonormal boundary traces.
    """
    b = sys.boundary_index
    nb = len(b)
    if k + 2 > nb:
        raise DomainError(
            f"requested {k + 1} eigenvalues from a {nb}-node boundary")
    K, Mb, shift = sys.stiffness, sys.boundary_mass, -1.0 / sys.extent
    Mbb = Mb[np.ix_(b, b)].tocsr()
    v0 = np.random.default_rng(0).standard_normal(K.shape[0])[b]
    full = np.zeros(K.shape[0])

    def op_inv(y):
        full[b] = y.ravel()
        return lu.solve(full)[b]

    try:
        lu = spla.splu((K - shift * Mb).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        # shift-invert mode applies only OPinv and M, never A: Mbb stands
        # in for A's shape and type
        vals, vecs = spla.eigsh(
            Mbb, k + 1, M=Mbb, sigma=shift, which="LM", v0=v0,
            ncv=min(nb, max(2 * k + 3, 20)), tol=DEFAULT_CONFIG.eigen_rtol,
            OPinv=spla.LinearOperator((nb, nb), op_inv, dtype=K.dtype))
    except RuntimeError as exc:
        raise FactorizationError(f"shift-invert eigensolve failed: {exc}") \
            from exc
    order = np.argsort(vals)
    return SteklovSpectrum(eigenvalues=vals[order],
                           boundary_eigenvectors=vecs[:, order],
                           metadata=dict(metadata or {}))


def domain_spectrum(mesh: TriMesh, form: SpaceForm, w: RadialWeight,
                    k: int) -> SteklovSpectrum:
    """Assemble and solve one mesh; attaches mesh/weight metadata."""
    sys = assemble(mesh, form, w)
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
    return solve_spectrum(sys, k, metadata=meta)
