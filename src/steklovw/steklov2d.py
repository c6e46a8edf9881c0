"""Weighted P1 finite elements for the Steklov problem.

The weak form pairs the weighted Dirichlet energy against the weighted
boundary mass.  One assembler serves every model: the plane, the
Poincare disk and the meridian of an axisymmetric solid differ only in
the ``Measure`` densities (see ``mesh2d.measure``).  A solid separates
into azimuthal Fourier modes u = U(r, z) e^{i m theta}; its mode-0 system
carries the e^{-phi}/r block that m^2 times adds to the stiffness of mode
m, whose axis nodes are removed (u = 0 there for m >= 1).  Mode
eigenvalues enter a solid's spectrum once for m = 0 and twice for m >= 1.
The sparse pencil K u = sigma M_b u is solved by block shift-invert Krylov
on boundary vectors; its finite eigenvalues are those of the
Dirichlet-to-Neumann map, since M_b vanishes off the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT_CONFIG
from .geometry import Curvature, DomainError, RadialWeight, SpaceForm
from .mesh2d import (_GAUSS2, MERIDIAN, TriMesh, axis_nodes,
                     boundary_gauss_points, measure, outer_edges)
from .spectrum import SteklovSpectrum

# Azimuthal modes solved for a solid's merged spectrum.
MODES = (0, 1, 2)
_SOLID = SpaceForm(Curvature.EUCLIDEAN, 3)

_BARY3 = np.array([[2 / 3, 1 / 6, 1 / 6],
                   [1 / 6, 2 / 3, 1 / 6],
                   [1 / 6, 1 / 6, 2 / 3]])   # interior points, never on the axis
# row g: the 3x3 outer product of _BARY3[g], flattened like a local block
_BARY3_OUTER = np.einsum("gi,gj->gij", _BARY3, _BARY3).reshape(3, 9)


class FactorizationError(RuntimeError):
    """The sparse shift-invert factorization or its Krylov iteration failed."""


@dataclass
class AssembledSystem:
    """Stiffness over all nodes, boundary mass, boundary index list and the
    mesh extent (largest coordinate range), which sets the solver shift;
    the coordinates of the boundary nodes and the azimuthal ``mode`` (0 in
    the plane) choose the solver's start block.  A solid's mode m adds m^2
    times its ``azimuthal`` block to K."""

    stiffness: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    boundary_index: np.ndarray
    extent: float
    boundary_points: np.ndarray
    azimuthal: sp.csr_matrix | None = None
    mode: int = 0


def assemble(mesh: TriMesh, form: SpaceForm,
             w: RadialWeight) -> AssembledSystem:
    """Weighted stiffness K and boundary mass M_b of the P1 pencil of the
    model ``measure(form)`` on a 2-D mesh.

    K: e^{-phi} grad u . grad v times the stiffness density, weight at the
    centroid.  M_b: e^{-phi} u v times the length density on the Steklov
    edges, 2-point Gauss: the boundary loop in the plane, the
    ``outer_edges`` of a meridian.  A meridian's system also carries the
    azimuthal block e^{-phi} u v / r of its modes, on three interior points.
    """
    meas = measure(form)
    solid = meas is MERIDIAN
    if form.curvature is Curvature.HYPERBOLIC:
        rmax = float(np.max(np.linalg.norm(mesh.vertices, axis=1)))
        margin = DEFAULT_CONFIG.hyperbolic_margin
        if rmax > 1.0 - margin:
            raise DomainError(
                f"hyperbolic mesh reaches |x| = {rmax:.4f}; must stay below "
                f"1 - {margin:g}")
    nv = len(mesh.vertices)
    p = mesh.vertices[mesh.triangles]            # (T, 3, 2)
    areas = mesh.signed_areas()
    if np.any(areas <= 0):
        raise DomainError("degenerate or misoriented triangle in mesh")
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
    if solid:
        qpts = np.einsum("gi,tia->tga", _BARY3, p)    # (T, 3, 2) interior
        r_q = qpts[:, :, 0]
        if np.any(r_q <= 0.0):
            raise DomainError("interior quadrature point fell on the axis")
        f_q = np.exp(-w.phi(meas.dist(qpts))) / r_q
        R = csr(((areas / 3.0)[:, None] * f_q) @ _BARY3_OUTER)

    edges = outer_edges(mesh) if solid else mesh.boundary_edges
    pts, wts = boundary_gauss_points(mesh, edges)  # (B,2,2), (B,2)
    f = np.exp(-w.phi(meas.dist(pts))) * meas.length(pts)
    shape = np.stack([(1.0 - _GAUSS2) / 2.0, (1.0 + _GAUSS2) / 2.0],
                     axis=1)                     # (2 gauss, 2 nodes)
    # local edge mass: sum_g wts_g f_g N_g N_g^T
    locm = np.einsum("bg,gi,gj->bij", wts * f, shape, shape)
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    Mb = sp.coo_matrix((locm.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()

    b = np.unique(edges)
    return AssembledSystem(stiffness=K, boundary_mass=Mb, boundary_index=b,
                           extent=float(np.ptp(mesh.vertices, axis=0).max()),
                           boundary_points=mesh.vertices[b], azimuthal=R)


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
    sys = assemble(mesh, _SOLID, w)
    return _mode(sys, m, axis_nodes(mesh)) if m else sys


def _start_block(sys: AssembledSystem, k: int) -> np.ndarray:
    """k+2 boundary columns: k+1 smooth traces, then one seeded random
    vector, so that no eigenvector is M_bb-orthogonal to the whole block.

    A solid's mode m >= 1 starts from r^m z^j, j = 0..k, the traces of the
    ball's mode-m eigenfunctions; a planar or mode-0 pencil from 1, cos j
    theta, sin j theta of the angle about the boundary centroid.
    """
    p = sys.boundary_points / sys.extent
    if sys.mode:
        cols = [p[:, 0] ** sys.mode * p[:, 1] ** j for j in range(k + 1)]
    else:
        d = p - p.mean(axis=0)
        theta = np.arctan2(d[:, 1], d[:, 0])
        cols = [np.ones(len(p))]
        for j in range(1, (k + 1) // 2 + 1):
            cols += [np.cos(j * theta), np.sin(j * theta)]
        cols = cols[:k + 1]
    cols.append(np.random.default_rng(0).standard_normal(len(p)))
    return np.column_stack(cols)


def _orthonormalize(W, V, MV, Mbb):
    """(Q, M_bb Q): an M_bb-orthonormal basis of W's columns with the span
    of the M_bb-orthonormal V (MV = M_bb V) projected out.

    Two sweeps of one block projection against V and Gram-Schmidt among
    the columns, which resolves each remainder down to rounding relative
    to its own column (normalising by the Gram matrix would lose all below
    sqrt(eps)).  The first sweep drops a column whose remainder is at most
    ``eigen_rtol`` of its norm, a direction V already holds; the second
    one that loses half its norm, rounding left over from the first.
    """
    rows = len(W)
    floors = DEFAULT_CONFIG.eigen_rtol * np.sqrt(
        np.einsum("ij,ij->j", W, Mbb @ W))
    for _ in range(2):
        MW = Mbb @ W
        C = MV.T @ W
        W, MW = W - V @ C, MW - MV @ C
        Q, MQ = [], []
        for w, mw, floor in zip(W.T, MW.T, floors):
            for q, mq in zip(Q, MQ):
                c = mq @ w
                w, mw = w - c * q, mw - c * mq
            norm = math.sqrt(max(w @ mw, 0.0))
            if norm > floor:
                Q.append(w / norm)
                MQ.append(mw / norm)
        W, MW = (np.array(A).reshape(-1, rows).T for A in (Q, MQ))
        floors = np.full(len(Q), 0.5)
    return W, MW


def solve_spectrum(sys: AssembledSystem, k: int,
                   metadata: dict | None = None) -> SteklovSpectrum:
    """k+1 smallest eigenpairs of K u = sigma M_b u by block shift-invert
    Krylov.

    For a shift s < 0, K - s M_b is positive definite (K is semidefinite
    and M_b is positive on its kernel; K alone is definite for the modes
    m >= 1 with the axis removed), so it is factored once with a symmetric
    fill-reducing order (minimum degree on A^T + A) and diagonal pivots,
    and the eigenvalues nearest s are the smallest.  s = -1/extent scales
    with the domain as the spectrum does (sigma(t Omega) = sigma(Omega)/t).
    M_b vanishes off the boundary, so the operator (K - s M_b)^{-1} M_b
    sees boundary entries only: a block of boundary vectors is scattered
    into zero columns, back-solved in one multi-right-hand-side solve and
    gathered, with M_bb as inner product.  The basis grows from
    ``_start_block`` by the images of its newest block, projected and
    M_bb-orthonormalised (``_orthonormalize``), and Rayleigh-Ritz over the
    whole basis stops once the seeded start column has been multiplied and
    every wanted shift-invert residual is at most ``eigen_rtol`` times its
    Ritz value mu = 1/(sigma - s).  A block holds every copy of a repeated
    eigenvalue from the start.  A basis that reaches the boundary size or
    stops growing before that raises ``FactorizationError``.  The start is
    fixed, so repeated solves agree bit for bit.  Returns the
    M_bb-orthonormal boundary traces.
    """
    b = sys.boundary_index
    nb = len(b)
    if k + 2 > nb:
        raise DomainError(
            f"requested {k + 1} eigenvalues from a {nb}-node boundary")
    K, Mb, shift = sys.stiffness, sys.boundary_mass, -1.0 / sys.extent
    Mbb = Mb[np.ix_(b, b)].tocsr()
    try:
        lu = spla.splu((K - shift * Mb).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"shift-invert factorization failed: {exc}") \
            from exc
    rtol = DEFAULT_CONFIG.eigen_rtol
    V = MV = AV = np.empty((nb, 0))
    new, Mnew = _orthonormalize(_start_block(sys, k), V, MV, Mbb)
    start = new.shape[1]
    while True:
        full = np.zeros((K.shape[0], new.shape[1]))
        full[b] = Mnew
        V, MV = np.hstack([V, new]), np.hstack([MV, Mnew])
        AV = np.hstack([AV, lu.solve(full)[b]])
        H = MV.T @ AV
        mu, Y = np.linalg.eigh(0.5 * (H + H.T))
        mu, Y = mu[-k - 1:], Y[:, -k - 1:]
        X = V @ Y
        R = AV @ Y - X * mu
        res = np.sqrt(np.einsum("ij,ij->j", R, Mbb @ R))
        # the seeded column is multiplied at least once (unless the start
        # spans every boundary vector): smooth columns that are exact
        # eigenvectors converge at once, before anything else could show
        grown = V.shape[1] > start or V.shape[1] == nb
        if grown and np.all(res <= rtol * mu):
            break
        new, Mnew = _orthonormalize(AV[:, -new.shape[1]:], V, MV, Mbb)
        new, Mnew = new[:, :nb - V.shape[1]], Mnew[:, :nb - V.shape[1]]
        if not new.shape[1]:
            raise FactorizationError(
                f"block Krylov basis stalled at {V.shape[1]} of {nb} "
                f"columns with residual {np.max(res / mu):.1e}")
    return SteklovSpectrum(eigenvalues=(shift + 1.0 / mu)[::-1],
                           boundary_eigenvectors=X[:, ::-1],
                           metadata=dict(metadata or {}))


def domain_spectrum(mesh: TriMesh, form: SpaceForm, w: RadialWeight,
                    k: int) -> SteklovSpectrum:
    """sigma_0..sigma_k of one mesh, assembled once, with mesh/weight
    metadata.

    A planar or Poincare-disk pencil is solved as it stands, traces
    included.  A solid merges its azimuthal ``MODES``, each m >= 1 counted
    twice: mode 0 is asked for k+1 eigenvalues and each m >= 1 for
    ceil((k+1)/2), all it can place among the first k+1.
    """
    sys = assemble(mesh, form, w)
    meta = {"h": mesh.h, "curvature": form.curvature.label, "n": form.dim,
            "weight": w.label, "vertices": len(mesh.vertices),
            "boundary_nodes": len(sys.boundary_index)}
    if mesh.domain is not None:
        meta["domain"] = mesh.domain.label
    if sys.azimuthal is None:
        return solve_spectrum(sys, k, metadata=meta)
    axis, entries = axis_nodes(mesh), []
    for m in MODES:
        mode, mult = (sys, 1) if m == 0 else (_mode(sys, m, axis), 2)
        for val in solve_spectrum(mode, k // mult).eigenvalues:
            entries += [(float(val), m, copy) for copy in range(mult)]
    entries = sorted(entries)[:k + 1]
    return SteklovSpectrum(eigenvalues=np.array([e[0] for e in entries]),
                           modes=[e[1] for e in entries], metadata=meta)
