"""Weighted P1 finite elements for the Steklov problem.

The weak form pairs the weighted Dirichlet energy against the weighted
boundary mass.  A ``P1Level`` holds all of a mesh's data but the weight,
which ``assemble`` scatters in; the plane, the Poincare disk and the
meridian of a solid differ only in the ``Measure`` densities (see
``mesh2d.measure``).  A solid separates into azimuthal Fourier modes
u = U(r, z) e^{i m theta}; its mode-0 system carries the e^{-phi}/r block
that m^2 times adds to the stiffness of mode m, whose axis nodes are
removed (u = 0 there for m >= 1).  Mode eigenvalues enter a solid's
spectrum once for m = 0 and twice for m >= 1.  K u = sigma M_b u is
solved by block shift-invert Krylov on boundary vectors; its finite
eigenvalues are the Dirichlet-to-Neumann map's, as M_b is 0 inside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT_CONFIG
from .geometry import DomainError, RadialWeight, SpaceForm
from .mesh2d import (_GAUSS2, MERIDIAN, TriMesh, axis_nodes,
                     boundary_gauss_points, measure, outer_edges)
from .spectrum import SteklovSpectrum

# Azimuthal modes solved for a solid's merged spectrum.
MODES = (0, 1, 2)

_BARY3 = np.array([[2 / 3, 1 / 6, 1 / 6],
                   [1 / 6, 2 / 3, 1 / 6],
                   [1 / 6, 1 / 6, 2 / 3]])   # interior points, never on the axis
_PAIRS = np.array([[0, 1, 2], [1, 2, 0]])    # local node pairs (i, j)
_BARY3_OFF = _BARY3[:, _PAIRS[0]] * _BARY3[:, _PAIRS[1]]    # (point, pair)


class FactorizationError(RuntimeError):
    """The sparse shift-invert factorization or its Krylov iteration failed."""


@dataclass
class AssembledSystem:
    """Stiffness over all nodes, boundary mass, boundary index list and the
    mesh extent (largest coordinate range), which sets the solver shift;
    the coordinates of the boundary nodes and the azimuthal ``mode`` (0 in
    the plane) choose the solver's start block.  A solid's mode m adds m^2
    times its ``azimuthal`` block to K.  All share one symmetric pattern."""

    stiffness: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    boundary_index: np.ndarray
    extent: float
    boundary_points: np.ndarray
    azimuthal: sp.csr_matrix | None = None
    mode: int = 0


class P1Level:
    """All of one mesh's P1 data under ``measure(form)`` but e^{-phi}: per
    triangle the centroid distance and area x stiffness density x grad
    phi_i . grad phi_j of its three node pairs (the diagonal is minus their
    row sum: a triangle's hat gradients sum to zero); per Steklov edge its
    Gauss-point distances and weights times the length density; on a
    meridian three interior-point distances and their (area/3)/r.  Int32
    ``slots`` scatter a pair's entry to (i, j) and (j, i) of one sorted CSR
    pattern, so every matrix is bitwise symmetric; a solid's modes m >= 1
    drop the axis nodes through ``keep``."""

    def __init__(self, mesh: TriMesh, form: SpaceForm):
        meas, v, tri = measure(form), mesh.vertices, mesh.triangles
        self.mesh, self.form, self.solid = mesh, form, meas is MERIDIAN
        p = v[tri].transpose(1, 0, 2)                 # (3, T, 2)
        cent = p.mean(axis=0)
        self.cent_dist = meas.dist(cent)
        # grad phi_i = perp(e_i) / (2 area), e_i the edge opposite node i
        e = p[[2, 0, 1]] - p[[1, 2, 0]]
        self.offd = np.einsum("ita,ita->it", e[_PAIRS[0]], e[_PAIRS[1]]) \
            * (meas.stiffness(cent) / (4.0 * mesh.areas))
        # slot rows: the pairs (i, j), then (j, i), then the nodes (i, i)
        nv, i, j = len(v), np.r_[_PAIRS[0], _PAIRS[1], 0:3], \
            np.r_[_PAIRS[1], _PAIRS[0], 0:3]
        codes, slots = np.unique(tri.T[i] * nv + tri.T[j], return_inverse=True)
        slot = lambda r, c: np.searchsorted(codes, r * nv + c).astype(np.int32)
        self.slots = slots.reshape(9, -1).astype(np.int32)
        self.indices = (codes % nv).astype(np.int32)
        self.indptr = slot(np.arange(nv + 1), 0)
        edges = outer_edges(mesh) if self.solid else mesh.boundary_edges
        pts, wts = boundary_gauss_points(mesh, edges)   # (B,2,2), (B,2)
        self.gauss_dist, self.gauss_coef = meas.dist(pts).T, \
            (wts * meas.length(pts)).T
        self.edge_slots = slot(edges.T[[0, 1, 0, 1]], edges.T[[1, 0, 0, 1]])
        self.boundary_index = np.unique(edges)
        self.extent = float(np.ptp(v, axis=0).max())
        if self.solid:
            qpts = np.einsum("gi,ita->gta", _BARY3, p)   # (3, T, 2)
            if np.any(qpts[..., 0] <= 0.0):
                raise DomainError("interior quadrature point fell on the axis")
            self.q_dist, self.q_coef = meas.dist(qpts), (mesh.areas / 3) / qpts[..., 0]
            # the m >= 1 pattern: the slots that survive dropping the axis
            self.off_axis = np.setdiff1d(np.arange(nv), axis_nodes(mesh))
            sub = sp.csr_matrix((np.arange(1.0, len(codes) + 1), self.indices,
                                 self.indptr))[self.off_axis][:, self.off_axis]
            self.keep = (sub.data - 1).astype(np.int32)
            self.sub_indices, self.sub_indptr = sub.indices, sub.indptr

    def csr(self, slots, off, diag) -> sp.csr_matrix:
        """Pair entries ``off`` scattered to both their slots, ``diag`` after."""
        data = np.bincount(slots.ravel(), np.concatenate([off, off, diag])
                           .ravel(), minlength=len(self.indices))
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(len(self.indptr) - 1,) * 2)


def assemble(level: P1Level, w: RadialWeight) -> AssembledSystem:
    """Weighted stiffness K and boundary mass M_b of the P1 pencil of one
    weight on a ``P1Level``: one exp and one scatter each.

    K: e^{-phi} grad u . grad v times the stiffness density, weight at the
    centroid.  M_b: e^{-phi} u v times the length density on the Steklov
    edges, 2-point Gauss: the boundary loop in the plane, the
    ``outer_edges`` of a meridian.  A meridian's system also carries the
    azimuthal block e^{-phi} u v / r of its modes, on three interior points.
    """
    a = level.offd * np.exp(-w.phi(level.cent_dist))
    K, R = level.csr(level.slots, a, -(a + a[[2, 0, 1]])), None
    if level.solid:
        f = np.exp(-w.phi(level.q_dist)) * level.q_coef
        R = level.csr(level.slots, _BARY3_OFF.T @ f, (_BARY3 ** 2).T @ f)
    f = np.exp(-w.phi(level.gauss_dist)) * level.gauss_coef    # (2 gauss, B)
    shape = np.stack([(1.0 - _GAUSS2) / 2.0, (1.0 + _GAUSS2) / 2.0])
    Mb = level.csr(level.edge_slots, shape.prod(axis=0, keepdims=True) @ f,
                   (shape ** 2) @ f)
    return AssembledSystem(K, Mb, level.boundary_index, level.extent,
                           level.mesh.vertices[level.boundary_index], R)


def _mode(level: P1Level, sys: AssembledSystem, m: int) -> AssembledSystem:
    """Mode m >= 1 of the mode-0 system ``sys``: m^2 azimuthal blocks added
    and the axis nodes (u = 0 there) removed."""
    n = len(level.off_axis)
    sub = lambda data: sp.csr_matrix(
        (data[level.keep], level.sub_indices, level.sub_indptr), shape=(n, n))
    on = np.isin(sys.boundary_index, level.off_axis)
    return AssembledSystem(
        sub(sys.stiffness.data + (m * m) * sys.azimuthal.data),
        sub(sys.boundary_mass.data),
        np.searchsorted(level.off_axis, sys.boundary_index[on]), sys.extent,
        sys.boundary_points[on], mode=m)


def assemble_mode(level: P1Level, w: RadialWeight, m: int) -> AssembledSystem:
    """Mode-m stiffness and outer-boundary mass of a meridian level, axis
    dofs removed for m >= 1."""
    if m < 0 or not level.solid:
        raise DomainError("azimuthal modes m >= 0 need a meridian level")
    return _mode(level, assemble(level, w), m) if m else assemble(level, w)


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
        cols = [np.ones(len(p))] + [f(j * theta) for j in range(1, k // 2 + 2)
                                    for f in (np.cos, np.sin)][:k]
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
    b, nb = sys.boundary_index, len(sys.boundary_index)
    if k + 2 > nb:
        raise DomainError(
            f"requested {k + 1} eigenvalues from a {nb}-node boundary")
    K, Mb, shift = sys.stiffness, sys.boundary_mass, -1.0 / sys.extent
    Mbb = Mb[np.ix_(b, b)].tocsr()
    # K - s M_b on the pattern K and M_b share is symmetric: CSR arrays = CSC
    A = sp.csc_matrix((K.data - shift * Mb.data, K.indices, K.indptr),
                      shape=K.shape)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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


def domain_spectrum(level: P1Level, w: RadialWeight,
                    k: int) -> SteklovSpectrum:
    """sigma_0..sigma_k of one mesh level, assembled once, with mesh/weight
    metadata.

    A planar or Poincare-disk pencil is solved as it stands, traces
    included.  A solid merges its azimuthal ``MODES``, each m >= 1 counted
    twice: mode 0 is asked for k+1 eigenvalues and each m >= 1 for
    ceil((k+1)/2), all it can place among the first k+1.
    """
    mesh, form, sys = level.mesh, level.form, assemble(level, w)
    meta = {"h": mesh.h, "curvature": form.curvature.label, "n": form.dim,
            "weight": w.label, "vertices": len(mesh.vertices),
            "boundary_nodes": len(sys.boundary_index)}
    if mesh.domain is not None:
        meta["domain"] = mesh.domain.label
    if sys.azimuthal is None:
        return solve_spectrum(sys, k, metadata=meta)
    entries = []
    for m in MODES:
        mode, mult = (sys, 1) if m == 0 else (_mode(level, sys, m), 2)
        for val in solve_spectrum(mode, k // mult).eigenvalues:
            entries += [(float(val), m, copy) for copy in range(mult)]
    entries = sorted(entries)[:k + 1]
    return SteklovSpectrum(eigenvalues=np.array([e[0] for e in entries]),
                           modes=[e[1] for e in entries], metadata=meta)
