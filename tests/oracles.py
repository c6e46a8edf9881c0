"""Independent oracles used by the tests.

The finite-difference march below discretizes the radial boundary problem
directly (3-point scheme plus one-sided endpoint derivative) and never
touches the package's Runge-Kutta shooting path, so agreement between the
two is a genuine cross-check.

The restarted shooting value integrates the same equation with scipy's
DOP853 at rtol 1e-13 from its own two-term series, restarting at every
node of a weight table so that no step straddles a kink of phi'; it
shares no code with the package's collocation or shooting paths.

The dense reductions of an assembled P1 pencil to its boundary solve it
with a dense symmetric-definite ``eigh``: the eigenvalues come from the
boundary block of the shifted inverse, the traces are checked against
the boundary Schur complement.  They check the package's block Krylov
solve on the same matrices by a different method, and for a solid every
eigenvalue of every mode, merged, checks which of them the package asks
each mode for.  ARPACK's single-vector shift-invert Lanczos, the
package's solver before the block method, checks it per level.

The Kummer values give beta_i of a Euclidean ball in closed form under
phi = -a t and phi = -b t^2, through scipy's confluent hypergeometric
function; they share nothing with the package's radial solvers.

The per-integrand radial quadrature sums a fixed 40-point Gauss-Legendre
rule over uniform panels of [0, R], evaluating the radial solution afresh
for each integral through its public evaluator ``sol(t)``; it checks the
package's ball integrals of G, H and the frozen-boundary profile, which
run on the adaptive panel rule of ``geometry.ball_weighted_volume``.

The ball-volume quadrature sums scipy's 40-point Gauss-Legendre rule
over every interval of a weight table (or over uniform panels for a
closed-form weight), each evaluated once, with no error control shared
with the package's adaptive 8/16-point panel rule.  A table's phi there
is the integral of its np.interp'd ``np.gradient`` slopes, summed by the
trapezoid rule, which is exact on each linear piece; the package writes
the same function as a quadratic per interval.

The per-call P1 assembler builds every local block with ``einsum`` and
each matrix through COO, from the mesh and the weight in one pass; it is
the reference for the package's ``P1Level``, which splits the
weight-independent data off and scatters each weight into one shared
pattern.

The whole-loop boundary rule walks every boundary edge of a mesh with
its own 2-point Gauss points, axis edges of a meridian included (their
length density is 0); it is the reference for ``P1Level``'s boundary
integral over the Steklov edges alone.

The dict-based 4-way split is the reference for the package's array-based
``mesh2d.refine``: it numbers midpoints one triangle edge at a time.

The off-centre-disk oracle at the end (polynomial Ritz/Schur solve with
polar quadrature about the weight origin) shares no code with the
package's mesh, FEM or volume-matching paths either; it uses numpy and
scipy only.
"""
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import cumulative_trapezoid, quad, solve_ivp
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.optimize import brentq
from scipy.special import hyp1f1, roots_legendre

from steklovw.config import DEFAULT_CONFIG
from steklovw.geometry import Curvature, DomainError, RadialWeight, SpaceForm
from steklovw.mesh2d import MERIDIAN, TriMesh, measure, outer_edges
from steklovw.steklov2d import AssembledSystem


def fd_beta(n, kappa, phi_prime, R, m, mode=1):
    """Shooting value T'(R)/T(R) from a second-order finite-difference march."""
    lam = mode * (mode + n - 2)
    if kappa == 0:
        S = lambda t: t
        C = lambda t: 1.0
    elif kappa == -1:
        S, C = math.sinh, math.cosh
    else:
        S, C = math.sin, math.cos
    h = R / m
    c1 = mode * phi_prime(0.0) / (2 * mode + n - 1)
    T = [0.0] * (m + 1)
    T[1] = h ** mode * (1 + c1 * h)
    T[2] = (2 * h) ** mode * (1 + c1 * 2 * h)
    for j in range(2, m):
        t = j * h
        p = (n - 1) * C(t) / S(t) - phi_prime(t)
        q = lam / S(t) ** 2
        a = 1.0 / h ** 2 + p / (2 * h)
        b = -2.0 / h ** 2 - q
        c = 1.0 / h ** 2 - p / (2 * h)
        T[j + 1] = -(b * T[j] + c * T[j - 1]) / a
    dT = (3 * T[m] - 4 * T[m - 1] + T[m - 2]) / (2 * h)
    return dT / T[m]


def fd_beta_rich(n, kappa, phi_prime, R, m=4000, mode=1):
    """Richardson-extrapolated finite-difference value (error ~ 1e-9)."""
    b1 = fd_beta(n, kappa, phi_prime, R, m, mode)
    b2 = fd_beta(n, kappa, phi_prime, R, 2 * m, mode)
    return b2 + (b2 - b1) / 3.0


def shoot_beta(n, kappa, phi_prime, R, mode=1, breaks=()):
    """Shooting value T'(R)/T(R) by DOP853 at rtol 1e-13, restarted at every
    break inside (0, R) (the nodes of a weight table).

    The solve starts at t0 = 1e-4 R from T = t^i (1 + c1 t); the series
    error there is O(t0^2), and what of it excites the singular solution
    t^{-(i+n-2)} has shrunk by (t0/R)^{2i+n-2} <= 1e-8 at R.
    """
    lam = mode * (mode + n - 2)
    S, C = {0: (lambda t: t, lambda t: 1.0), -1: (math.sinh, math.cosh),
            1: (math.sin, math.cos)}[kappa]
    t0 = 1e-4 * R
    c1 = mode * phi_prime(0.0) / (2 * mode + n - 1)
    y = [t0 ** mode * (1 + c1 * t0),
         t0 ** (mode - 1) * (mode + (mode + 1) * c1 * t0)]

    def rhs(t, y):
        s = S(t)
        return [y[1], -((n - 1) * C(t) / s - phi_prime(t)) * y[1]
                + lam / (s * s) * y[0]]

    edges = [t0, *sorted(float(b) for b in breaks if t0 < b < R), R]
    for a, b in zip(edges[:-1], edges[1:]):
        y = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13,
                      atol=1e-300).y[:, -1]
    return y[1] / y[0]


def kummer_beta(n, i, R, a=0.0, b=0.0):
    """Exact beta_i of the Euclidean n-ball of radius R under phi = -a t
    (b = 0) or phi = -b t^2 (a = 0).

    With T = t^i u the mode-i equation becomes Kummer's equation
    z u'' + (B - z) u' - A u = 0, solved by u = M(A, B, z): A = i,
    B = 2i + n - 1, z = -a t for the linear weight and A = i/2,
    B = i + n/2, z = -b t^2 for the quadratic one (verified by
    substitution).  beta_i = T'(R)/T(R), with M' = (A/B) M(A+1, B+1, .).
    """
    if b == 0:
        A, B, z, dz = i, 2 * i + n - 1, -a * R, -a
    else:
        A, B, z, dz = i / 2, i + n / 2, -b * R * R, -2 * b * R
    return i / R + dz * (A / B) * hyp1f1(A + 1, B + 1, z) / hyp1f1(A, B, z)


# ---------------------------------------------------------------------------
# The per-call P1 assembler: local blocks by einsum, matrices through COO
# ---------------------------------------------------------------------------

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


def boundary_integral_loop(mesh: TriMesh, form: SpaceForm, w: RadialWeight,
                           fn=None):
    """int over the whole boundary loop of fn(t(x)) e^{-phi} times the
    length density, 2-point Gauss per edge, times the model's revolution;
    on a meridian the axis edges add nothing, as their Gauss points have
    r = 0 exactly."""
    meas = measure(form)
    pts, wts = boundary_gauss_points(mesh)
    t = meas.dist(pts)
    vals = np.exp(-w.phi(t))
    if fn is not None:
        vals = vals * fn(t)
    vals = vals * meas.length(pts)
    return float(meas.revolution * np.sum(wts * vals))


_BARY3 = np.array([[2 / 3, 1 / 6, 1 / 6],
                   [1 / 6, 2 / 3, 1 / 6],
                   [1 / 6, 1 / 6, 2 / 3]])   # interior points, never on the axis
# row g: the 3x3 outer product of _BARY3[g], flattened like a local block
_BARY3_OUTER = np.einsum("gi,gj->gij", _BARY3, _BARY3).reshape(3, 9)


def assemble_reference(mesh: TriMesh, form: SpaceForm,
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
    areas = mesh.areas
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


def mode_reference(sys: AssembledSystem, m: int,
                   axis: np.ndarray) -> AssembledSystem:
    """Mode m >= 1 of the mode-0 system ``sys``: m^2 azimuthal blocks added
    and the ``axis`` nodes (u = 0 there) removed."""
    keep = np.setdiff1d(np.arange(sys.stiffness.shape[0]), axis)
    sub = lambda A: A[np.ix_(keep, keep)].tocsr()
    off_axis = ~np.isin(sys.boundary_index, axis)
    return AssembledSystem(
        sub(sys.stiffness + (m * m) * sys.azimuthal), sub(sys.boundary_mass),
        np.searchsorted(keep, sys.boundary_index[off_axis]), sys.extent,
        sys.boundary_points[off_axis], mode=m)



# ---------------------------------------------------------------------------
# Dense Dirichlet-to-Neumann reduction of an assembled P1 pencil
# ---------------------------------------------------------------------------

def dtn_reduce(sys):
    """Boundary Schur complement S = K_bb - K_bi K_ii^{-1} K_ib and mass.

    ``sys`` is a ``steklov2d.AssembledSystem``; both returned matrices are
    dense and symmetrized.
    """
    nv = sys.stiffness.shape[0]
    b = sys.boundary_index
    mask = np.ones(nv, dtype=bool)
    mask[b] = False
    i = np.nonzero(mask)[0]

    K = sys.stiffness.tocsc()
    S = K[np.ix_(b, b)].toarray()
    if len(i):
        lu = spla.splu(K[np.ix_(i, i)].tocsc())
        S = S - K[np.ix_(b, i)].toarray() @ lu.solve(K[np.ix_(i, b)].toarray())
    S = 0.5 * (S + S.T)
    Mb = sys.boundary_mass[np.ix_(b, b)].toarray()
    return S, 0.5 * (Mb + Mb.T)


def _dense_eigenvalues(sys):
    """Every eigenvalue sigma of the reduced pencil, ascending, from the
    dense inverse side: with T the boundary block of (K - s M_b)^{-1} at
    s = -1/extent, M_bb T M_bb x = mu M_bb x has mu = 1/(sigma - s).

    The Schur complement S cancels O(1/h) entries down to O(1) and leaves
    up to 4e-13 sigma_1 of rounding in the small eigenvalues; T has no
    such cancellation.  T is solved with the package's factor order
    (minimum degree on A^T + A, diagonal pivots): another order rounds the
    pencil differently and moves its small eigenvalues by up to 1.3e-13
    sigma_1 on the standard disks, so the factor is shared input and the
    check is of the eigensolve."""
    b = sys.boundary_index
    n, nb = sys.stiffness.shape[0], len(b)
    shift = -1.0 / sys.extent
    lu = spla.splu((sys.stiffness - shift * sys.boundary_mass).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    unit = np.zeros((n, nb))
    unit[b, np.arange(nb)] = 1.0
    T = lu.solve(unit)[b]
    Mbb = sys.boundary_mass[np.ix_(b, b)].toarray()
    Mbb = 0.5 * (Mbb + Mbb.T)
    A = Mbb @ (0.5 * (T + T.T)) @ Mbb
    mu = eigh(0.5 * (A + A.T), Mbb, eigvals_only=True)
    return np.sort(shift + 1.0 / mu)


def dense_spectrum(sys, k):
    """sigma_0..sigma_k of the reduced pencil by a dense eigh."""
    return _dense_eigenvalues(sys)[:k + 1]


def lanczos_spectrum(sys, k):
    """sigma_0..sigma_k of an assembled P1 pencil by ARPACK's single-vector
    shift-invert Lanczos (``eigsh``) at residual 1e-14, on boundary vectors
    with M_bb as inner product and the same shift -1/extent and factor
    order as the package's block solve."""
    b = sys.boundary_index
    nb, n = len(b), sys.stiffness.shape[0]
    K, Mb, shift = sys.stiffness, sys.boundary_mass, -1.0 / sys.extent
    Mbb = Mb[np.ix_(b, b)].tocsr()
    lu = spla.splu((K - shift * Mb).tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    full = np.zeros(n)

    def op_inv(y):
        full[b] = y.ravel()
        return lu.solve(full)[b]

    # shift-invert mode applies only OPinv and M, never A: Mbb stands in
    # for A's shape and type
    vals = spla.eigsh(
        Mbb, k + 1, M=Mbb, sigma=shift, which="LM",
        v0=np.random.default_rng(0).standard_normal(n)[b],
        ncv=min(nb, max(2 * k + 3, 20)), tol=1e-14, return_eigenvectors=False,
        OPinv=spla.LinearOperator((nb, nb), op_inv, dtype=K.dtype))
    return np.sort(vals)


def dense_axisym_spectrum(mode_systems, k):
    """sigma_0..sigma_k of a solid and their mode tags from its assembled
    modes m = 0, 1, ...: every eigenvalue of each mode's reduced pencil,
    once for m = 0 and twice for m >= 1."""
    entries = sorted((float(v), m, copy)
                     for m, sys in enumerate(mode_systems)
                     for v in _dense_eigenvalues(sys)
                     for copy in range(1 if m == 0 else 2))[:k + 1]
    return np.array([e[0] for e in entries]), [e[1] for e in entries]


# ---------------------------------------------------------------------------
# Off-centre disk: weighted Steklov sigma_1 by a polynomial Ritz/Schur solve
# ---------------------------------------------------------------------------
#
# Everything below uses numpy and scipy only.  The domain is the disk of
# radius ``radius`` centred at ``center``; the weight exp(-phi(|x|)) stays
# anchored at the origin, which must lie inside the disk.  Area integrals
# use polar quadrature about the weight origin (Gauss-Legendre in r times
# the periodic trapezoid rule in theta), where r -> exp(-phi(r)) is smooth
# even when |x| -> exp(-phi(|x|)) has a kink; boundary integrals use the
# trapezoid rule in the boundary angle, where |x| stays away from 0.  The
# node counts below resolve both to round-off for offsets up to 0.3 R
# (doubling them moves sigma_1 and the area by less than 1e-13).

_N_THETA, _N_R, _N_BOUNDARY = 256, 48, 256


def radial_integral(sol, values_fn):
    """omega_{n-1} int_0^R values_fn(t, T, T') S^{n-1} e^{-phi} dt for one
    integrand: 40-point Gauss-Legendre on 32 uniform panels, with T and T'
    evaluated for this integral alone.  No node sits at t = 0, where G has
    the removable singularity T^2 C/S."""
    form, w = sol.form, sol.weight
    n = form.dim
    x, wts = roots_legendre(40)
    edges = np.linspace(0.0, sol.R, 33)
    half = 0.5 * np.diff(edges)
    ts = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x
    T, dT = sol(ts)
    s = {0: ts.copy(), -1: np.sinh(ts), 1: np.sin(ts)}[form.kappa]
    integrand = values_fn(ts, T, dT) * s ** (n - 1) * np.exp(-w.phi(ts))
    body = float(np.sum(half * (integrand @ wts)))
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) * body


def concave_table(nodes=641, t_end=1.25, base=0.3, knot=0.4, slope=1.2):
    """A criterion-4-style tabulated profile: phi = -int g, with the
    non-decreasing slope g = base + slope * max(t - knot, 0) >= 0."""
    ts = np.linspace(0.0, t_end, nodes)
    g = base + slope * np.maximum(ts - knot, 0.0)
    return ts, -cumulative_trapezoid(g, ts, initial=0.0)


def table_phi(ts, phi):
    """phi of a weight table as a function: phi(ts[0]) + int phi', with
    phi' = np.interp(t, ts, np.gradient(phi, ts)) and each interval's
    integral the trapezoid of its two end values."""
    ts = np.asarray(ts, dtype=float)
    g = np.gradient(np.asarray(phi, dtype=float), ts)
    at_nodes = phi[0] + cumulative_trapezoid(g, ts, initial=0.0)

    def value(t):
        k = np.clip(np.searchsorted(ts, t, "right") - 1, 0, len(ts) - 2)
        return at_nodes[k] + 0.5 * (t - ts[k]) * (g[k] + np.interp(t, ts, g))
    return value


def ball_volume(n, kappa, phi, R, breaks=(), points=40, panels=16):
    """omega_{n-1} int_0^R S_kappa(t)^{n-1} exp(-phi(t)) dt by ``points``-point
    Gauss-Legendre on each interval between the ``breaks`` inside (0, R)
    (the nodes of a weight table), or on ``panels`` uniform panels when
    there are none; ``phi`` maps distance arrays to values."""
    cuts = [float(c) for c in breaks if 0.0 < c < R]
    edges = (np.array([0.0, *cuts, R]) if cuts
             else np.linspace(0.0, R, panels + 1))
    x, wx = roots_legendre(points)
    a, b = edges[:-1, None], edges[1:, None]
    t = 0.5 * (a + b) + 0.5 * (b - a) * x
    s = {0: t, -1: np.sinh(t), 1: np.sin(t)}[kappa]
    terms = 0.5 * (b - a) * wx * s ** (n - 1) * np.exp(-phi(t))
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) * math.fsum(terms.ravel())


def subdivide(vertices, triangles, boundary_edges, curved_edges, shape):
    """Uniform 4-way split by a per-triangle dict walk; returns (vertices,
    triangles, boundary_edges).  Midpoints are numbered as they are first
    met along the triangles' edges ab, bc, ca; those of ``curved_edges``
    move along their ray from ``shape.center`` onto its boundary."""
    verts = list(map(tuple, vertices))
    mid_index = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in mid_index:
            mid_index[key] = len(verts)
            pa, pb = vertices[a], vertices[b]
            verts.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
        return mid_index[key]

    new_tris = []
    for a, b, c in triangles:
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_tris.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc),
                         (mab, mbc, mca)])
    new_boundary = []
    for a, b in boundary_edges:
        m = midpoint(a, b)
        new_boundary.extend([(a, m), (m, b)])
    verts = np.array(verts, dtype=float)

    for a, b in curved_edges:
        m = mid_index[(a, b) if a < b else (b, a)]
        center = np.asarray(shape.center, dtype=float)
        d = verts[m] - center
        theta = math.atan2(d[1], d[0])
        r = shape.boundary_radius(theta)[0]
        verts[m] = center + r * np.array([math.cos(theta), math.sin(theta)])
    return (verts, np.array(new_tris, dtype=np.int64),
            np.array(new_boundary, dtype=np.int64))


def _polar_nodes(center, radius):
    """Points and weights of the polar rule about the origin on the disk."""
    cx, cy = center
    if math.hypot(cx, cy) >= radius:
        raise ValueError("the weight origin must lie inside the disk")
    theta = 2.0 * np.pi * np.arange(_N_THETA) / _N_THETA
    u = np.cos(theta) * cx + np.sin(theta) * cy
    rho = u + np.sqrt(u * u - cx * cx - cy * cy + radius * radius)
    xi, wxi = np.polynomial.legendre.leggauss(_N_R)
    xi, wxi = 0.5 * (xi + 1.0), 0.5 * wxi
    r = rho[:, None] * xi[None, :]
    wts = (2.0 * np.pi / _N_THETA) * rho[:, None] * wxi[None, :] * r
    x = r * np.cos(theta)[:, None]
    y = r * np.sin(theta)[:, None]
    return x.ravel(), y.ravel(), r.ravel(), wts.ravel()


def disk_weighted_area(phi, center, radius=1.0):
    """int_disk exp(-phi(|x|)) dx by polar quadrature about the origin."""
    _, _, r, wts = _polar_nodes(center, radius)
    return float(np.sum(wts * np.exp(-phi(r))))


def ball_radius_for_volume(phi, volume):
    """Radius rho with 2 pi int_0^rho r exp(-phi(r)) dr equal to volume."""
    def excess(rho):
        val, _ = quad(lambda t: t * math.exp(-phi(t)), 0.0, rho,
                      epsabs=1e-14, epsrel=1e-13, limit=200)
        return 2.0 * math.pi * val - volume

    hi = 1.0
    while excess(hi) < 0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=1e-15, rtol=1e-14)


def _legendre_with_derivative(s, deg):
    """Legendre P_0..P_deg and their derivatives at s, shape (deg+1, len(s))."""
    P = np.zeros((deg + 1, s.size))
    D = np.zeros_like(P)
    P[0] = 1.0
    if deg >= 1:
        P[1] = s
        D[1] = 1.0
    for n in range(1, deg):
        P[n + 1] = ((2 * n + 1) * s * P[n] - n * P[n - 1]) / (n + 1)
        D[n + 1] = D[n - 1] + (2 * n + 1) * P[n]
    return P, D


def _harmonic_traces(zeta, degree):
    """Re/Im zeta^k (k <= degree) and their zeta-gradients at complex zeta."""
    vals, gx, gy = [np.ones(zeta.shape)], [np.zeros(zeta.shape)], \
        [np.zeros(zeta.shape)]
    for k in range(1, degree + 1):
        zk = zeta ** k
        dk = k * zeta ** (k - 1)
        # Cauchy-Riemann: grad Re f = (Re f', -Im f'), grad Im f = (Im f', Re f')
        vals += [zk.real, zk.imag]
        gx += [dk.real, dk.imag]
        gy += [-dk.imag, dk.real]
    return np.array(vals), np.array(gx), np.array(gy)


def _bubble_gradients(sx, sy, degree):
    """s-gradients of (1 - |s|^2) P_i(sx) P_j(sy), i + j <= degree - 2."""
    m = degree - 2
    Px, Dx = _legendre_with_derivative(sx, m)
    Py, Dy = _legendre_with_derivative(sy, m)
    cap = 1.0 - sx * sx - sy * sy
    gx, gy = [], []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            q = Px[i] * Py[j]
            gx.append(-2.0 * sx * q + cap * Dx[i] * Py[j])
            gy.append(-2.0 * sy * q + cap * Px[i] * Dy[j])
    return np.array(gx), np.array(gy)


def offset_disk_sigma1(phi, center, radius=1.0, degree=20):
    """First nonzero weighted Steklov eigenvalue of a translated disk.

    Ritz space: all polynomials of total degree <= ``degree`` in the local
    variable s = (x - center) / radius, split as harmonic traces
    Re/Im s^k plus interior bubbles (1 - |s|^2) q.  The bubbles have zero
    trace, so they are eliminated by a Schur complement of the weighted
    stiffness matrix; the reduced pencil (S, B) on the traces is then a
    symmetric-definite eigenproblem whose lowest eigenvalue is the
    constant mode 0 and whose next one is sigma_1.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    cx, cy = center
    x, y, r, wts = _polar_nodes(center, radius)
    dens = wts * np.exp(-phi(r))
    sx, sy = (x - cx) / radius, (y - cy) / radius

    _, hgx, hgy = _harmonic_traces(sx + 1j * sy, degree)
    bgx, bgy = _bubble_gradients(sx, sy, degree)
    gx = np.vstack([hgx, bgx]) / radius
    gy = np.vstack([hgy, bgy]) / radius
    A = (gx * dens) @ gx.T + (gy * dens) @ gy.T
    nh = hgx.shape[0]
    Ahh, Ahb, Abb = A[:nh, :nh], A[:nh, nh:], A[nh:, nh:]
    S = Ahh - Ahb @ cho_solve(cho_factor(Abb), Ahb.T)
    S = 0.5 * (S + S.T)

    t = 2.0 * np.pi * np.arange(_N_BOUNDARY) / _N_BOUNDARY
    bx, by = cx + radius * np.cos(t), cy + radius * np.sin(t)
    trace, _, _ = _harmonic_traces(np.exp(1j * t), degree)
    bdens = (2.0 * np.pi * radius / _N_BOUNDARY) * np.exp(-phi(np.hypot(bx, by)))
    B = (trace * bdens) @ trace.T

    return float(eigh(S, B, eigvals_only=True)[1])


def offset_disk_comparison(phi, phi_prime, center, radius=1.0, degree=20,
                           linear_a=None):
    """Domain sigma_1, matched-ball radius and sigma_1, and their gap.

    The ball side uses the same weighted volume as the domain (polar
    quadrature), the radius from ``ball_radius_for_volume`` and sigma_1 from
    ``kummer_beta`` when ``linear_a`` is given (phi = -a t), otherwise from
    the Richardson finite-difference march ``fd_beta_rich``.  The gap is
    1/sigma_1(domain) - 1/sigma_1(ball), the n = 2 Brock comparison.
    """
    sigma_dom = offset_disk_sigma1(phi, center, radius, degree)
    volume = disk_weighted_area(phi, center, radius)
    R = ball_radius_for_volume(phi, volume)
    if linear_a is not None:
        sigma_ball = kummer_beta(2, 1, R, a=linear_a)
    else:
        sigma_ball = fd_beta_rich(2, 0, phi_prime, R)
    return {"sigma1_domain": sigma_dom, "volume": volume, "R": R,
            "sigma1_ball": sigma_ball,
            "gap": 1.0 / sigma_dom - 1.0 / sigma_ball}
