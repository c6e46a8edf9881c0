import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles import (assemble_reference, boundary_integral_loop,
                     dense_axisym_spectrum, dense_spectrum, dtn_reduce,
                     lanczos_spectrum, mode_reference)
from steklovw import steklov2d
from steklovw.geometry import Curvature, DomainError, RadialWeight, SpaceForm
from steklovw.mesh2d import (Domain2D, MeridianDomain, TriMesh, axis_nodes,
                             generate_mesh, mesh_levels, outer_edges)
from steklovw.radial import sigma1_ball
from steklovw.steklov2d import (AssembledSystem, FactorizationError, P1Level,
                                assemble, assemble_mode, domain_spectrum,
                                solve_spectrum)
from steklovw.verify import (MeshHierarchy, standard_spheroids,
                             standard_sweep_euclidean,
                             standard_sweep_hyperbolic,
                             standard_weights_euclidean,
                             standard_weights_hyperbolic)

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
H2 = SpaceForm(Curvature.HYPERBOLIC, 2)
E3 = SpaceForm(Curvature.EUCLIDEAN, 3)
W0 = RadialWeight.constant()


@pytest.fixture(scope="module")
def disk_mesh():
    return generate_mesh(Domain2D.disk(1.0), 8, 64)


def test_constants_in_stiffness_kernel(disk_mesh):
    sys = assemble(P1Level(disk_mesh, E2), RadialWeight.quadratic(0.5, 0.25))
    one = np.ones(sys.stiffness.shape[0])
    assert np.max(np.abs(sys.stiffness @ one)) < 1e-12


def test_constant_weight_scales_stiffness(disk_mesh):
    c = 1.3
    k0 = assemble(P1Level(disk_mesh, E2), RadialWeight.constant(0.0)).stiffness
    kc = assemble(P1Level(disk_mesh, E2), RadialWeight.constant(c)).stiffness
    diff = (kc - math.exp(-c) * k0)
    assert abs(diff).max() < 1e-14 * abs(k0).max()


def test_boundary_mass_totals_weighted_length(disk_mesh):
    w = RadialWeight.linear(0.5)
    sys = assemble(P1Level(disk_mesh, E2), w)
    total = sys.boundary_mass.sum()
    length = boundary_integral_loop(disk_mesh, E2, w)
    assert total == pytest.approx(length, rel=1e-13)


def test_schur_kernel_and_symmetry(disk_mesh):
    sys = assemble(P1Level(disk_mesh, E2), W0)
    S, Mb = dtn_reduce(sys)
    scale = np.max(np.abs(S))
    assert np.max(np.abs(S @ np.ones(S.shape[0]))) < 1e-10 * scale
    assert np.max(np.abs(S - S.T)) < 1e-12 * scale
    # eigenvalues of the pencil are nonnegative up to roundoff
    vals = np.linalg.eigvalsh(S)
    assert vals.min() > -1e-10 * scale


def test_schur_matches_minimal_extension_energy(disk_mesh):
    """Rayleigh quotient of S equals the energy of the harmonic extension."""
    sys = assemble(P1Level(disk_mesh, E2), RadialWeight.linear(0.5))
    S, _ = dtn_reduce(sys)
    K = sys.stiffness.tocsc()
    b = sys.boundary_index
    nv = K.shape[0]
    mask = np.ones(nv, dtype=bool)
    mask[b] = False
    i = np.nonzero(mask)[0]
    import scipy.sparse.linalg as spla
    lu = spla.splu(K[np.ix_(i, i)].tocsc())
    rng = np.random.default_rng(7)
    for _ in range(3):
        g = rng.standard_normal(len(b))
        u = np.zeros(nv)
        u[b] = g
        u[i] = -lu.solve(K[np.ix_(i, b)].toarray() @ g)
        energy = u @ (K @ u)
        assert g @ (S @ g) == pytest.approx(energy, rel=1e-9)


def test_disk_spectrum_converges_to_integers():
    specs = MeshHierarchy(Domain2D.disk(1.0), E2, 8, 64, 3).spectra(W0, 5)
    exact = np.array([0, 1, 1, 2, 2, 3], dtype=float)
    errs = np.array([np.abs(s.eigenvalues - exact)[1:].max() for s in specs])
    assert np.all(errs[:-1] / errs[1:] > 3.0)
    assert errs[-1] < 0.01


def test_spectral_ordering_and_zero_mode(disk_mesh):
    spec = domain_spectrum(P1Level(disk_mesh, E2), RadialWeight.linear(0.5), 5)
    vals = spec.eigenvalues
    assert np.all(np.diff(vals) >= -1e-12)
    assert abs(vals[0]) <= 1e-8 * vals[1]
    v0 = spec.boundary_eigenvectors[:, 0]
    dev = np.max(np.abs(v0 - v0.mean())) / abs(v0.mean())
    assert dev < 1e-6


def test_eigenvectors_mass_orthonormal(disk_mesh):
    sys = assemble(P1Level(disk_mesh, E2), W0)
    spec = solve_spectrum(sys, 4)
    V = spec.boundary_eigenvectors
    b = sys.boundary_index
    gram = V.T @ sys.boundary_mass[np.ix_(b, b)] @ V
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


_LEVEL_CASES = {
    "offset-disk-E2": (Domain2D.disk(1.0, center=(0.3, 0.0)), E2),
    "ellipse-H2": (Domain2D.ellipse(0.5, 0.35), H2),
    "spheroid-E3": (standard_spheroids()[2], E3),
}


def _level_systems(level, w):
    """The planar system of a level, or a solid's modes 0, 1 and 2."""
    if level.solid:
        return [assemble_mode(level, w, m) for m in (0, 1, 2)]
    return [assemble(level, w)]


@pytest.mark.parametrize("case", list(_LEVEL_CASES))
def test_level_assembly_matches_reference(case):
    """K, M_b and R of the three standard weights, applied in turn to one
    level object on levels 0-1, agree with the per-call einsum/COO
    assembler ``oracles.assemble_reference`` within 1e-13 of max|entry|,
    compared as matrices (the shared pattern may hold explicit zeros); a
    solid's modes 1 and 2 against ``oracles.mode_reference``, and their
    boundary index and points, which the level builds once, against the
    per-call ``isin`` / ``searchsorted`` of the off-axis Steklov nodes."""
    dom, form = _LEVEL_CASES[case]
    hier = MeshHierarchy(dom, form, levels=2)
    for i, mesh in enumerate(hier.meshes):
        level = hier.level(i)
        for w in standard_weights_euclidean():
            ref = assemble_reference(mesh, form, w)
            want = [ref] + [mode_reference(ref, m, axis_nodes(mesh))
                            for m in (1, 2) if level.solid]
            for got, ref in zip(_level_systems(level, w), want, strict=True):
                pairs = [(got.stiffness, ref.stiffness),
                         (got.boundary_mass, ref.boundary_mass)]
                if ref.azimuthal is not None:
                    pairs.append((got.azimuthal, ref.azimuthal))
                for A, B in pairs:
                    assert abs(A - B).max() <= 1e-13 * abs(B).max()
                assert np.array_equal(got.boundary_index, ref.boundary_index)
                assert np.array_equal(got.boundary_points, ref.boundary_points)
                assert (got.extent, got.mode) == (ref.extent, ref.mode)
        if level.solid:
            b = np.unique(outer_edges(mesh))
            off = np.setdiff1d(np.arange(len(mesh.vertices)), axis_nodes(mesh))
            on = np.isin(b, off)
            for m in (1, 2):
                sys = assemble_mode(level, W0, m)
                assert np.array_equal(sys.boundary_index,
                                      np.searchsorted(off, b[on]))
                assert np.array_equal(sys.boundary_points,
                                      mesh.vertices[b[on]])


@pytest.mark.parametrize("dom, form", [
    (MeridianDomain.ball(1.0), E3), (MeridianDomain.spheroid(1.2, 0.8), E3),
    (Domain2D.ellipse(0.5, 0.35), H2), (Domain2D.disk(1.0, center=(0.3, 0.0)), E2),
])
def test_boundary_integral_matches_whole_loop_rule(dom, form):
    """``P1Level.boundary_integral``, M_b's Gauss rule on the Steklov edges
    alone, equals the whole-loop rule of ``oracles.boundary_integral_loop``
    (a meridian's axis edges included, where the length density is 0)
    within 1e-15 relative at level 2, with and without an integrand."""
    mesh = mesh_levels(dom, 8, 32 if form is E3 else 64, 3)[-1]
    level = P1Level(mesh, form)
    for w in standard_weights_euclidean():
        for fn in (None, lambda t: t * t):
            want = boundary_integral_loop(mesh, form, w, fn)
            assert level.boundary_integral(w, fn) == pytest.approx(
                want, rel=1e-15, abs=0)


@pytest.mark.parametrize("case", list(_LEVEL_CASES))
def test_level_pattern_invariants_and_size(case):
    """What the direct CSC hand-off to SuperLU relies on: K, M_b and R of a
    level share one sorted pattern (the modes m >= 1 one more), every
    matrix is bitwise symmetric, and constants span the kernel of a planar
    or mode-0 K.  The level's arrays stay within 112 B per triangle on
    planar levels and 200 B on meridian levels (9 float64 local entries per
    triangle would not)."""
    dom, form = _LEVEL_CASES[case]
    hier = MeshHierarchy(dom, form)
    w = RadialWeight.quadratic(1.0, 0.25)
    for i, mesh in enumerate(hier.meshes):
        level = hier.level(i)
        systems = _level_systems(level, w)
        for sys in systems:
            K = sys.stiffness
            for A in (K, sys.boundary_mass, sys.azimuthal):
                if A is not None:
                    assert np.shares_memory(A.indices, K.indices)
                    assert np.shares_memory(A.indptr, K.indptr)
                    assert A.has_sorted_indices and (A != A.T).nnz == 0
        if level.solid:
            modes = [sys.stiffness for sys in systems[1:]]
            assert np.shares_memory(modes[0].indices, modes[1].indices)
            assert np.shares_memory(modes[0].indptr, modes[1].indptr)
        K = systems[0].stiffness
        one = np.ones(K.shape[0])
        assert np.max(np.abs(K @ one)) <= 1e-13 * abs(K).max()
        size = sum(a.nbytes for a in vars(level).values()
                   if isinstance(a, np.ndarray))
        assert size <= (200 if level.solid else 112) * len(mesh.triangles)


def _sparse_vs_dense(sys, k):
    got = solve_spectrum(sys, k).eigenvalues
    want = dense_spectrum(sys, k)
    return np.max(np.abs(got - want)) / want[1]


@pytest.mark.parametrize("dom, form, w", [
    (Domain2D.disk(1.0, center=(0.3, 0.0)), E2, RadialWeight.quadratic(1.0, 0.25)),
    (Domain2D.ellipse(0.5, 0.35), H2, RadialWeight.linear(0.5)),
], ids=["offset-disk-E2", "ellipse-H2"])
def test_sparse_solve_matches_dense_oracle(dom, form, w):
    hier = MeshHierarchy(dom, form, 8, 64, 2)
    for level in map(hier.level, range(len(hier.meshes))):
        assert _sparse_vs_dense(assemble(level, w), 5) < 1e-10


@pytest.mark.parametrize("m", [0, 1, 2])
def test_sparse_mode_solve_matches_dense_oracle(m):
    mesh = generate_mesh(standard_spheroids()[2], 8, 32)
    sys = assemble_mode(P1Level(mesh, E3), RadialWeight.linear(0.5), m)
    assert _sparse_vs_dense(sys, 6) < 1e-10


@pytest.mark.parametrize("dom, form, weights", [
    (Domain2D.disk(1.0), E2, standard_weights_euclidean()),
    (Domain2D.disk(math.tanh(0.25)), H2, standard_weights_hyperbolic()),
    (MeridianDomain.ball(1.0), E3, standard_weights_euclidean()),
], ids=["disk-E2", "disk-H2", "ball-E3"])
def test_repeated_eigenvalues_keep_every_copy(dom, form, weights):
    """sigma_1 = sigma_2 (and sigma_3 = sigma_4, ...) on a centred disk and
    the ball's sigma_1..sigma_3 (mode 0 and the mode-1 pair) come out in
    full on every level, also when the request ends on a second copy
    (k = 2, 6).  The start block holds k+2 independent columns, so it meets
    every copy of a repeated eigenvalue; a single start vector would find
    a second copy only through rounding, late.  The dense oracle agrees to
    1.1e-14 sigma_1 here, 90 times inside the bound."""
    hier = MeshHierarchy(dom, form)
    for level, mesh in enumerate(hier.meshes):
        for w in weights:
            if form.dim == 2:
                want = dense_spectrum(assemble(hier.level(level), w), 6)
                assert want[2] - want[1] < 1e-10 * want[1]
            else:
                want, _ = dense_axisym_spectrum(
                    [assemble_mode(hier.level(level), w, m)
                     for m in range(6 + 2)], 6)
            for k in (2, 6):
                spec = hier.spectrum(level, w, k)
                assert np.max(np.abs(spec.eigenvalues - want[:k + 1])) \
                    <= 1e-12 * want[1]
            if form.dim == 3:
                assert sorted(spec.modes[1:4]) == [0, 1, 1]


_TRACE_SYSTEMS = {
    "offset-disk-E2": lambda: assemble(
        MeshHierarchy(Domain2D.disk(1.0, center=(0.3, 0.0)), E2).level(-1),
        RadialWeight.quadratic(1.0, 0.25)),
    "ellipse-H2": lambda: assemble(
        MeshHierarchy(Domain2D.ellipse(0.5, 0.35), H2).level(-1),
        RadialWeight.linear(0.5)),
    **{f"mode{m}": (lambda m=m: assemble_mode(
        MeshHierarchy(standard_spheroids()[2], E3).level(-1),
        RadialWeight.linear(0.5), m)) for m in (0, 1, 2)},
}


@pytest.mark.parametrize("case", list(_TRACE_SYSTEMS))
def test_traces_at_declared_tolerance(case):
    """Boundary traces from the block solve stopped at ``eigen_rtol`` are
    M_bb-orthonormal and solve the dense reduced pencil S x = sigma M_bb x
    with a residual of at most 1e-12 of |S x| (measured at most 7.6e-14 on
    these five L3 systems).  The constant trace of a planar or mode-0
    pencil has S x ~ 0 and is left out of the residual."""
    sys = _TRACE_SYSTEMS[case]()
    spec = solve_spectrum(sys, 6)
    S, Mbb = dtn_reduce(sys)
    V, vals = spec.boundary_eigenvectors, spec.eigenvalues
    assert np.max(np.abs(V.T @ Mbb @ V - np.eye(7))) < 1e-12
    first = 0 if case in ("mode1", "mode2") else 1
    SV = S @ V[:, first:]
    res = np.linalg.norm(SV - (Mbb @ V[:, first:]) * vals[first:], axis=0)
    assert np.all(res <= 1e-12 * np.linalg.norm(SV, axis=0))


def _clusters(vals):
    """Multiplicity pattern: where a value repeats the previous one."""
    return np.diff(vals) <= 1e-10 * vals[1]


@pytest.mark.parametrize("form, doms", [
    (E2, standard_sweep_euclidean()), (H2, standard_sweep_hyperbolic()),
    (E3, standard_spheroids()[2:])], ids=["E2", "H2", "spheroid-modes"])
def test_block_solve_matches_lanczos_per_level(form, doms):
    """Every standard E2 and H2 domain and the three modes of the most
    eccentric spheroid, levels 0-2, under the linear weight both standard
    families share: the block solve at k = 2, 3 and 6 meets ARPACK's
    single-vector Lanczos (the solver it replaced, k = 6) within 1e-12
    sigma_1 with the same multiplicities."""
    w = RadialWeight.linear(0.5)
    for dom in doms:
        hier = MeshHierarchy(dom, form)
        for level in map(hier.level, range(len(hier.meshes))):
            systems = ([assemble_mode(level, w, m) for m in (0, 1, 2)]
                       if form.dim == 3 else [assemble(level, w)])
            for sys in systems:
                want = lanczos_spectrum(sys, 6)
                for k in (2, 3, 6):
                    got = solve_spectrum(sys, k).eigenvalues
                    assert np.max(np.abs(got - want[:k + 1])) <= 1e-12 * want[1]
                    assert np.array_equal(_clusters(got),
                                          _clusters(want[:k + 1]))


def test_seeded_column_finds_what_the_smooth_start_misses(monkeypatch):
    """A pencil whose lowest eigenvector is M-orthogonal to the smooth start
    columns 1, cos theta, sin theta, and whose next three eigenvectors span
    them exactly: the smooth columns converge at once, and only the seeded
    random column of the start block can find sigma_0.  Without that
    column the basis cannot grow past the smooth span."""
    nb = 40
    theta = 2 * np.pi * np.arange(nb) / nb
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    smooth = steklov2d._start_block(
        AssembledSystem(None, None, None, 2.0, pts), 2)[:, :-1]
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(nb)
    x0 -= smooth @ np.linalg.lstsq(smooth, x0, rcond=None)[0]
    Q, _ = np.linalg.qr(np.column_stack(
        [x0, smooth, rng.standard_normal((nb, nb - 4))]))
    sigma = np.arange(1.0, nb + 1.0) / 2.0            # x0 carries 0.5
    full = lambda A: sp.csr_matrix(           # K and M_b share one pattern
        (A.ravel(), np.tile(np.arange(nb), nb), np.arange(0, nb * nb + 1, nb)))
    K = full((Q * sigma) @ Q.T)
    sys = AssembledSystem(K, full(np.eye(nb)), np.arange(nb), 2.0, pts)
    assert np.max(np.abs(smooth.T @ Q[:, 0])) < 1e-14
    got = solve_spectrum(sys, 2).eigenvalues
    assert np.max(np.abs(got - sigma[:3])) < 1e-12
    start = steklov2d._start_block
    monkeypatch.setattr(steklov2d, "_start_block",
                        lambda sys, k: start(sys, k)[:, :-1])
    with pytest.raises(FactorizationError, match="stalled"):
        solve_spectrum(sys, 2)


@pytest.mark.parametrize("case, budget", [("ellipse-E2", 31 + 4),
                                          ("spheroid-mode1", 44 + 4)])
def test_block_solve_column_budget(monkeypatch, case, budget):
    """Back-solve columns of two fixed k = 2 solves on level 2: the
    1.2 x 0.8 ellipse under the linear weight, measured 31 columns in 10
    blocks (ARPACK's Lanczos: 36 single solves), and mode 1 of the most
    eccentric standard spheroid, measured 44 in 11 (Lanczos: 37).  The
    budget is the measured count plus one block of k+2 columns."""
    w = RadialWeight.linear(0.5)
    if case == "ellipse-E2":
        sys = assemble(MeshHierarchy(Domain2D.ellipse(1.2, 0.8), E2).level(2),
                       w)
    else:
        sys = assemble_mode(MeshHierarchy(standard_spheroids()[2], E3).level(2),
                            w, 1)
    columns, splu = [], spla.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            columns.append(rhs.shape[1])
            return self.lu.solve(rhs)

    monkeypatch.setattr(spla, "splu", lambda *a, **kw: Counted(splu(*a, **kw)))
    solve_spectrum(sys, 2)
    assert sum(columns) <= budget


def test_repeated_solves_bit_identical(disk_mesh):
    sys = assemble(P1Level(disk_mesh, E2), RadialWeight.quadratic(1.0, 0.25))
    first = solve_spectrum(sys, 5).eigenvalues
    second = solve_spectrum(sys, 5).eigenvalues
    assert np.array_equal(first, second)


def test_pencil_with_fewer_than_twenty_boundary_nodes():
    mesh = generate_mesh(MeridianDomain.ball(1.0), 4, 16)
    sys = assemble_mode(P1Level(mesh, E3), W0, 1)
    assert len(sys.boundary_index) < 20
    assert _sparse_vs_dense(sys, 6) < 1e-10
    with pytest.raises(DomainError):
        solve_spectrum(sys, len(sys.boundary_index) - 1)


def test_singular_pencil_is_a_factorization_error(disk_mesh):
    sys = assemble(P1Level(disk_mesh, E2), W0)
    # a vertex no triangle uses leaves a zero row in K - s M_b
    pad = lambda A: sp.block_diag([A, sp.csr_matrix((1, 1))]).tocsr()
    sys.stiffness, sys.boundary_mass = pad(sys.stiffness), pad(sys.boundary_mass)
    with pytest.raises(FactorizationError):
        solve_spectrum(sys, 4)


@pytest.mark.parametrize("t", [0.01, 1000.0, 1e5])
def test_euclidean_scaling(t):
    mesh = generate_mesh(Domain2D.ellipse(1.0, 0.6, center=(0.2, 0.1)), 6, 48)
    scaled = TriMesh(vertices=t * mesh.vertices, triangles=mesh.triangles,
                     boundary_edges=mesh.boundary_edges, domain=None)
    base = domain_spectrum(P1Level(mesh, E2), W0, 5).eigenvalues
    got = domain_spectrum(P1Level(scaled, E2), W0, 5).eigenvalues
    assert np.max(np.abs(t * got[1:] / base[1:] - 1.0)) < 1e-10
    assert abs(got[0]) <= 1e-10 * got[1]


def test_weight_shift_invariance(disk_mesh):
    a = domain_spectrum(P1Level(disk_mesh, E2), RadialWeight.constant(0.0), 4)
    b = domain_spectrum(P1Level(disk_mesh, E2), RadialWeight.constant(2.0), 4)
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) < 1e-12 * \
        max(1.0, a.eigenvalues[-1])
    # shifting a non-constant weight by a constant is equally invisible
    ts = np.linspace(0.0, 1.5, 3001)
    w0 = RadialWeight.tabulated(ts, -0.5 * ts)
    wc = RadialWeight.tabulated(ts, -0.5 * ts + 1.7)
    sa = domain_spectrum(P1Level(disk_mesh, E2), w0, 3)
    sb = domain_spectrum(P1Level(disk_mesh, E2), wc, 3)
    assert np.max(np.abs(sa.eigenvalues - sb.eigenvalues)) < 1e-12 * \
        max(1.0, sa.eigenvalues[-1])


def test_rotation_equivariance(disk_mesh):
    w = RadialWeight.linear(0.5)
    base = domain_spectrum(P1Level(disk_mesh, E2), w, 4).eigenvalues
    ang = 0.7
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    rotated = TriMesh(vertices=disk_mesh.vertices @ rot.T,
                      triangles=disk_mesh.triangles,
                      boundary_edges=disk_mesh.boundary_edges, domain=None)
    got = domain_spectrum(P1Level(rotated, E2), w, 4).eigenvalues
    assert np.allclose(got, base, atol=1e-10)


def test_weighted_disk_matches_radial():
    w = RadialWeight.linear(0.5)
    specs = MeshHierarchy(Domain2D.disk(1.0), E2, 8, 64, 3).spectra(w, 1)
    target = sigma1_ball(E2, w, 1.0).value
    finest = specs[-1].eigenvalues[1]
    assert finest == pytest.approx(target, rel=1e-2)
    errs = [abs(s.eigenvalues[1] - target) for s in specs]
    assert errs[0] / errs[-1] > 9.0


def test_hyperbolic_disk_matches_closed_form():
    dom = Domain2D.disk(math.tanh(0.5))
    specs = MeshHierarchy(dom, H2, 8, 64, 3).spectra(W0, 1)
    assert specs[-1].eigenvalues[1] == pytest.approx(1 / math.sinh(1.0), rel=1e-2)


def test_hyperbolic_mesh_margin_enforced():
    dom = Domain2D.disk(0.995)
    mesh = generate_mesh(dom, 4, 16)
    with pytest.raises(DomainError):
        assemble(P1Level(mesh, H2), W0)


def test_modes_need_a_meridian_level(disk_mesh):
    """Azimuthal modes exist on a solid's meridian only, and m >= 0."""
    solid = P1Level(generate_mesh(MeridianDomain.ball(1.0), 4, 16), E3)
    for level, m in ((P1Level(disk_mesh, E2), 1), (solid, -1)):
        with pytest.raises(DomainError, match="meridian level"):
            assemble_mode(level, W0, m)


@pytest.mark.parametrize("form", [SpaceForm(Curvature.SPHERICAL_CAP, 2),
                                  SpaceForm(Curvature.HYPERBOLIC, 3),
                                  SpaceForm(Curvature.EUCLIDEAN, 4)],
                         ids=lambda f: f.label)
def test_domain_spectrum_needs_a_mesh_model(form):
    """Only E2, H2 and E3 have an FEM model; any other form is a typed
    error before anything is assembled."""
    for dom in (Domain2D.disk(0.5), MeridianDomain.ball(0.5)):
        with pytest.raises(DomainError, match="no mesh model"):
            domain_spectrum(P1Level(generate_mesh(dom, 2, 8), form), W0, 2)
