import math

import numpy as np
import pytest

from oracles import (boundary_gauss_points, dense_axisym_spectrum,
                     dense_spectrum)
from steklovw.geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                               ball_boundary_weighted_measure,
                               ball_weighted_volume)
from steklovw.mesh2d import (MeridianDomain, TriMesh, axis_nodes,
                             generate_mesh, integrate_weighted, mesh_levels,
                             outer_edges, refine)
from steklovw.radial import ball_spectrum, sigma1_ball
from steklovw.steklov2d import P1Level, assemble_mode, domain_spectrum
from steklovw.verify import MeshHierarchy

E3 = SpaceForm(Curvature.EUCLIDEAN, 3)
W0 = RadialWeight.constant()


@pytest.fixture(scope="module")
def ball_fine():
    return mesh_levels(MeridianDomain.ball(1.0), 8, 32, 3)[-1]


def test_axis_nodes_exact():
    mesh = generate_mesh(MeridianDomain.ball(1.0), 4, 16)
    assert len(axis_nodes(mesh)) == 2 * 4 + 1
    assert np.all(mesh.vertices[axis_nodes(mesh), 0] == 0.0)
    r = refine(mesh)
    assert np.all(r.vertices[axis_nodes(r), 0] == 0.0)


def test_axis_gauss_points_on_axis(ball_fine):
    """Every 2-point Gauss point of an axis edge has r = 0 exactly, so the
    MERIDIAN length density r drops the axis from the boundary integrals."""
    be = ball_fine.boundary_edges
    on_axis = np.all(ball_fine.vertices[be, 0] == 0.0, axis=1)
    assert on_axis.sum() == 2 * 8 * 4
    pts, _ = boundary_gauss_points(ball_fine, be[on_axis])
    assert np.all(pts[..., 0] == 0.0)


def test_meridian_mesh_valid():
    mesh = generate_mesh(MeridianDomain.spheroid(1.2, 0.8), 6, 24)
    assert np.all(mesh.areas > 0)
    assert np.all(mesh.vertices[:, 0] >= 0.0)
    # boundary split: outer arc has both r>0 interior, axis edges r=0
    outer = outer_edges(mesh)
    assert len(outer) == 24
    assert len(mesh.boundary_edges) == 24 + 2 * 6


def test_ball_measures_converge(ball_fine):
    vol = integrate_weighted(ball_fine, E3, W0)
    area = P1Level(ball_fine, E3).boundary_integral(W0)
    assert vol == pytest.approx(4 * math.pi / 3, rel=2e-3)
    assert area == pytest.approx(4 * math.pi, rel=2e-3)


def test_weighted_measures_match_radial_quadrature(ball_fine):
    w = RadialWeight.linear(0.5)
    vol = integrate_weighted(ball_fine, E3, w)
    area = P1Level(ball_fine, E3).boundary_integral(w)
    assert vol == pytest.approx(ball_weighted_volume(E3, w, 1.0), rel=5e-3)
    assert area == pytest.approx(ball_boundary_weighted_measure(E3, w, 1.0),
                                 rel=5e-3)


def test_mode0_constants_in_kernel():
    mesh = generate_mesh(MeridianDomain.ball(1.0), 6, 24)
    sys = assemble_mode(P1Level(mesh, E3), RadialWeight.linear(0.5), 0)
    one = np.ones(sys.stiffness.shape[0])
    assert np.max(np.abs(sys.stiffness @ one)) < 1e-12
    # boundary mass totals the weighted sphere area / (2 pi), O(h^2)
    total = sys.boundary_mass.sum()
    want = ball_boundary_weighted_measure(E3, RadialWeight.linear(0.5), 1.0) \
        / (2 * math.pi)
    assert total == pytest.approx(want, rel=5e-3)


def test_constant_weight_scales_mode_stiffness():
    mesh = generate_mesh(MeridianDomain.ball(1.0), 4, 16)
    c = 0.9
    k0 = assemble_mode(P1Level(mesh, E3), RadialWeight.constant(0.0), 1).stiffness
    kc = assemble_mode(P1Level(mesh, E3), RadialWeight.constant(c), 1).stiffness
    assert abs(kc - math.exp(-c) * k0).max() < 1e-13 * abs(k0).max()


def test_mode1_drops_axis_dofs():
    mesh = generate_mesh(MeridianDomain.ball(1.0), 4, 16)
    sys0 = assemble_mode(P1Level(mesh, E3), W0, 0)
    sys1 = assemble_mode(P1Level(mesh, E3), W0, 1)
    assert sys1.stiffness.shape[0] == sys0.stiffness.shape[0] - len(axis_nodes(mesh))


def test_unit_ball_triple_eigenvalue(ball_fine):
    spec = domain_spectrum(P1Level(ball_fine, E3), W0, 6)
    vals = spec.eigenvalues
    assert abs(vals[0]) < 1e-10
    assert np.allclose(vals[1:4], 1.0, rtol=1.5e-2)
    assert sorted(spec.modes[1:4]) == [0, 1, 1]
    assert np.allclose(vals[4:7], 2.0, rtol=1.5e-2)


def test_m1_lowest_appears_twice(ball_fine):
    spec = domain_spectrum(P1Level(ball_fine, E3), RadialWeight.linear(0.5), 6)
    m1_vals = [v for v, m in zip(spec.eigenvalues, spec.modes) if m == 1]
    assert m1_vals[0] == m1_vals[1]


def test_weighted_ball_matches_radial(ball_fine):
    w = RadialWeight.linear(0.5)
    spec = domain_spectrum(P1Level(ball_fine, E3), w, 3)
    target = sigma1_ball(E3, w, 1.0).value
    assert np.allclose(spec.eigenvalues[1:4], target, rtol=1.5e-2)


@pytest.mark.parametrize("dom", [MeridianDomain.spheroid(1.2, 0.8),
                                 MeridianDomain.perturbed_ball(1.0, 0.1, 2)],
                         ids=["spheroid", "perturbed-ball"])
def test_each_mode_asked_for_its_share(dom):
    """Mode 0 gives k+1 eigenvalues and each m >= 1 ceil((k+1)/2): the
    merged sigma_0..sigma_k equal those of every eigenvalue of every mode."""
    mesh = generate_mesh(dom, 6, 24)
    w = RadialWeight.linear(0.5)
    want, tags = dense_axisym_spectrum(
        [assemble_mode(P1Level(mesh, E3), w, m) for m in range(6 + 2)], 6)
    for k in range(1, 7):
        spec = domain_spectrum(P1Level(mesh, E3), w, k)
        assert len(spec.eigenvalues) == k + 1
        assert np.max(np.abs(spec.eigenvalues - want[:k + 1])) \
            <= 1e-12 * want[1]
        assert spec.modes == tags[:k + 1]


def test_short_mode_boundary_raises():
    """A 4-sector meridian has 5 outer nodes for m = 0 and 3 off the axis:
    k = 3 is the most it supplies, and more is an error, not a short list."""
    mesh = generate_mesh(MeridianDomain.ball(1.0), 2, 4)
    want, tags = dense_axisym_spectrum(
        [assemble_mode(P1Level(mesh, E3), W0, m) for m in range(3 + 2)], 3)
    spec = domain_spectrum(P1Level(mesh, E3), W0, 3)
    assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-12 * want[1]
    assert spec.modes == tags
    for k in (4, 6):
        with pytest.raises(DomainError, match=f"requested {k + 1} eigenvalues "
                           "from a 5-node boundary"):
            domain_spectrum(P1Level(mesh, E3), W0, k)


def test_ball_modes_walked_to_degree_four():
    """sigma_1..sigma_20 of the unit ball reach degree 4: each degree-i
    value comes once from mode 0 and twice from each mode 1..i, so mode 3
    enters at sigma_9, which a fixed list of modes 0-2 would miss.  The
    values hold the radial ones to 2e-3 (measured 1.4e-3 at level 2)."""
    spec = MeshHierarchy(MeridianDomain.ball(1.0), E3).spectrum(2, W0, 20)
    want = ball_spectrum(E3, W0, 1.0, 20).eigenvalues
    assert np.max(np.abs(spec.eigenvalues[1:] / want[1:] - 1)) < 2e-3
    for degree, (lo, hi) in enumerate([(1, 4), (4, 9), (9, 16)], start=1):
        assert sorted(spec.modes[lo:hi]) == \
            [0] + [m for m in range(1, degree + 1) for _ in (0, 1)]


def test_oblate_spheroid_sigma5_from_mode3():
    """On the oblate spheroid a = 1.5, c = 0.4, sigma_5 is mode 3's lowest
    value, below mode 0's second: the walk finds it and agrees with every
    eigenvalue of modes 0-6, merged densely, to 1e-12 sigma_1."""
    hier = MeshHierarchy(MeridianDomain.spheroid(1.5, 0.4), E3)
    spec = hier.spectrum(-1, W0, 5)
    want, tags = dense_axisym_spectrum(
        [assemble_mode(hier.level(-1), W0, m) for m in range(7)], 5)
    assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-12 * want[1]
    assert spec.modes == tags
    assert spec.modes[5] == 3


@pytest.mark.parametrize("w", [W0, RadialWeight.linear(0.5)],
                         ids=["constant", "linear"])
def test_mode_values_do_not_decrease_with_m(w):
    """The ground the walk stands on: by min-max, sigma_j of mode m+1 is at
    least sigma_j of mode m (mode m+1 lives on mode m's space and adds
    (2m+1) times the semidefinite azimuthal block)."""
    level = MeshHierarchy(MeridianDomain.spheroid(1.5, 0.4), E3).level(1)
    vals = np.array([dense_spectrum(assemble_mode(level, w, m), 3)
                     for m in range(5)])
    assert np.all(np.diff(vals, axis=0) >= -1e-12 * np.abs(vals[:-1]))


def test_degenerate_spheroid_is_ball():
    a = generate_mesh(MeridianDomain.ball(1.0), 6, 24)
    b = generate_mesh(MeridianDomain.spheroid(1.0, 1.0), 6, 24)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)


def test_z_reflection_symmetry():
    mesh = generate_mesh(MeridianDomain.spheroid(1.1, 0.9), 6, 24)
    spec = domain_spectrum(P1Level(mesh, E3), RadialWeight.linear(0.5), 6)
    flipped = TriMesh(
        vertices=mesh.vertices * np.array([1.0, -1.0]),
        triangles=mesh.triangles[:, ::-1].copy(),   # restore orientation
        boundary_edges=mesh.boundary_edges[:, ::-1].copy(),
        domain=mesh.domain)   # the spheroid is z-symmetric
    spec_f = domain_spectrum(P1Level(flipped, E3), RadialWeight.linear(0.5), 6)
    assert np.allclose(spec.eigenvalues, spec_f.eigenvalues, atol=1e-10)


def test_perturbed_ball_validation():
    with pytest.raises(DomainError):
        MeridianDomain.perturbed_ball(1.0, 0.5, 3)
    for k in (0, -3):       # k = 0 is a ball; k < 0 would dodge |eps| k < 1
        with pytest.raises(DomainError, match="k must be >= 1"):
            MeridianDomain.perturbed_ball(1.0, 0.1 if k == 0 else 0.5, k)
    mesh = generate_mesh(MeridianDomain.perturbed_ball(1.0, 0.1, 2), 6, 24)
    assert mesh is not None
    vol = integrate_weighted(mesh, E3, W0)
    assert vol > 0
