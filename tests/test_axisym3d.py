import math

import numpy as np
import pytest

from steklovw.axisym3d import (MeridianDomain, assemble_mode,
                               meridian_measures, solve_axisym_spectrum)
from steklovw.geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                               ball_boundary_weighted_measure,
                               ball_weighted_volume)
from steklovw.mesh2d import TriMesh, integrate_weighted
from steklovw.radial import sigma1_ball

E3 = SpaceForm(Curvature.EUCLIDEAN, 3)
W0 = RadialWeight.constant()


@pytest.fixture(scope="module")
def ball_fine():
    return MeridianDomain.ball(1.0, rings=8, sectors=32).refine().refine()


def test_axis_nodes_exact():
    md = MeridianDomain.ball(1.0, rings=4, sectors=16)
    assert len(md.axis_nodes) == 2 * 4 + 1
    assert np.all(md.mesh.vertices[md.axis_nodes, 0] == 0.0)
    r = md.refine()
    assert np.all(r.mesh.vertices[r.axis_nodes, 0] == 0.0)


def test_meridian_mesh_valid():
    md = MeridianDomain.spheroid(1.2, 0.8, 6, 24)
    assert np.all(md.mesh.signed_areas() > 0)
    assert np.all(md.mesh.vertices[:, 0] >= 0.0)
    # boundary split: outer arc has both r>0 interior, axis edges r=0
    outer = md.outer_edges
    assert len(outer) == 24
    assert len(md.mesh.boundary_edges) == 24 + 2 * 6


def test_ball_measures_converge(ball_fine):
    vol, area = meridian_measures(ball_fine, W0)
    assert vol == pytest.approx(4 * math.pi / 3, rel=2e-3)
    assert area == pytest.approx(4 * math.pi, rel=2e-3)


def test_weighted_measures_match_radial_quadrature(ball_fine):
    w = RadialWeight.linear(0.5)
    vol, area = meridian_measures(ball_fine, w)
    assert vol == pytest.approx(ball_weighted_volume(E3, w, 1.0), rel=5e-3)
    assert area == pytest.approx(ball_boundary_weighted_measure(E3, w, 1.0),
                                 rel=5e-3)


def test_mode0_constants_in_kernel():
    md = MeridianDomain.ball(1.0, 6, 24)
    sys = assemble_mode(md, RadialWeight.linear(0.5), 0)
    one = np.ones(sys.stiffness.shape[0])
    assert np.max(np.abs(sys.stiffness @ one)) < 1e-12
    # boundary mass totals the weighted sphere area / (2 pi), O(h^2)
    total = sys.boundary_mass.sum()
    want = ball_boundary_weighted_measure(E3, RadialWeight.linear(0.5), 1.0) \
        / (2 * math.pi)
    assert total == pytest.approx(want, rel=5e-3)


def test_constant_weight_scales_mode_stiffness():
    md = MeridianDomain.ball(1.0, 4, 16)
    c = 0.9
    k0 = assemble_mode(md, RadialWeight.constant(0.0), 1).stiffness
    kc = assemble_mode(md, RadialWeight.constant(c), 1).stiffness
    assert abs(kc - math.exp(-c) * k0).max() < 1e-13 * abs(k0).max()


def test_mode1_drops_axis_dofs():
    md = MeridianDomain.ball(1.0, 4, 16)
    sys0 = assemble_mode(md, W0, 0)
    sys1 = assemble_mode(md, W0, 1)
    assert sys1.stiffness.shape[0] == sys0.stiffness.shape[0] - len(md.axis_nodes)


def test_unit_ball_triple_eigenvalue(ball_fine):
    spec = solve_axisym_spectrum(ball_fine, W0, k_per_mode=4)
    vals = spec.eigenvalues
    assert abs(vals[0]) < 1e-10
    assert np.allclose(vals[1:4], 1.0, rtol=1.5e-2)
    assert sorted(spec.modes[1:4]) == [0, 1, 1]
    assert np.allclose(vals[4:7], 2.0, rtol=1.5e-2)


def test_m1_lowest_appears_twice(ball_fine):
    spec = solve_axisym_spectrum(ball_fine, RadialWeight.linear(0.5),
                                 k_per_mode=4)
    m1_vals = [v for v, m in zip(spec.eigenvalues, spec.modes) if m == 1]
    assert m1_vals[0] == m1_vals[1]


def test_weighted_ball_matches_radial(ball_fine):
    w = RadialWeight.linear(0.5)
    spec = solve_axisym_spectrum(ball_fine, w, k_per_mode=4)
    target = sigma1_ball(E3, w, 1.0).value
    assert np.allclose(spec.eigenvalues[1:4], target, rtol=1.5e-2)


def test_degenerate_spheroid_is_ball():
    a = MeridianDomain.ball(1.0, 6, 24)
    b = MeridianDomain.spheroid(1.0, 1.0, 6, 24)
    assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
    assert np.array_equal(a.mesh.triangles, b.mesh.triangles)


def test_z_reflection_symmetry():
    md = MeridianDomain.spheroid(1.1, 0.9, 6, 24)
    spec = solve_axisym_spectrum(md, RadialWeight.linear(0.5), k_per_mode=3)
    flipped_mesh = TriMesh(
        vertices=md.mesh.vertices * np.array([1.0, -1.0]),
        triangles=md.mesh.triangles[:, ::-1].copy(),   # restore orientation
        boundary_edges=md.mesh.boundary_edges[:, ::-1].copy(),
        h=md.mesh.h, domain=None)
    from dataclasses import replace
    flipped = replace(md, mesh=flipped_mesh)
    spec_f = solve_axisym_spectrum(flipped, RadialWeight.linear(0.5),
                                   k_per_mode=3)
    assert np.allclose(spec.eigenvalues, spec_f.eigenvalues, atol=1e-10)


def test_perturbed_ball_validation():
    with pytest.raises(DomainError):
        MeridianDomain.perturbed_ball(1.0, 0.5, 3)
    for k in (0, -3):       # k = 0 is a ball; k < 0 would dodge |eps| k < 1
        with pytest.raises(DomainError, match="k must be >= 1"):
            MeridianDomain.perturbed_ball(1.0, 0.1 if k == 0 else 0.5, k)
    md = MeridianDomain.perturbed_ball(1.0, 0.1, 2, 6, 24)
    assert md.mesh is not None
    vol = integrate_weighted(md.mesh, E3, W0)
    assert vol > 0
