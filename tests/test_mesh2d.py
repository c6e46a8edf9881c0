import math

import numpy as np
import pytest

import oracles
from steklovw.axisym3d import MeridianDomain, axis_nodes, outer_edges
from steklovw.geometry import Curvature, DomainError, RadialWeight, SpaceForm
from steklovw.mesh2d import (Domain2D, MeshQualityError, TriMesh, _max_edge,
                             generate_mesh, mesh_levels, mesh_measures, refine)

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
H2 = SpaceForm(Curvature.HYPERBOLIC, 2)
W0 = RadialWeight.constant()


def undirected_edges(mesh):
    edges = set()
    for a, b, c in mesh.triangles:
        edges.update({tuple(sorted(e)) for e in ((a, b), (b, c), (c, a))})
    return edges


def test_polar_mesh_counts():
    m = generate_mesh(Domain2D.disk(1.0), 2, 8)
    assert len(m.vertices) == 1 + 2 * 8
    assert len(m.triangles) == 8 + 16
    assert len(m.boundary_edges) == 8


def test_degenerate_shapes_reproduce_disk():
    disk = generate_mesh(Domain2D.disk(1.0), 2, 8)
    ellipse = generate_mesh(Domain2D.ellipse(1.0, 1.0), 2, 8)
    pdisk = generate_mesh(Domain2D.perturbed_disk(1.0, 0.0, 3), 2, 8)
    assert np.array_equal(disk.vertices, ellipse.vertices)
    assert np.array_equal(disk.vertices, pdisk.vertices)


def test_refine_counts_and_projection():
    m = generate_mesh(Domain2D.disk(1.0), 2, 8)
    r = refine(m)
    assert len(r.triangles) == 4 * len(m.triangles)
    assert len(r.boundary_edges) == 2 * len(m.boundary_edges)
    radii = np.linalg.norm(r.vertices[r.boundary_nodes], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-14
    assert r.h < m.h


def test_positive_orientation_and_euler():
    for dom in (Domain2D.ellipse(1.5, 0.7), Domain2D.perturbed_disk(1, 0.15, 3)):
        m = generate_mesh(dom, 4, 16)
        assert np.all(m.signed_areas() > 0)
        v, e, f = len(m.vertices), len(undirected_edges(m)), len(m.triangles)
        assert v - e + f == 1


def test_boundary_is_single_closed_loop():
    m = generate_mesh(Domain2D.perturbed_disk(1.0, 0.1, 2), 3, 12)
    succ = {int(a): int(b) for a, b in m.boundary_edges}
    assert len(succ) == len(m.boundary_edges)
    start = next(iter(succ))
    node, steps = succ[start], 1
    while node != start:
        node = succ[node]
        steps += 1
    assert steps == len(m.boundary_edges)


def test_boundary_edges_belong_to_one_triangle():
    m = generate_mesh(Domain2D.disk(1.0), 3, 12)
    all_edges = []
    for a, b, c in m.triangles:
        all_edges.extend([tuple(sorted((a, b))), tuple(sorted((b, c))),
                          tuple(sorted((c, a)))])
    from collections import Counter
    counts = Counter(all_edges)
    for a, b in m.boundary_edges:
        assert counts[tuple(sorted((a, b)))] == 1


def test_min_angle_floor_enforced():
    # fan triangles have apex 360/N deg, so the fixed 1 deg floor rejects
    # N = 400 (0.9 deg)
    with pytest.raises(MeshQualityError):
        generate_mesh(Domain2D.disk(1.0), 2, 400)
    m = generate_mesh(Domain2D.disk(1.0), 2, 8)   # 45 deg fan passes
    assert m.min_angle_deg() >= 15.0


def test_domain_invariant_validation():
    with pytest.raises(DomainError):
        Domain2D.perturbed_disk(1.0, 0.5, 3)    # eps*k >= 1
    with pytest.raises(DomainError):
        Domain2D.disk(-1.0)
    with pytest.raises(DomainError):
        Domain2D.polygon([(0, 0), (1, 0), (2, 0)])   # collinear
    # U-shape: its centroid sits in the notch, so it is not star-shaped
    with pytest.raises(DomainError):
        Domain2D.polygon([(0, 0), (3, 0), (3, 3), (2, 3),
                          (2, 1), (1, 1), (1, 3), (0, 3)])


def test_measures_converge_at_second_order():
    cases = [
        (Domain2D.disk(1.0), E2, W0, math.pi),
        (Domain2D.disk(1.0), E2, RadialWeight.linear(1.0), 2 * math.pi),
        (Domain2D.disk(math.tanh(0.5)), H2, W0, 2 * math.pi * (math.cosh(1) - 1)),
    ]
    for dom, form, w, exact in cases:
        errs = [abs(mesh_measures(m, form, w)[0] - exact)
                for m in mesh_levels(dom, 8, 64, 3)]
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0
        assert errs[2] < 1e-3 * exact


def test_boundary_length_unit_circle():
    m = mesh_levels(Domain2D.disk(1.0), 8, 64, 3)[-1]
    _, length = mesh_measures(m, E2, W0)
    assert length == pytest.approx(2 * math.pi, rel=1e-4)


def test_boundary_measure_converges_at_second_order():
    w = RadialWeight.linear(1.0)
    exact = 2 * math.pi * math.e   # weighted circumference of the unit circle
    errs = [abs(mesh_measures(m, E2, w)[1] - exact)
            for m in mesh_levels(Domain2D.disk(1.0), 8, 64, 3)]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_polygon_measures_exact():
    sq = Domain2D.polygon([(1, -1), (1, 1), (-1, 1), (-1, -1)])
    m = generate_mesh(sq, 4, 16)
    area, perim = mesh_measures(m, E2, W0)
    assert area == pytest.approx(4.0, rel=1e-12)
    assert perim == pytest.approx(8.0, rel=1e-12)


def test_polygon_refinement_recovers_corners():
    rect = Domain2D.polygon([(2, -0.5), (2, 0.5), (-2, 0.5), (-2, -0.5)])
    m = generate_mesh(rect, 4, 32)
    errs = []
    for _ in range(3):
        errs.append(abs(mesh_measures(m, E2, W0)[0] - 4.0))
        m = refine(m)
    assert errs[-1] < errs[0] / 4.0


def test_center_offset_translates_mesh():
    m0 = generate_mesh(Domain2D.disk(1.0), 2, 8)
    m1 = generate_mesh(Domain2D.disk(1.0, center=(0.3, -0.2)), 2, 8)
    assert np.allclose(m1.vertices - np.array([0.3, -0.2]), m0.vertices,
                       atol=1e-15)


def test_determinism_bit_identical():
    dom = Domain2D.perturbed_disk(1.0, 0.1, 3)
    a = refine(generate_mesh(dom, 4, 16))
    b = refine(generate_mesh(dom, 4, 16))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.boundary_edges, b.boundary_edges)


def test_subdivide_matches_dict_oracle():
    """The array split equals the per-triangle dict walk of
    ``oracles.subdivide`` over 3 levels: same triangles and boundary loop,
    bit-identical vertices; axis midpoints of a meridian keep r = 0."""
    planar = [Domain2D.disk(1.0), Domain2D.disk(1.0, center=(0.3, 0.0)),
              Domain2D.ellipse(1.3, 0.7), Domain2D.perturbed_disk(1.0, 0.1, 3),
              Domain2D.polygon([(1.2, -0.5), (1.2, 0.5), (-1.2, 0.5),
                                (-1.2, -0.5), (0.0, -0.9)])]
    md = MeridianDomain.spheroid(1.2, 0.8)
    cases = [(dom, generate_mesh(dom, 4, 16)) for dom in planar]
    cases.append((md, generate_mesh(md, 4, 8)))
    for shape, mesh in cases:
        for _ in range(3):
            curved = outer_edges(mesh) if shape is md else mesh.boundary_edges
            want = oracles.subdivide(mesh.vertices, mesh.triangles,
                                     mesh.boundary_edges, curved, shape)
            mesh = refine(mesh)
            assert np.array_equal(mesh.triangles, want[1]), shape.label
            assert np.array_equal(mesh.boundary_edges, want[2]), shape.label
            assert mesh.vertices.tobytes() == want[0].tobytes(), shape.label
    axis = axis_nodes(mesh)
    assert len(axis) == 2 * 4 * 2 ** 3 + 1
    assert np.all(mesh.vertices[axis, 0] == 0.0)


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


def test_save_load_roundtrip(tmp_path):
    m = generate_mesh(Domain2D.ellipse(1.2, 0.8), 3, 12)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    header = path.read_text().splitlines()[0]
    assert header == f"{len(m.vertices)} {len(m.triangles)} {len(m.boundary_edges)}"
    back = load_mesh(path)
    assert np.array_equal(m.vertices, back.vertices)
    assert np.array_equal(m.triangles, back.triangles)
    assert np.array_equal(m.boundary_edges, back.boundary_edges)
