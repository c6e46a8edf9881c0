import math

import numpy as np
import pytest

import oracles
from steklovw.geometry import Curvature, DomainError, RadialWeight, SpaceForm
from steklovw.mesh2d import (Domain2D, MeridianDomain, MeshQualityError,
                             TriMesh, axis_nodes, generate_mesh,
                             integrate_weighted, mesh_levels, outer_edges,
                             refine)
from steklovw.steklov2d import P1Level
from steklovw.verify import (standard_chain_domains, standard_spheroids,
                             standard_sweep_euclidean,
                             standard_sweep_hyperbolic)

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
    radii = np.linalg.norm(r.vertices[np.unique(r.boundary_edges)], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-14
    assert r.h < m.h


def test_positive_orientation_and_euler():
    for dom in (Domain2D.ellipse(1.5, 0.7), Domain2D.perturbed_disk(1, 0.15, 3)):
        m = generate_mesh(dom, 4, 16)
        assert np.all(m.areas > 0)
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
    assert m.min_angle_deg >= 15.0


def test_mesh_refuses_a_reversed_triangle():
    """A hand-built mesh is checked as a generated one is: with one
    triangle reversed its area is negative, and the weighted volume would
    come out short (3.13502 against 3.13655 on this disk)."""
    m = generate_mesh(Domain2D.disk(1.0), 8, 64)
    tris = m.triangles.copy()
    tris[0] = tris[0, ::-1]           # a triangle of the centre fan
    with pytest.raises(MeshQualityError, match="non-positively-oriented"):
        TriMesh(vertices=m.vertices, triangles=tris,
                boundary_edges=m.boundary_edges, domain=m.domain)


def _check_measures(m):
    """The mesh's own measures against references computed here."""
    p = m.vertices[m.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert m.areas.tobytes() == areas.tobytes()
    edges = [p[:, (i + 1) % 3] - p[:, i] for i in range(3)]
    assert m.h == np.max([np.linalg.norm(e, axis=1) for e in edges])
    angles = [np.arccos(np.clip(np.sum(u * v, axis=1) / (
        np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)), -1, 1))
        for u, v in ((edges[0], -edges[2]), (edges[1], -edges[0]),
                     (edges[2], -edges[1]))]
    assert abs(m.min_angle_deg - np.degrees(np.min(angles))) <= 1e-12


@pytest.mark.parametrize("shape, sectors", [
    (Domain2D.disk(1.0, center=(0.3, 0.0)), 64),
    (Domain2D.ellipse(0.5, 0.35), 64),
    (MeridianDomain.spheroid(1.1, 0.8), 32)],
    ids=["offset-disk", "H2-ellipse", "spheroid"])
def test_mesh_measures_itself(shape, sectors):
    """``areas`` is 0.5 d1 x d2 and ``h`` the longest edge, bit for bit,
    and ``min_angle_deg`` the smallest corner angle, on levels 0-2 and
    with each triangle's corners turned once and twice."""
    for mesh in mesh_levels(shape, 8, sectors, 3):
        turned = (TriMesh(vertices=mesh.vertices,
                          triangles=np.roll(mesh.triangles, s, axis=1),
                          boundary_edges=mesh.boundary_edges) for s in (1, 2))
        for m in (mesh, *turned):
            _check_measures(m)


def test_one_triangle_measures_itself():
    """A right triangle with its hypotenuse at each place in turn."""
    for s in range(3):
        m = TriMesh(vertices=np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
                    triangles=np.roll([[0, 1, 2]], s, axis=1),
                    boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]))
        _check_measures(m)
        assert m.h == math.sqrt(5.0) and m.areas.tolist() == [1.0]
        assert m.min_angle_deg == pytest.approx(math.degrees(math.atan(0.5)),
                                                abs=1e-12)


def test_boundary_pair_off_the_mesh_fails_loudly():
    """A boundary pair that is no triangle edge (edge 0 of a disk mesh
    replaced by the chord (49, 52)) is refused where it is looked up:
    ``refine`` would route the boundary through another edge's midpoint
    and ``P1Level`` would scatter M_b into other pairs' slots."""
    m = generate_mesh(Domain2D.disk(1.0), 4, 16)
    be = m.boundary_edges.copy()
    assert tuple(be[0]) == (49, 50)
    be[0] = (49, 52)
    bad = TriMesh(m.vertices, m.triangles, be, domain=m.domain)
    with pytest.raises(MeshQualityError, match=r"\(49, 52\) is no triangle"):
        refine(bad)
    with pytest.raises(MeshQualityError, match=r"\(49, 52\) is no triangle"):
        P1Level(bad, E2)


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
    with pytest.raises(DomainError, match="^disk parameters must be finite$"):
        Domain2D.disk(1.0, center=(0.0, math.inf))
    with pytest.raises(DomainError, match="^spheroid parameters must be finite$"):
        MeridianDomain.spheroid(math.nan, 1.0)


SQUARE = [(1, -1), (1, 1), (-1, 1), (-1, -1)]
FACT_SHAPES = (
    [(f"E2-{d.label}", d) for d in standard_sweep_euclidean()]
    + [(f"H2-{d.label}", d) for d in standard_sweep_hyperbolic()]
    + [(f"chain-{d.label}", d) for d in standard_chain_domains()]
    + [(f"E3-{d.label}", d) for d in standard_spheroids()]
    + [("offset-disk", Domain2D.disk(1.0, center=(0.1, 0.0))),
       ("offset-ellipse", Domain2D.ellipse(1.3, 0.7, center=(0.0, -0.2))),
       ("pdisk-odd", Domain2D.perturbed_disk(1.0, 0.1, 3)),
       ("pdisk-odd-eps0", Domain2D.perturbed_disk(1.0, 0.0, 3)),
       ("polygon-asymmetric", Domain2D.polygon(
           [(1.2, -0.5), (1.2, 0.5), (-1.2, 0.5), (-1.2, -0.5), (0.0, -0.9)])),
       # centred on the origin, mirrored in y but not in x
       ("triangle", Domain2D.polygon([(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8)])),
       ("square", Domain2D.polygon(SQUARE)),
       ("offset-square", Domain2D.polygon(SQUARE, center=(0.2, 0.0))),
       ("ball", MeridianDomain.ball(1.0)),
       ("pball-even", MeridianDomain.perturbed_ball(1.0, 0.1, 2)),
       ("pball-odd", MeridianDomain.perturbed_ball(1.0, 0.1, 3))])


@pytest.mark.parametrize("shape", [d for _, d in FACT_SHAPES],
                         ids=[name for name, _ in FACT_SHAPES])
def test_shape_facts_match_geometry(shape):
    """The facts a constructor decides from its parameters agree with the
    boundary radius sampled to 1e-13: ``reflection_symmetric`` exactly when
    the centre is the origin and rho(theta) = rho(pi - theta) =
    rho(-theta), ``centered_ball`` exactly when the centre is the origin
    and rho is constant."""
    theta = np.linspace(-math.pi, math.pi, 361)
    rho = shape.boundary_radius(theta)
    origin = shape.center == (0.0, 0.0)
    mirrored = all(np.max(np.abs(shape.boundary_radius(image) - rho)) <= 1e-13
                   for image in (math.pi - theta, -theta))
    assert shape.reflection_symmetric == (origin and mirrored)
    assert shape.centered_ball == (origin and np.ptp(rho) <= 1e-13)


def test_measures_converge_at_second_order():
    cases = [
        (Domain2D.disk(1.0), E2, W0, math.pi),
        (Domain2D.disk(1.0), E2, RadialWeight.linear(1.0), 2 * math.pi),
        (Domain2D.disk(math.tanh(0.5)), H2, W0, 2 * math.pi * (math.cosh(1) - 1)),
    ]
    for dom, form, w, exact in cases:
        errs = [abs(integrate_weighted(m, form, w) - exact)
                for m in mesh_levels(dom, 8, 64, 3)]
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0
        assert errs[2] < 1e-3 * exact


def test_boundary_length_unit_circle():
    m = mesh_levels(Domain2D.disk(1.0), 8, 64, 3)[-1]
    length = P1Level(m, E2).boundary_integral(W0)
    assert length == pytest.approx(2 * math.pi, rel=1e-4)


def test_boundary_measure_converges_at_second_order():
    w = RadialWeight.linear(1.0)
    exact = 2 * math.pi * math.e   # weighted circumference of the unit circle
    errs = [abs(P1Level(m, E2).boundary_integral(w) - exact)
            for m in mesh_levels(Domain2D.disk(1.0), 8, 64, 3)]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_polygon_measures_exact():
    sq = Domain2D.polygon([(1, -1), (1, 1), (-1, 1), (-1, -1)])
    m = generate_mesh(sq, 4, 16)
    area = integrate_weighted(m, E2, W0)
    perim = P1Level(m, E2).boundary_integral(W0)
    assert area == pytest.approx(4.0, rel=1e-12)
    assert perim == pytest.approx(8.0, rel=1e-12)


def test_polygon_refinement_recovers_corners():
    rect = Domain2D.polygon([(2, -0.5), (2, 0.5), (-2, 0.5), (-2, -0.5)])
    m = generate_mesh(rect, 4, 32)
    errs = []
    for _ in range(3):
        errs.append(abs(integrate_weighted(m, E2, W0) - 4.0))
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
                   domain=None)


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
