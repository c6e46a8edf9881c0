import math

import numpy as np
import pytest

from steklovw.geometry import Curvature, DomainError, RadialWeight, SpaceForm
from steklovw.mesh2d import Domain2D, TriMesh, generate_mesh, mesh_measures
from steklovw.radial import sigma1_ball
from steklovw.steklov2d import (assemble, domain_spectrum, dtn_reduce,
                                solve_spectrum)
from steklovw.verify import MeshHierarchy

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
H2 = SpaceForm(Curvature.HYPERBOLIC, 2)
W0 = RadialWeight.constant()


@pytest.fixture(scope="module")
def disk_mesh():
    return generate_mesh(Domain2D.disk(1.0), 8, 64)


def test_constants_in_stiffness_kernel(disk_mesh):
    sys = assemble(disk_mesh, E2, RadialWeight.quadratic(0.5, 0.25))
    one = np.ones(sys.stiffness.shape[0])
    assert np.max(np.abs(sys.stiffness @ one)) < 1e-12


def test_constant_weight_scales_stiffness(disk_mesh):
    c = 1.3
    k0 = assemble(disk_mesh, E2, RadialWeight.constant(0.0)).stiffness
    kc = assemble(disk_mesh, E2, RadialWeight.constant(c)).stiffness
    diff = (kc - math.exp(-c) * k0)
    assert abs(diff).max() < 1e-14 * abs(k0).max()


def test_boundary_mass_totals_weighted_length(disk_mesh):
    w = RadialWeight.linear(0.5)
    sys = assemble(disk_mesh, E2, w)
    total = sys.boundary_mass.sum()
    _, length = mesh_measures(disk_mesh, E2, w)
    assert total == pytest.approx(length, rel=1e-13)


def test_schur_kernel_and_symmetry(disk_mesh):
    sys = assemble(disk_mesh, E2, W0)
    S, Mb = dtn_reduce(sys)
    scale = np.max(np.abs(S))
    assert np.max(np.abs(S @ np.ones(S.shape[0]))) < 1e-10 * scale
    assert np.max(np.abs(S - S.T)) < 1e-12 * scale
    # eigenvalues of the pencil are nonnegative up to roundoff
    vals = np.linalg.eigvalsh(S)
    assert vals.min() > -1e-10 * scale


def test_schur_matches_minimal_extension_energy(disk_mesh):
    """Rayleigh quotient of S equals the energy of the harmonic extension."""
    sys = assemble(disk_mesh, E2, RadialWeight.linear(0.5))
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
    spec = domain_spectrum(disk_mesh, E2, RadialWeight.linear(0.5), 5)
    vals = spec.eigenvalues
    assert np.all(np.diff(vals) >= -1e-12)
    assert abs(vals[0]) <= 1e-8 * vals[1]
    v0 = spec.boundary_eigenvectors[:, 0]
    dev = np.max(np.abs(v0 - v0.mean())) / abs(v0.mean())
    assert dev < 1e-6


def test_eigenvectors_mass_orthonormal(disk_mesh):
    sys = assemble(disk_mesh, E2, W0)
    S, Mb = dtn_reduce(sys)
    spec = solve_spectrum(S, Mb, 4)
    V = spec.boundary_eigenvectors
    gram = V.T @ Mb @ V
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


def test_weight_shift_invariance(disk_mesh):
    a = domain_spectrum(disk_mesh, E2, RadialWeight.constant(0.0), 4)
    b = domain_spectrum(disk_mesh, E2, RadialWeight.constant(2.0), 4)
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) < 1e-12 * \
        max(1.0, a.eigenvalues[-1])
    # shifting a non-constant weight by a constant is equally invisible
    ts = np.linspace(0.0, 1.5, 3001)
    w0 = RadialWeight.tabulated(ts, -0.5 * ts)
    wc = RadialWeight.tabulated(ts, -0.5 * ts + 1.7)
    sa = domain_spectrum(disk_mesh, E2, w0, 3)
    sb = domain_spectrum(disk_mesh, E2, wc, 3)
    assert np.max(np.abs(sa.eigenvalues - sb.eigenvalues)) < 1e-12 * \
        max(1.0, sa.eigenvalues[-1])


def test_rotation_equivariance(disk_mesh):
    w = RadialWeight.linear(0.5)
    base = domain_spectrum(disk_mesh, E2, w, 4).eigenvalues
    ang = 0.7
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    rotated = TriMesh(vertices=disk_mesh.vertices @ rot.T,
                      triangles=disk_mesh.triangles,
                      boundary_edges=disk_mesh.boundary_edges,
                      h=disk_mesh.h, domain=None)
    got = domain_spectrum(rotated, E2, w, 4).eigenvalues
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
        assemble(mesh, H2, W0)
