import math

import numpy as np
import pytest

import oracles
from steklovw.geometry import (AdmissibilityError, Curvature, DomainError,
                               QuadratureError, RadialWeight, SpaceForm,
                               ball_boundary_weighted_measure,
                               ball_weighted_volume, c_kappa, conformal_factor,
                               poincare_distance, s_kappa, unit_sphere_area,
                               validate_property_i)
from steklovw.mesh2d import Domain2D, MeridianDomain
from steklovw.radial import sigma1_ball, solve_mode
from steklovw.verify import match_radius

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
E3 = SpaceForm(Curvature.EUCLIDEAN, 3)
H2 = SpaceForm(Curvature.HYPERBOLIC, 2)
H3 = SpaceForm(Curvature.HYPERBOLIC, 3)
S2 = SpaceForm(Curvature.SPHERICAL_CAP, 2)

SINH1 = 1.1752011936438014   # high-precision sinh(1), cross-checked by series


def test_space_form_validation():
    with pytest.raises(DomainError):
        SpaceForm(Curvature.EUCLIDEAN, 1)
    assert E3.kappa == 0
    assert H2.kappa == -1


def test_s_kappa_examples():
    assert s_kappa(E2, 2.0) == 2.0
    assert s_kappa(H2, 0.0) == 0.0
    assert s_kappa(H2, 1.0) == pytest.approx(SINH1, rel=1e-12)
    # power-series cross-check of the frozen constant
    series = sum(1.0 ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(12))
    assert SINH1 == pytest.approx(series, rel=1e-14)
    assert s_kappa(S2, math.pi / 2) == pytest.approx(1.0)


def test_s_kappa_domain_errors():
    with pytest.raises(DomainError):
        s_kappa(E2, -0.1)
    with pytest.raises(DomainError):
        s_kappa(S2, math.pi)
    with pytest.raises(DomainError):
        c_kappa(H2, -1.0)


def test_c_kappa_is_derivative():
    ts = np.linspace(0.1, 3.0, 50)
    h = 1e-6
    for form in (E2, H2):
        num = (s_kappa(form, ts + h) - s_kappa(form, ts - h)) / (2 * h)
        assert np.allclose(c_kappa(form, ts), num, atol=1e-9)


def test_metric_coefficient_positivity():
    ts = np.linspace(1e-6, 5.0, 200)
    for form in (E2, H2):
        assert np.all(s_kappa(form, ts) > 0)
        assert np.all(c_kappa(form, ts) >= 1.0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_evaluators():
    w = RadialWeight.quadratic(1.0, 0.25)
    ts = np.linspace(0, 2, 9)
    assert np.allclose(w.phi(ts), -ts - 0.25 * ts ** 2)
    assert np.allclose(w.phi_prime(ts), -1 - 0.5 * ts)
    assert np.allclose(w.phi_second(ts), -0.5)
    assert RadialWeight.constant(3.0).phi(1.7) == 3.0
    assert RadialWeight.linear(2.0).phi_prime(0.3) == -2.0


def test_property_i_constant_and_linear_admissible():
    validate_property_i(RadialWeight.constant(1.0), 2.0)
    validate_property_i(RadialWeight.linear(1.0), 2.0)
    validate_property_i(RadialWeight.quadratic(0.5, 0.25), 2.0)


def test_property_i_rejects_convex_log_weight():
    # phi(t) = -log(1+t) is non-increasing but convex: phi'' = 1/(1+t)^2 > 0
    ts = np.linspace(0.0, 3.0, 301)
    w = RadialWeight.tabulated(ts, -np.log1p(ts))
    with pytest.raises(AdmissibilityError,
                       match=r"Property I .*max phi' = -.*max phi'' = [1-9]"):
        validate_property_i(w, 3.0)


def test_property_i_rejects_increasing_weight():
    with pytest.raises(AdmissibilityError,
                       match=r"Property I .*\[0, 2\]: max phi' = 1\.000e\+00"):
        validate_property_i(RadialWeight.linear(-1.0), 2.0)   # phi = +t


def test_property_i_preconditions():
    with pytest.raises(DomainError):
        validate_property_i(RadialWeight.constant(), -1.0)
    ts = np.linspace(0.0, 1.0, 11)
    w = RadialWeight.tabulated(ts, -ts)
    validate_property_i(w, 1.0)
    with pytest.raises(DomainError, match="outside its grid"):
        validate_property_i(w, 1.5)     # past the table's end


def test_property_i_refuses_a_convex_bump_at_any_node():
    """phi = -t - t^2/4 with 1e-5 added at one node: the table's phi'' is
    about +5 on the intervals beside that node, wherever it lies."""
    ts = np.linspace(0.0, 1.0, 1001)
    phi = -ts - ts * ts / 4
    validate_property_i(RadialWeight.tabulated(ts, phi), 1.0)
    for j in range(300, 700):
        bump = phi.copy()
        bump[j] += 1e-5
        with pytest.raises(AdmissibilityError, match=r"max phi'' = [1-9]\.\d+e\+00"):
            validate_property_i(RadialWeight.tabulated(ts, bump), 1.0)


def test_tabulated_weight_validation():
    with pytest.raises(DomainError):
        RadialWeight.tabulated([0.0, 1.0, 0.5, 2.0], [0.0, -1, -2, -3])
    with pytest.raises(DomainError):
        RadialWeight.tabulated([0.0, 1.0], [0.0, -1.0])
    w = RadialWeight.tabulated(np.linspace(0, 2, 50), -np.linspace(0, 2, 50))
    with pytest.raises(DomainError):
        w.phi(3.0)   # outside the tabulated range


def test_tabulated_matches_closed_form():
    ts = np.linspace(0.0, 2.0, 2001)
    w_tab = RadialWeight.tabulated(ts, -0.5 * ts)
    w = RadialWeight.linear(0.5)
    q = np.linspace(0.0, 2.0, 37)
    assert np.allclose(w_tab.phi(q), w.phi(q), atol=1e-12)
    assert np.allclose(w_tab.phi_prime(q), w.phi_prime(q), atol=1e-9)


# ---------------------------------------------------------------------------
# weighted ball measures
# ---------------------------------------------------------------------------

def test_unit_sphere_area_known_values():
    assert unit_sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert unit_sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)
    assert unit_sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-13)


def test_ball_weighted_volume_examples():
    w0 = RadialWeight.constant()
    assert ball_weighted_volume(E2, w0, 1.0) == pytest.approx(math.pi, rel=1e-12)
    # int_0^1 t e^t dt = 1 via the antiderivative (t-1) e^t
    assert ball_weighted_volume(E2, RadialWeight.linear(1.0), 1.0) == \
        pytest.approx(2 * math.pi, rel=1e-12)
    assert ball_weighted_volume(H2, w0, 1.0) == \
        pytest.approx(2 * math.pi * (math.cosh(1) - 1), rel=1e-12)


def test_ball_weighted_volume_monotone_in_radius():
    w = RadialWeight.quadratic(0.5, 0.1)
    radii = np.linspace(0.2, 2.0, 10)
    vols = [ball_weighted_volume(H2, w, r) for r in radii]
    assert np.all(np.diff(vols) > 0)


def test_constant_weight_factors_out():
    c = 1.7
    v0 = ball_weighted_volume(E3, RadialWeight.constant(0.0), 1.3)
    vc = ball_weighted_volume(E3, RadialWeight.constant(c), 1.3)
    assert vc == pytest.approx(math.exp(-c) * v0, rel=1e-12)


def test_boundary_measure_examples():
    w0 = RadialWeight.constant()
    assert ball_boundary_weighted_measure(E2, w0, 1.0) == \
        pytest.approx(2 * math.pi, rel=1e-14)
    assert ball_boundary_weighted_measure(E3, w0, 2.0) == \
        pytest.approx(16 * math.pi, rel=1e-14)
    # independent arithmetic: 2 pi * sinh(1) * e
    expected = 2 * math.pi * SINH1 * math.e
    assert expected == pytest.approx(20.0718, abs=5e-4)
    assert ball_boundary_weighted_measure(H2, RadialWeight.linear(1.0), 1.0) == \
        pytest.approx(expected, rel=1e-12)


TABLE_T, TABLE_PHI = oracles.concave_table()
ORACLE_WEIGHTS = {
    "constant": (RadialWeight.constant(0.3), lambda t: 0.3 + 0.0 * t, (),
                 (0.05, 1.0, 2.5)),
    "quadratic": (RadialWeight.quadratic(1.5, 0.7),
                  lambda t: -1.5 * t - 0.7 * t * t, (), (0.05, 1.0, 2.5)),
    "tabulated": (RadialWeight.tabulated(TABLE_T, TABLE_PHI),
                  oracles.table_phi(TABLE_T, TABLE_PHI), TABLE_T,
                  (0.003, 0.77, 1.25)),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_WEIGHTS))
@pytest.mark.parametrize("form", [E2, E3, H2, H3, S2], ids=lambda f: f.label)
def test_ball_volume_matches_gauss_oracle(form, kind):
    """The adaptive panel rule against fixed 40-point Gauss-Legendre on
    every table interval (uniform panels for closed-form weights)."""
    w, phi, breaks, radii = ORACLE_WEIGHTS[kind]
    for R in radii:
        want = oracles.ball_volume(form.dim, form.kappa, phi, R, breaks)
        assert ball_weighted_volume(form, w, R) == pytest.approx(want, rel=1e-13)


def test_divergent_ball_integrand_raises_quadrature_error():
    """int_0^1 t^-3 * t dt diverges: a typed error, never a number."""
    w = RadialWeight.constant()
    for fn in (lambda t: t ** -3, lambda t: 1.0 / t ** 2):
        with pytest.raises(QuadratureError):
            ball_weighted_volume(E2, w, 1.0, fn=fn)
    with pytest.raises(QuadratureError):
        ball_weighted_volume(E2, w, 1.0, fn=lambda t: np.full_like(t, np.nan))


def test_ball_volume_evaluates_fn_on_node_arrays():
    calls = []

    def fn(t):
        calls.append(t.size)
        return t * t

    # int_0^1 t^2 * 2 pi t dt = pi / 2
    assert ball_weighted_volume(E2, RadialWeight.constant(), 1.0, fn=fn) == \
        pytest.approx(math.pi / 2, rel=1e-14)
    assert 1 <= len(calls) <= 2 and min(calls) > 1
    calls.clear()
    ball_weighted_volume(E2, ORACLE_WEIGHTS["tabulated"][0], 1.0, fn=fn)
    assert len(calls) <= 2 and min(calls) > 500


def test_ball_volume_takes_a_stack_of_integrands():
    """fn returning shape (k, m) gives k integrals, each to its own
    tolerance; t^-1/2 makes the panels at 0 split, t^2 and cos t ride along."""
    fns = [lambda t: t * t, lambda t: t ** -0.5, np.cos]
    got = ball_weighted_volume(E2, RadialWeight.constant(), 1.0,
                               lambda t: np.stack([f(t) for f in fns]))
    want = [math.pi / 2, 4 * math.pi / 3,
            2 * math.pi * (math.cos(1.0) + math.sin(1.0) - 1.0)]
    assert got == pytest.approx(want, rel=1e-13)
    w = RadialWeight.quadratic(0.5, 0.4)
    got = ball_weighted_volume(H3, w, 1.2, lambda t: np.stack([f(t) for f in fns]))
    assert got == pytest.approx(
        [ball_weighted_volume(H3, w, 1.2, f) for f in fns], rel=1e-13)


def test_ball_volume_domain_errors():
    with pytest.raises(DomainError):
        ball_weighted_volume(E2, RadialWeight.constant(), -1.0)
    with pytest.raises(DomainError):
        ball_weighted_volume(S2, RadialWeight.constant(), 3.5)


LIN = RadialWeight.linear(0.5)
TAB = RadialWeight.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, -1.0, -2.0, -3.0])
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: ball_weighted_volume(E2, LIN, NAN),
    lambda: ball_weighted_volume(E2, LIN, INF),
    lambda: ball_boundary_weighted_measure(E2, LIN, NAN),
    lambda: sigma1_ball(E2, RadialWeight.constant(NAN), 1.0),
    lambda: RadialWeight.quadratic(0.5, INF),
    lambda: Domain2D.disk(NAN),
    lambda: Domain2D.ellipse(INF, 1.0),
    lambda: Domain2D.disk(1.0, center=(NAN, 0.0)),
    lambda: Domain2D.perturbed_disk(1.0, NAN, 2),
    lambda: Domain2D.perturbed_disk(1.0, 0.1, NAN),
    lambda: Domain2D.perturbed_disk(1.0, 0.0, INF),
    lambda: MeridianDomain.perturbed_ball(1.0, 0.1, NAN),
    lambda: MeridianDomain.perturbed_ball(1.0, 0.0, INF),
    lambda: MeridianDomain.spheroid(NAN, 1.0),
    lambda: solve_mode(E2, LIN, 1, NAN),
    lambda: solve_mode(E2, LIN, 1, INF),
    lambda: solve_mode(E2, LIN, 1, 1.0, t_end=NAN),
    lambda: validate_property_i(LIN, NAN),
    lambda: TAB.phi(NAN),
    lambda: match_radius(E2, LIN, NAN),
], ids=["ball-volume-nan", "ball-volume-inf", "ball-boundary-nan",
        "constant-weight-nan", "quadratic-weight-inf", "disk-nan",
        "ellipse-inf", "disk-center-nan", "perturbed-disk-eps-nan",
        "perturbed-disk-k-nan", "perturbed-disk-k-inf", "perturbed-ball-k-nan",
        "perturbed-ball-k-inf",
        "spheroid-nan", "solve-mode-nan", "solve-mode-inf", "solve-mode-t-end-nan",
        "property-check-nan", "tabulated-phi-nan", "match-radius-nan"])
def test_non_finite_arguments_raise_domain_error(call):
    """A non-finite number is rejected where it enters the library, never
    turned into a silent value or a later solver failure."""
    with pytest.raises(DomainError):
        call()


# ---------------------------------------------------------------------------
# Poincare-disk helpers
# ---------------------------------------------------------------------------

def test_poincare_distance_examples():
    assert poincare_distance((0.0, 0.0)) == 0.0
    assert poincare_distance((math.tanh(0.5), 0.0)) == pytest.approx(1.0, rel=1e-14)
    assert poincare_distance((0.0, math.tanh(1.0))) == pytest.approx(2.0, rel=1e-14)


def test_poincare_distance_inverts_tanh_half():
    ts = np.linspace(0.0, 5.0, 101)
    pts = np.stack([np.tanh(ts / 2), np.zeros_like(ts)], axis=1)
    assert np.allclose(poincare_distance(pts), ts, atol=1e-12)


def test_conformal_factor():
    assert conformal_factor((0.0, 0.0)) == 2.0
    r = 0.6
    assert conformal_factor((r, 0.0)) == pytest.approx(2 / (1 - r * r), rel=1e-14)


def test_poincare_domain_errors():
    with pytest.raises(DomainError):
        poincare_distance((1.0, 0.0))
    with pytest.raises(DomainError):
        conformal_factor((0.8, 0.8))
