import csv
import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp

from oracles import (concave_table, fd_beta_rich, kummer_beta,
                     radial_integral, shoot_beta)
from steklovw import AdmissibilityError, radial
from steklovw.config import DEFAULT_CONFIG
from steklovw.geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                               ball_boundary_weighted_measure)
from steklovw.radial import (GHProfile, ball_gh_integrals, ball_spectrum,
                             check_gh_monotonicity, compute_gh, g_values,
                             h_values, harmonic_multiplicity, sigma1_ball,
                             solve_mode)

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
E3 = SpaceForm(Curvature.EUCLIDEAN, 3)
E4 = SpaceForm(Curvature.EUCLIDEAN, 4)
E5 = SpaceForm(Curvature.EUCLIDEAN, 5)
H2 = SpaceForm(Curvature.HYPERBOLIC, 2)
H3 = SpaceForm(Curvature.HYPERBOLIC, 3)
S2 = SpaceForm(Curvature.SPHERICAL_CAP, 2)
W0 = RadialWeight.constant()


# ---------------------------------------------------------------------------
# exact Euclidean and hyperbolic values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("form", [E2, E3, E5])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_euclidean_mode1_exact(form, R):
    # T = t solves the constant-weight equation in every dimension
    sol = solve_mode(form, W0, 1, R)
    assert sol.beta == pytest.approx(1.0 / R, rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_euclidean_higher_modes_exact(k):
    # T = t^k solves the mode-k equation; beta_k = k / R
    for R in (0.5, 2.0):
        sol = solve_mode(E2, W0, k, R)
        assert sol.beta == pytest.approx(k / R, rel=1e-9)


def test_unit_disk_first_eigenvalue_is_one():
    assert sigma1_ball(E2, W0, 1.0).value == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_hyperbolic_mode1_closed_form(R):
    # T = 2 tanh(t/2) solves the n=2 constant-weight equation: beta = 1/sinh R
    sol = solve_mode(H2, W0, 1, R)
    assert sol.beta == pytest.approx(1.0 / math.sinh(R), rel=1e-9)


@pytest.mark.parametrize("R", [0.5, 1.0, 1.4])
def test_spherical_cap_mode1_closed_form(R):
    # sin/sinh analogy: T = 2 tan(t/2) solves the n=2 cap equation
    S2 = SpaceForm(Curvature.SPHERICAL_CAP, 2)
    sol = solve_mode(S2, W0, 1, R)
    assert sol.beta == pytest.approx(1.0 / math.sin(R), rel=1e-9)


def test_spherical_cap_weighted_against_fd_march():
    S2 = SpaceForm(Curvature.SPHERICAL_CAP, 2)
    got = solve_mode(S2, RadialWeight.linear(0.5), 1, 1.0).beta
    assert got == pytest.approx(fd_beta_rich(2, 1, lambda t: -0.5, 1.0),
                                rel=1e-8)
    res = sigma1_ball(SpaceForm(Curvature.SPHERICAL_CAP, 3),
                      RadialWeight.linear(0.25), 1.2)
    assert res.rel_discrepancy < 1e-9


def test_linear_weight_closed_form_family():
    # exact solution T = t M(1, 3, -a t) = 2(exp(-a t) - 1 + a t)/(a^2 t)
    for a, R in ((1.0, 1.0), (0.5, 1.0), (0.25, 2.0)):
        sol = solve_mode(E2, RadialWeight.linear(a), 1, R)
        assert sol.beta == pytest.approx(kummer_beta(2, 1, R, a=a), rel=1e-9)
    # a = 1, R = 1 collapses to e - 2
    assert sigma1_ball(E2, RadialWeight.linear(1.0), 1.0).value == \
        pytest.approx(math.e - 2.0, rel=1e-9)


def test_weighted_values_against_fd_march():
    cases = [
        (E2, 0, RadialWeight.quadratic(1.0, 0.25), lambda t: -1.0 - 0.5 * t),
        (E3, 0, RadialWeight.linear(0.5), lambda t: -0.5),
        (H2, -1, RadialWeight.linear(0.5), lambda t: -0.5),
        (H2, -1, RadialWeight.quadratic(1.0, 0.25), lambda t: -1.0 - 0.5 * t),
    ]
    for form, kappa, w, dphi in cases:
        got = solve_mode(form, w, 1, 1.0).beta
        want = fd_beta_rich(form.dim, kappa, dphi, 1.0)
        assert got == pytest.approx(want, rel=2e-7)


# frozen values from the finite-difference oracle (Richardson, err ~1e-9)
FROZEN = [
    (E2, RadialWeight.quadratic(1.0, 0.25), 0.635828806820),
    (E3, RadialWeight.linear(0.5), 0.883986597683),
    (H2, RadialWeight.linear(0.5), 0.712835084381),
    (H2, RadialWeight.quadratic(1.0, 0.25), 0.526215233365),
]


@pytest.mark.parametrize("form,w,expected", FROZEN)
def test_frozen_weighted_values(form, w, expected):
    assert sigma1_ball(form, w, 1.0).value == pytest.approx(expected, rel=1e-8)


# closed-form weights with their phi' written out for the oracle
POLYNOMIAL = [(RadialWeight.constant(0.4), lambda t: 0.0),
              (RadialWeight.linear(0.75), lambda t: -0.75),
              (RadialWeight.quadratic(0.5, 0.4), lambda t: -0.5 - 0.8 * t)]


@pytest.mark.parametrize("w, dphi", POLYNOMIAL, ids=["constant", "linear", "quadratic"])
@pytest.mark.parametrize("form", [E2, E3, H2, H3, S2], ids=lambda f: f.label)
def test_collocation_matches_restarted_shooting(form, w, dphi):
    for R in (0.5, 1.0, 1.5):
        for i in (1, 2, 3):
            want = shoot_beta(form.dim, form.kappa, dphi, R, i)
            beta = solve_mode(form, w, i, R).beta
            assert beta == pytest.approx(want, rel=1e-10)
            # continued past R: beta unchanged, T'/T at t_end as if solved to it
            t_end = R + 0.4
            ext = solve_mode(form, w, i, R, t_end=t_end)
            assert ext.beta == beta
            T, dT = ext(t_end)
            assert dT[0] / T[0] == pytest.approx(
                solve_mode(form, w, i, t_end).beta, rel=1e-10)


def test_unconverged_collocation_falls_back_to_shooting(monkeypatch):
    """Degrees 24 and 32 disagree on a steep weight over a large hyperbolic
    ball, so that solve goes to DOP853; a moderate one never reaches it."""
    calls = []
    orig = radial._dop853
    monkeypatch.setattr(radial, "_dop853",
                        lambda *a, **k: calls.append(1) or orig(*a, **k))
    solve_mode(H3, RadialWeight.quadratic(0.5, 0.4), 1, 1.5, t_end=2.0)
    assert calls == []
    beta = solve_mode(H2, RadialWeight.quadratic(2.0, 1.0), 1, 8.0).beta
    assert calls == [1]
    assert beta == pytest.approx(
        shoot_beta(2, -1, lambda t: -2.0 - 2.0 * t, 8.0), rel=1e-7)


@pytest.mark.parametrize("R", [0.5, 1.0, 1.4])
def test_closed_forms_to_roundoff(R):
    for form in (E2, E3):
        for i in (1, 2, 3):
            assert solve_mode(form, W0, i, R).beta == pytest.approx(i / R, rel=1e-12)
    assert solve_mode(H2, W0, 1, R).beta == pytest.approx(1 / math.sinh(R), rel=1e-12)
    assert solve_mode(S2, W0, 1, R).beta == pytest.approx(1 / math.sin(R), rel=1e-12)
    for a in (0.25, 1.0):
        assert solve_mode(E2, RadialWeight.linear(a), 1, R).beta == \
            pytest.approx(kummer_beta(2, 1, R, a=a), rel=1e-12)


@pytest.mark.parametrize("form", [E2, E3, H2, H3], ids=lambda f: f.label)
def test_identity_holds_tightly_on_polynomial_weights(form):
    for w, _ in POLYNOMIAL:
        assert sigma1_ball(form, w, 1.2).rel_discrepancy < 1e-10


@pytest.mark.parametrize("form, expected", [
    (E2, [0.7850488239239318, 1.697672548013283, 2.649745692657387]),
    (H3, [0.62872732289455, 1.3602482089830075, 2.13637932093031])])
def test_tabulated_beta_frozen(form, expected):
    # tabulated weights stay on DOP853: these are the shooting values as
    # recorded, and mode 1 meets the node-restarted oracle to 1e-9
    w = RadialWeight.tabulated(*concave_table())
    got = [solve_mode(form, w, i, 1.0).beta for i in (1, 2, 3)]
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
    dphi = lambda t: float(np.interp(t, w.grid_t, w.grid_dphi))
    assert got[0] == pytest.approx(
        shoot_beta(form.dim, form.kappa, dphi, 1.0, breaks=w.grid_t), rel=1e-9)


def _record_dop853(monkeypatch):
    """Every call of the in-module DOP853 loop, as (args, result)."""
    calls, orig = [], radial._dop853
    monkeypatch.setattr(radial, "_dop853", lambda *a: calls.append(
        (a, orig(*a))) or calls[-1][1])
    return calls


def _scipy_dop853(fun, t0, y0, t_end, rtol, atol):
    return solve_ivp(fun, (t0, t_end), y0, method="DOP853", rtol=rtol,
                     atol=atol, dense_output=True)


@pytest.mark.parametrize("form, t_end", [(E2, 1.0), (H3, 1.2)],
                         ids=["E2", "H3-extended"])
def test_dense_evaluator_is_scipys_bit_for_bit(monkeypatch, form, t_end):
    """The DOP853 evaluator holds every step's dense-output piece and runs
    scipy's segment choice and Horner sequence on all points together; it
    returns exactly ``OdeSolution``'s values on the report grid and on the
    Gauss nodes of the G/H integrals.  Tabulated beta is rounding-chaotic at
    1e-9, so reordering even one sum would move recorded values."""
    calls = _record_dop853(monkeypatch)
    sol = solve_mode(form, RadialWeight.tabulated(*concave_table()), 1, 1.0,
                     t_end=t_end)
    ode = _scipy_dop853(*calls[-1][0]).sol
    dense, nodes = sol._dense, []
    sol._dense = lambda t: nodes.append(t) or dense(t)
    ball_gh_integrals(sol)
    nodes = np.concatenate(nodes)
    nodes = nodes[nodes >= sol.grid[0]]
    assert len(nodes) > 500
    for t in (sol.grid, nodes):
        assert np.array_equal(dense(t), ode(t))


def _criterion4_tables(count, seed=20250810):
    """Concave tables as criterion 4 builds them: phi = -int g with g a
    constant plus three ramps, all drawn from the criterion's ranges."""
    rng, ts = np.random.default_rng(seed), np.linspace(0.0, 1.25, 641)
    tables = []
    for _ in range(count):
        g = np.full_like(ts, rng.uniform(0.0, 1.0))
        for _k in range(3):
            knot = rng.uniform(0.1, 1.0)
            g = g + rng.uniform(0.0, 2.0) * np.maximum(ts - knot, 0.0)
        tables.append((ts, -cumulative_trapezoid(g, ts, initial=0.0)))
    return tables


_LOOP_CASES = {
    name: [(form, RadialWeight.tabulated(*table), i, R, t_end)
           for form in (E2, E3, H2, H3) for i in (1, 2, 3)
           for R, t_end in ((1.0, 1.0), (0.8, 1.2))]
    for name, table in zip(["concave_table", "c4-0", "c4-1", "c4-2", "c4-3"],
                           [concave_table(), *_criterion4_tables(4)])}
_LOOP_CASES["closed-form-fallback"] = [
    (H2, RadialWeight.quadratic(2.0, 1.0), 1, 8.0, 8.0)]


def _interp_rhs(form, w, i):
    """The mode equation as a first-order system, with a table's phi'
    from np.interp itself."""
    n, lam = form.dim, radial.angular_eigenvalue(form.dim, i)
    dphi = (partial(np.interp, xp=w.grid_t, fp=w.grid_dphi)
            if w.kind == "tabulated" else w.phi_prime)
    sc = {Curvature.EUCLIDEAN: lambda t: (t, 1.0),
          Curvature.HYPERBOLIC: lambda t: (np.sinh(t), np.cosh(t))}[form.curvature]

    def rhs(t, y):
        s, c = sc(t)
        return y[1], -((n - 1) * c / s - dphi(t)) * y[1] + lam / (s * s) * y[0]
    return rhs


@pytest.mark.parametrize("cases", _LOOP_CASES.values(), ids=_LOOP_CASES.keys())
def test_dop853_loop_is_scipys_bit_for_bit(monkeypatch, cases):
    """The in-module loop and its right-hand side repeat scipy's DOP853 on
    np.interp's phi' (checked against the installed scipy; CI pins 1.17.1):
    the same step times, dense pieces, values and beta, on tabulated
    weights in E2, E3, H2 and H3, modes 1-3, to t_end = R and past it, and
    on the closed-form fallback."""
    calls = _record_dop853(monkeypatch)
    for case in cases:
        form, w, i, R, t_end = case
        beta = solve_mode(form, w, i, R, t_end=t_end).beta
        args, (ts, ys, F) = calls[-1]
        ref = _scipy_dop853(_interp_rhs(form, w, i), *args[1:])
        pieces = ref.sol.interpolants
        assert ref.success and len(pieces) == len(F), case
        assert np.array_equal(ts, ref.t), case
        assert np.array_equal(ys, ref.y.T), case
        assert np.array_equal(F, np.stack([p.F for p in pieces])), case
        assert np.array_equal(ys[:-1], np.stack([p.y_old for p in pieces])), case
        assert np.array_equal(np.diff(ts), [p.h for p in pieces]), case
        T, dT = ref.y[:, -1] if t_end == R else ref.sol(R)
        assert beta == float(dT / T), case
    assert len(calls) == len(cases)


@pytest.mark.parametrize("table", [concave_table(), *_criterion4_tables(4)],
                         ids=["concave_table", "c4-0", "c4-1", "c4-2", "c4-3"])
def test_identity_is_exact_on_tables(table):
    """A table's phi is the integral of its phi', so int_B H dmu over
    T(R)^2 |bd B_R| is beta to quadrature accuracy: it meets the
    node-restarted rtol-1e-13 shooting value to 1e-10, which the package's
    rtol-1e-10 beta need not."""
    w = RadialWeight.tabulated(*table)
    dphi = lambda t: float(np.interp(t, w.grid_t, w.grid_dphi))
    for form in (E2, E3, H2, H3):
        for R in (0.7, 1.0, 1.2):
            res = sigma1_ball(form, w, R)
            ref = shoot_beta(form.dim, form.kappa, dphi, R, breaks=w.grid_t)
            assert res.integral_value == pytest.approx(ref, rel=1e-10), (form, R)
            assert res.rel_discrepancy < 1e-6


def test_dop853_loop_raises_on_nan_never_returns_it():
    """Step-size underflow raises IntegrationError: a right-hand side that
    turns NaN at t = 0.5 stalls the step there (where scipy reports
    failure), and one that is NaN from the start stops at once (where
    scipy's step loop never ends)."""
    y0 = np.array([1.0, 0.0])
    half = lambda t, y: (math.nan if t > 0.5 else y[1], y[0])
    assert not _scipy_dop853(half, 0.0, y0, 1.0, 1e-10, 1e-12).success
    for fun in (half, lambda t, y: (math.nan, math.nan)):
        with pytest.raises(radial.IntegrationError):
            radial._dop853(fun, 0.0, y0, 1.0, 1e-10, 1e-12)


def test_tabulated_weight_rejects_queries_past_its_grid():
    w = RadialWeight.tabulated(*concave_table())    # grid ends at 1.25
    with pytest.raises(DomainError):
        solve_mode(E2, w, 1, 1.3)
    with pytest.raises(DomainError):
        solve_mode(H3, w, 1, 1.0, t_end=1.3)
    with pytest.raises(DomainError):
        sigma1_ball(E2, w, 1.3)


# ---------------------------------------------------------------------------
# integral identity and metadata
# ---------------------------------------------------------------------------

def test_integral_identity_small_discrepancy():
    for form, w in [(E2, RadialWeight.linear(1.0)),
                    (H2, RadialWeight.quadratic(0.5, 0.25)),
                    (E3, RadialWeight.linear(0.25)),
                    (H3, RadialWeight.constant())]:
        res = sigma1_ball(form, w, 1.5)
        assert res.rel_discrepancy < 1e-12
        assert res.integral_value == pytest.approx(res.value, rel=1e-12)


@pytest.mark.parametrize("w", [w for w, _ in POLYNOMIAL],
                         ids=["constant", "linear", "quadratic"])
@pytest.mark.parametrize("form", [E2, H3, S2], ids=lambda f: f.label)
def test_ball_integrals_match_gauss_oracle(form, w):
    """int_B G and int_B H, each on the adaptive ball-volume panels, against
    fixed Gauss-Legendre per integrand."""
    for R in (0.5, 0.9, 1.4):
        res = sigma1_ball(form, w, R)
        sol = res.solution
        g = radial_integral(sol, lambda t, T, dT: g_values(form, w, t, T, dT))
        h = radial_integral(sol, lambda t, T, dT: h_values(form, w, t, T, dT))
        denom = sol(R)[0][0] ** 2 * ball_boundary_weighted_measure(form, w, R)
        assert ball_gh_integrals(sol) == pytest.approx((g, h), rel=1e-12, abs=0.0)
        assert res.integral_value == pytest.approx(h / denom, rel=1e-12, abs=0.0)


def test_ball_gh_integrals_disk():
    # G = 3t, H = 2 for the unit disk: int G dmu = 2 pi, int H dmu = 2 pi
    sol = solve_mode(E2, W0, 1, 1.0)
    ig, ih = ball_gh_integrals(sol)
    assert ig == pytest.approx(2 * math.pi, rel=1e-13)
    assert ih == pytest.approx(2 * math.pi, rel=1e-13)
    # sigma1(B_R) = int H / int G
    assert ih / ig == pytest.approx(sol.beta, rel=1e-13)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_mode_monotonicity():
    w = RadialWeight.linear(0.5)
    for form in (E2, H2, E3):
        betas = [solve_mode(form, w, i, 1.0).beta for i in range(1, 6)]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))


def test_constant_weight_reduction_is_exact():
    # the equation sees only phi', so any constant weight gives identical output
    a = solve_mode(E2, RadialWeight.constant(0.0), 1, 1.0)
    b = solve_mode(E2, RadialWeight.constant(5.0), 1, 1.0)
    assert np.array_equal(a.T_values, b.T_values)
    assert a.beta == b.beta


def test_solution_grid_and_positivity():
    sol = solve_mode(H2, RadialWeight.linear(1.0), 1, 2.0)
    assert np.all(np.diff(sol.grid) > 0)
    assert sol.grid[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(sol.T_values > 0)
    assert np.all(sol.Tprime_values > 0)
    assert sol.beta > 0


def test_solve_mode_preconditions():
    with pytest.raises(DomainError):
        solve_mode(E2, W0, 0, 1.0)
    with pytest.raises(DomainError):
        solve_mode(E2, W0, 1, -1.0)
    with pytest.raises(DomainError):
        solve_mode(E2, W0, 1, 1.0, t_end=0.5)
    with pytest.raises(DomainError):
        solve_mode(SpaceForm(Curvature.SPHERICAL_CAP, 2), W0, 1, 3.3)


def test_admissibility_gate():
    bad = RadialWeight.linear(-1.0)    # phi = +t, increasing
    with pytest.raises(AdmissibilityError):
        solve_mode(E2, bad, 1, 1.0)


def test_extended_solution_evaluators():
    sol = solve_mode(E2, W0, 1, 1.0, t_end=2.0)
    assert sol.beta == pytest.approx(1.0, rel=1e-9)   # beta taken at R, not t_end
    ts = np.array([5e-5, 0.5, 1.0, 1.7])
    T, dT = sol(ts)
    assert np.allclose(T, ts, rtol=1e-8)
    assert np.allclose(dT, 1.0, rtol=1e-8)


# ---------------------------------------------------------------------------
# spectra and multiplicities
# ---------------------------------------------------------------------------

def test_harmonic_multiplicity():
    assert [harmonic_multiplicity(2, i) for i in (1, 2, 3)] == [2, 2, 2]
    assert [harmonic_multiplicity(3, i) for i in (1, 2, 3)] == [3, 5, 7]
    assert harmonic_multiplicity(4, 2) == 9
    assert harmonic_multiplicity(5, 1) == 5


def test_disk_spectrum_matches_classical_list():
    spec = ball_spectrum(E2, W0, 1.0, 5)
    assert np.allclose(spec.eigenvalues, [0, 1, 1, 2, 2, 3], atol=1e-9)


def test_ball3_spectrum():
    spec = ball_spectrum(E3, W0, 1.0, 3)
    assert np.allclose(spec.eigenvalues, [0, 1, 1, 1], atol=1e-9)


def test_weighted_disk_double_first_eigenvalue():
    spec = ball_spectrum(E2, RadialWeight.linear(0.5), 1.0, 2)
    assert spec.eigenvalues[0] == 0.0
    assert spec.eigenvalues[1] == spec.eigenvalues[2]   # rotational multiplicity
    assert spec.eigenvalues[1] == pytest.approx(0.8467422493615949, rel=1e-8)


@pytest.mark.parametrize("form", [E2, E3, E4], ids=lambda f: f.label)
def test_kummer_closed_forms_to_roundoff(form):
    """beta_i of modes 1, 2, 3 and 5 under phi = -a t and phi = -a t^2, a
    from 0.5 to 3 at R from 1 to 6, against Kummer's M (within 1.9e-13)."""
    for i in (1, 2, 3, 5):
        for a, R in ((0.5, 1.0), (1.5, 3.0), (3.0, 6.0)):
            lin = solve_mode(form, RadialWeight.linear(a), i, R).beta
            assert lin == pytest.approx(kummer_beta(form.dim, i, R, a=a),
                                        rel=1e-12)
            quad = solve_mode(form, RadialWeight.quadratic(0.0, a), i, R).beta
            assert quad == pytest.approx(kummer_beta(form.dim, i, R, b=a),
                                         rel=1e-12)


def test_ball_spectrum_is_kummer_degrees_with_multiplicity():
    """Degrees 1-3 of the weighted 3-ball, each with its 2i+1 copies."""
    spec = ball_spectrum(E3, RadialWeight.linear(0.5), 1.0, 15)
    beta = [kummer_beta(3, i, 1.0, a=0.5) for i in (1, 2, 3)]
    want = [0.0] + [beta[0]] * 3 + [beta[1]] * 5 + [beta[2]] * 7
    assert np.allclose(spec.eigenvalues, want, rtol=1e-12, atol=0.0)
    assert spec.modes == [0] + [1] * 3 + [2] * 5 + [3] * 7


# ---------------------------------------------------------------------------
# G/H profiles
# ---------------------------------------------------------------------------

def test_gh_profile_disk_closed_form():
    sol = solve_mode(E2, W0, 1, 1.0)
    p = compute_gh(sol)
    assert np.allclose(p.G_values, 3 * p.grid, rtol=1e-8)
    assert np.allclose(p.H_values, 2.0, rtol=1e-8)


def test_gh_profile_leading_order():
    for form, w in [(E3, RadialWeight.linear(0.5)), (H2, W0)]:
        sol = solve_mode(form, w, 1, 1.0)
        p = compute_gh(sol)
        n = form.dim
        t0 = p.grid[0]
        assert p.H_values[0] == pytest.approx(n, rel=1e-3)
        expected_g = (n + 1) * t0 - t0 ** 2 * w.phi_prime(t0)
        assert p.G_values[0] == pytest.approx(expected_g, rel=1e-3)


def test_gh_requires_mode_one():
    sol = solve_mode(E2, W0, 2, 1.0)
    with pytest.raises(DomainError):
        compute_gh(sol)


def test_gh_monotonicity_constant_weight():
    for form in (E2, H2, E3, H3):
        rep = check_gh_monotonicity(compute_gh(solve_mode(form, W0, 1, 1.5)))
        assert rep.passed, (form.label, rep)


def test_gh_monotonicity_flags_inadmissible_weight():
    # phi = +t violates the hypotheses; H gains an increasing stretch.
    # solve_mode refuses the weight, so T'' = -(1/t - 1) T' + T/t^2 is
    # integrated here from its series T = t (1 + t/3) at t0.
    bad = RadialWeight.linear(-1.0)
    t0 = 1e-4
    ivp = solve_ivp(lambda t, y: (y[1], -(1.0 / t - 1.0) * y[1] + y[0] / t**2),
                    (t0, 2.0), [t0 * (1 + t0 / 3), 1 + 2 * t0 / 3],
                    method="DOP853", rtol=1e-10, atol=1e-14, dense_output=True)
    t = np.linspace(t0, 2.0, 400)
    T, dT = ivp.sol(t)
    rep = check_gh_monotonicity(GHProfile(
        form=E2, weight=bad, grid=t, G_values=g_values(E2, bad, t, T, dT),
        H_values=h_values(E2, bad, t, T, dT)))
    assert not rep.h_ok
    assert not rep.passed


def export_radial_csv(sol, path, profile):
    """Write the sampled trajectory and its G/H columns as CSV."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "T", "Tprime", "G", "H"])
        for row in zip(sol.grid, sol.T_values, sol.Tprime_values,
                       profile.G_values, profile.H_values):
            wr.writerow([repr(float(v)) for v in row])


def test_radial_csv_export(tmp_path):
    sol = solve_mode(E2, W0, 1, 1.0)
    p = compute_gh(sol)
    path = tmp_path / "radial.csv"
    export_radial_csv(sol, path, p)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,T,Tprime,G,H"
    assert len(lines) == 1 + DEFAULT_CONFIG.report_points
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] == pytest.approx(first[0], rel=1e-6)   # T ~ t near 0
