"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here, not calibrated elsewhere.
"""
import functools
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import oracles

from steklovw.geometry import (Curvature, RadialWeight, SpaceForm,
                               validate_property_i)
from steklovw.mesh2d import Domain2D, MeridianDomain
from steklovw.radial import (check_gh_monotonicity, compute_gh, sigma1_ball,
                             solve_mode)
from steklovw.verify import (MeshHierarchy, brock_report, convergence_study,
                             proof_chain_check,
                             standard_chain_domains, standard_sweep_euclidean,
                             standard_sweep_hyperbolic,
                             standard_weights_euclidean,
                             standard_weights_hyperbolic)

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
E3 = SpaceForm(Curvature.EUCLIDEAN, 3)
E5 = SpaceForm(Curvature.EUCLIDEAN, 5)
H2 = SpaceForm(Curvature.HYPERBOLIC, 2)
H3 = SpaceForm(Curvature.HYPERBOLIC, 3)


def report_line(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. radial exactness, Euclidean
# ---------------------------------------------------------------------------

def test_criterion_01_radial_exactness_euclidean():
    worst = 0.0
    for form in (E2, E3, E5):
        for R in (0.5, 1.0, 2.0):
            got = sigma1_ball(form, RadialWeight.constant(), R).value
            worst = max(worst, abs(got * R - 1.0))
    ok = worst <= 1e-8
    report_line("criterion 1 (Euclidean ball sigma1 = 1/R)", ok,
                f"worst relative error {worst:.2e} (tol 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# 2. radial exactness, hyperbolic
# ---------------------------------------------------------------------------

def test_criterion_02_radial_exactness_hyperbolic():
    worst = 0.0
    for R in (0.5, 1.0, 2.0):
        got = sigma1_ball(H2, RadialWeight.constant(), R).value
        worst = max(worst, abs(got * math.sinh(R) - 1.0))
    ok = worst <= 1e-6
    report_line("criterion 2 (hyperbolic ball sigma1 = 1/sinh R)", ok,
                f"worst relative error {worst:.2e} (tol 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# 3. shooting / integral identity
# ---------------------------------------------------------------------------

def _identity_cases():
    """20 (form, weight) combinations spanning kinds, curvatures, dimensions."""
    const = RadialWeight.constant()
    linears = [RadialWeight.linear(a) for a in (0.25, 0.5, 1.0)]
    quad_a = RadialWeight.quadratic(0.5, 0.25)
    quad_b = RadialWeight.quadratic(1.0, 0.5)
    cases = []
    for form in (E2, E3, H2, H3):
        cases.append((form, const))
        cases.extend((form, w) for w in linears)
    cases += [(E2, quad_a), (H3, quad_a), (E3, quad_b), (H2, quad_b)]
    assert len(cases) == 20
    return cases


def test_criterion_03_integral_identity():
    worst = 0.0
    for form, w in _identity_cases():
        res = sigma1_ball(form, w, 1.0)
        worst = max(worst, res.rel_discrepancy)
    ok = worst <= 1e-6
    report_line("criterion 3 (shooting vs integral identity, 20 weights)", ok,
                f"worst relative discrepancy {worst:.2e} (tol 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# 4. monotone-profile property suite over randomized admissible weights
# ---------------------------------------------------------------------------

def _random_admissible_weights(count: int, seed: int = 20250810):
    rng = np.random.default_rng(seed)
    weights = []
    n_quad = int(count * 0.6)
    for _ in range(n_quad):
        weights.append(RadialWeight.quadratic(rng.uniform(0.0, 2.0),
                                              rng.uniform(0.0, 1.0)))
    ts = np.linspace(0.0, 1.25, 641)
    for _ in range(count - n_quad):
        # non-decreasing piecewise-linear slope g >= 0 makes -int g concave
        g = np.full_like(ts, rng.uniform(0.0, 1.0))
        for _k in range(3):
            knot = rng.uniform(0.1, 1.0)
            g = g + rng.uniform(0.0, 2.0) * np.maximum(ts - knot, 0.0)
        phi = -cumulative_trapezoid(g, ts, initial=0.0)
        weights.append(RadialWeight.tabulated(ts, phi))
    return weights


def test_criterion_04_monotone_profile_suite():
    weights = _random_admissible_weights(100)
    worst_g, worst_h = 0.0, 0.0
    checked = 0
    for w in weights:
        validate_property_i(w, 1.0)
        for form in (E2, E3, H2, H3):
            sol = solve_mode(form, w, 1, 1.0)
            rep = check_gh_monotonicity(compute_gh(sol), tol=1e-8)
            worst_g = max(worst_g, -rep.min_g_slope / rep.g_scale)
            worst_h = max(worst_h, rep.max_h_slope / rep.h_scale)
            checked += 1
            assert rep.passed, (w.label, form.label, rep)
    ok = checked == 400
    report_line("criterion 4 (G/H monotonicity, 100 random weights x 4 spaces)",
                ok, f"worst -G'/scale {worst_g:.2e}, worst H'/scale "
                    f"{worst_h:.2e} (tol 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# 5. FEM disk spectrum
# ---------------------------------------------------------------------------

def test_criterion_05_fem_disk_spectrum():
    exact = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
    study = convergence_study(Domain2D.disk(1.0), E2, RadialWeight.constant(),
                              5, rings=8, sectors=64, levels=3)
    extrap = np.array(study.extrapolated)
    rel = np.abs(extrap - exact) / exact
    level_errors = [np.abs(np.array(v[1:6]) - exact).max()
                    for v in study.values]
    ratios = [level_errors[i] / level_errors[i + 1] for i in range(2)]
    ok = rel.max() <= 0.01 and min(ratios) >= 3.0
    report_line("criterion 5 (disk spectrum 1,1,2,2,3 from (8,64) x3 levels)",
                ok, f"worst extrapolated error {rel.max():.2e} (tol 1e-2), "
                    f"level error ratios {[f'{r:.2f}' for r in ratios]} (>= 3)")
    assert ok


# ---------------------------------------------------------------------------
# 6. FEM vs radial cross-check
# ---------------------------------------------------------------------------

def test_criterion_06_fem_radial_cross_check():
    weights = [RadialWeight.linear(0.5), RadialWeight.quadratic(1.0, 0.25)]
    cases = [(E2, Domain2D.disk(1.0), 1.0),
             (H2, Domain2D.disk(math.tanh(0.5)), 1.0)]
    worst = 0.0
    for form, dom, R in cases:
        for w in weights:
            study = convergence_study(dom, form, w, 1, rings=8, sectors=64,
                                      levels=3)
            target = sigma1_ball(form, w, R).value
            worst = max(worst, abs(study.extrapolated[0] / target - 1.0))
    ok = worst <= 0.01
    report_line("criterion 6 (FEM sigma1 vs radial, 2 weights x 2 curvatures)",
                ok, f"worst relative deviation {worst:.2e} (tol 1e-2)")
    assert ok


# ---------------------------------------------------------------------------
# 7 & 11. Euclidean n=2 sweep (shared computation)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _euclidean_sweep_runs():
    """(domain, weight, report) for the 20 x 3 Euclidean sweep."""
    runs = []
    for dom in standard_sweep_euclidean():
        hier = MeshHierarchy(dom, E2, rings=8, sectors=64, levels=3)
        for w in standard_weights_euclidean():
            runs.append((dom, w, brock_report(hier, E2, w)))
    return runs


# angles at which the admissibility test samples a boundary radius
_THETA = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)


def _trial_functions_admissible(dom: Domain2D, w: RadialWeight) -> bool:
    """Whether the Brock trial functions x_i g(|x|)/|x| are admissible.

    They must be orthogonal to constants in the weighted boundary measure.
    A constant weight makes the problem translation-invariant, so the
    trial functions can be centred anywhere (Brock's classical case).  For
    a non-constant weight they are centred at the weight origin, and a
    domain centred there with a rotational symmetry of order m >= 2 makes
    int_dOmega (x/|x|) f(|x|) e^{-phi} ds vanish for every f.  The
    symmetry is read from the geometry: a rotation by 2 pi / m, m = 2..8,
    that maps the boundary radius onto itself to 1e-13.
    """
    if w.kind == "constant":
        return True
    if dom.center != (0.0, 0.0):
        return False
    rho = dom.boundary_radius(_THETA)
    return any(np.max(np.abs(dom.boundary_radius(_THETA + 2.0 * math.pi / m)
                              - rho)) <= 1e-13 for m in range(2, 9))


def _oracle_weight(w: RadialWeight):
    """phi, phi' and the closed-form slope of ``w``, written out for the oracle."""
    a, b = 0.0 - float(w.grid_dphi[0]), 0.0 - 0.5 * float(w.grid_d2phi[0])
    if w.kind == "linear":
        return (lambda t: -a * t), (lambda t: -a + 0.0 * t), a
    if w.kind == "quadratic":
        return (lambda t: -a * t - b * t * t), (lambda t: -a - 2.0 * b * t), None
    raise ValueError(f"no oracle weight for kind {w.kind!r}")


def test_criterion_07_euclidean_sweep():
    """Brock comparison on the sweep, asserted where its proof applies.

    (a) Every run in the regime of ``_trial_functions_admissible`` (58 of
    the 60) satisfies gap >= -slack.  (b) The centred ball is an equality
    case.  (c) The remaining runs are exactly the off-centre disk under the
    two non-constant weights.  There the trial functions are not
    orthogonal to constants and the comparison genuinely fails: moving the
    disk off the weight origin inflates its weighted volume while sigma_1
    barely moves, so the matched ball's eigenvalue drops below the
    domain's.  That finding is asserted, not tolerated: each such run must
    be reported as a violation beyond its slack, and must agree with the
    independent polynomial Ritz/Schur oracle in ``tests/oracles.py``
    (domain sigma_1 to 1e-5, ball sigma_1 to 2e-4 relative, oracle gap
    below -slack).  A change that slacks the violation away, or drops the
    off-centre disk from the sweep, fails this test.
    """
    runs = _euclidean_sweep_runs()
    assert len(runs) == 60
    in_regime = [(d, w, r) for d, w, r in runs
                 if _trial_functions_admissible(d, w)]
    flagged = [(d, w, r) for d, w, r in runs
               if not _trial_functions_admissible(d, w)]

    # (a) the inequality holds wherever the trial functions are admissible
    worst_gap = min(r.gap + r.slack for _, _, r in in_regime)
    in_regime_ok = len(in_regime) == 58 and worst_gap >= 0.0

    # (b) centred-ball equality
    ball_runs = [r for d, _, r in runs if d.centered_ball]
    equality_ok = len(ball_runs) == 3 and all(
        abs(r.gap) <= r.equality_tol and r.near_equality for r in ball_runs)

    # (c) the off-centre finding, pinned against the in-repo oracle: a disk
    # (a constant boundary radius) centred off the weight origin
    offset = flagged[0][0] if flagged else None
    flagged_ok = (offset is not None and offset.center != (0.0, 0.0)
                  and np.ptp(offset.boundary_radius(_THETA)) == 0.0
                  and all(d is offset for d, _, _ in flagged)
                  and sorted(w.kind for _, w, _ in flagged)
                  == ["linear", "quadratic"])
    radius = float(offset.boundary_radius(0.0)[0]) if flagged_ok else math.nan
    one = oracles.offset_disk_sigma1(lambda t: 0.0 * t, offset.center,
                                     radius) if flagged_ok else math.nan
    oracle_const_ok = abs(one - 1.0) <= 1e-10
    pinned = []
    for d, w, r in flagged if flagged_ok else ():
        phi, dphi, slope = _oracle_weight(w)
        ref = oracles.offset_disk_comparison(phi, dphi, d.center, radius,
                                             linear_a=slope)
        dom_dev = abs(r.sigma_omega[0] / ref["sigma1_domain"] - 1.0)
        ball_dev = abs(r.sigma1_ball / ref["sigma1_ball"] - 1.0)
        ok = (r.status == "violation" and r.gap + r.slack < 0.0
              and dom_dev <= 1e-5 and ball_dev <= 2e-4
              and ref["gap"] < -r.slack)
        pinned.append(ok)
        report_line(f"criterion 7 finding {r.domain} x {r.weight}", ok,
                    f"status {r.status}, gap {r.gap:+.5f} (oracle "
                    f"{ref['gap']:+.5f}), slack {r.slack:.1e}; sigma1 "
                    f"{r.sigma_omega[0]:.7f} vs oracle "
                    f"{ref['sigma1_domain']:.7f} (dev {dom_dev:.1e}, tol "
                    f"1e-5); ball {r.sigma1_ball:.6f} vs oracle "
                    f"{ref['sigma1_ball']:.6f} (dev {ball_dev:.1e}, tol 2e-4)")
    finding_ok = flagged_ok and oracle_const_ok and len(pinned) == 2 \
        and all(pinned)

    ok = in_regime_ok and equality_ok and finding_ok
    report_line("criterion 7 (Euclidean sweep, 20 domains x 3 weights)", ok,
                f"{len(in_regime)} in-regime runs (58), min(gap+slack) "
                f"{worst_gap:.2e} (>= 0); centred-ball equality "
                f"{'ok' if equality_ok else 'FAILED'}; {len(flagged)} "
                f"off-centre violations pinned to the oracle "
                f"{'ok' if finding_ok else 'FAILED'} (oracle sigma1 on the "
                f"off-centre disk with constant weight {one:.12f})")
    assert ok


def test_criterion_11_question_a_data():
    reports = [r for _, _, r in _euclidean_sweep_runs()]
    assert all(r.question_a is not None for r in reports)
    classical = [r for r in reports if r.weight == "const(0)"]
    assert len(classical) == 20
    worst = min(r.question_a["gap_n"] + r.question_a["slack_n"]
                for r in classical)
    classical_ok = worst >= 0.0
    weighted = [r for r in reports if r.weight != "const(0)"]
    candidates = [r for r in weighted
                  if r.question_a["status"] == "counterexample-candidate"]
    ok = classical_ok
    report_line("criterion 11 (open-question data: sum of n reciprocals)", ok,
                f"classical min(gap_n+slack) {worst:.2e} (asserted >= 0); "
                f"{len(candidates)} counterexample-candidates among "
                f"{len(weighted)} weighted runs (report-only)")
    assert ok


# ---------------------------------------------------------------------------
# 8. hyperbolic n=2 sweep
# ---------------------------------------------------------------------------

def test_criterion_08_hyperbolic_sweep():
    reports = []
    for dom in standard_sweep_hyperbolic():
        hier = MeshHierarchy(dom, H2, rings=8, sectors=64, levels=3)
        for w in standard_weights_hyperbolic():
            reports.append(brock_report(hier, H2, w))
    assert len(reports) == 20
    worst_gap = min(r.gap + r.slack for r in reports)
    violations = [r for r in reports if not r.passed]
    ball_runs = [r for r in reports if r.near_equality]
    # a centred disk's sigma_1 is the repeated mode-1 pair: both copies found
    pair_split = max(abs(r.sigma_omega[1] / r.sigma_omega[0] - 1.0)
                     for r in ball_runs)
    ok = not violations and len(ball_runs) >= 2 and pair_split <= 1e-10
    report_line("criterion 8 (hyperbolic sweep, 10 domains x 2 weights)", ok,
                f"min(gap+slack) {worst_gap:.2e} (>= 0), "
                f"{len(violations)} violations, "
                f"{len(ball_runs)} near-equality ball runs, "
                f"sigma_2/sigma_1 - 1 on them {pair_split:.1e} (tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 9. axisymmetric n=3 sweep
# ---------------------------------------------------------------------------

def test_criterion_09_axisym_sweep():
    weights = [RadialWeight.constant(), RadialWeight.linear(0.5)]
    worst_gap = math.inf
    violations = 0
    ball_sigma_dev = None
    for ratio in (1.0, 1.25, 1.5):
        a = ratio ** (1.0 / 3.0)
        md = MeridianDomain.spheroid(a, a / ratio)
        hier = MeshHierarchy(md, E3, levels=3)
        for w in weights:
            rep = brock_report(hier, E3, w)
            worst_gap = min(worst_gap, rep.gap + rep.slack)
            if not rep.passed:
                violations += 1
            if ratio == 1.0 and w.kind == "constant":
                ball_sigma_dev = max(abs(s - 1.0) for s in rep.sigma_omega)
    ok = violations == 0 and ball_sigma_dev is not None \
        and ball_sigma_dev <= 0.015
    report_line("criterion 9 (spheroids, 1/s1 + 1/s2 >= 2/s1(ball))", ok,
                f"min(gap+slack) {worst_gap:.2e} (>= 0), {violations} "
                f"violations; unit-ball sigma deviation {ball_sigma_dev:.2e} "
                f"(tol 1.5e-2)")
    assert ok


# ---------------------------------------------------------------------------
# 10. proof-chain audit
# ---------------------------------------------------------------------------

def test_criterion_10_proof_chain():
    weights = [RadialWeight.constant(), RadialWeight.linear(0.5)]
    worst_margin = math.inf
    ball_worst = 0.0
    failures = 0
    for dom in standard_chain_domains():
        hier = MeshHierarchy(dom, E2, rings=8, sectors=64, levels=3)
        for w in weights:
            rep = proof_chain_check(hier, E2, w)
            margins = (rep.margin_divergence, rep.margin_variational,
                       rep.margin_ball_G, rep.margin_ball_H)
            worst_margin = min(worst_margin,
                               rep.margin_divergence + rep.link_slack,
                               rep.margin_variational + rep.variational_slack,
                               rep.margin_ball_G + rep.link_slack,
                               rep.margin_ball_H + rep.link_slack)
            if not rep.passed:
                failures += 1
            if dom.centered_ball:
                ball_worst = max(ball_worst, max(abs(m) for m in margins))
            assert rep.implication_consistent
    ok = failures == 0 and ball_worst <= 1e-3
    report_line("criterion 10 (proof-chain links, 6 domains x 2 weights)", ok,
                f"min(margin+slack) {worst_margin:.2e} (>= 0), "
                f"{failures} failed links; ball margins max {ball_worst:.2e} "
                f"(tol 1e-3)")
    assert ok
