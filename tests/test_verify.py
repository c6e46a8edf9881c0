import math

import numpy as np
import pytest

import oracles

from steklovw import verify
from steklovw.geometry import (AdmissibilityError, Curvature, DomainError,
                               RadialWeight, SpaceForm)
from steklovw.mesh2d import (Domain2D, MeridianDomain,
                             integrate_boundary_weighted, integrate_weighted)
from steklovw.radial import (ball_spectrum, g_values, h_values, sigma1_ball,
                             solve_mode)
from steklovw.verify import (MeshHierarchy, SymmetryError, brock_report,
                             convergence_study,
                             domain_is_reflection_symmetric, match_radius,
                             proof_chain_check, rearrangement_check,
                             richardson,
                             standard_chain_domains, standard_sweep_euclidean,
                             standard_sweep_hyperbolic)

E2 = SpaceForm(Curvature.EUCLIDEAN, 2)
E3 = SpaceForm(Curvature.EUCLIDEAN, 3)
H2 = SpaceForm(Curvature.HYPERBOLIC, 2)
H3 = SpaceForm(Curvature.HYPERBOLIC, 3)
W0 = RadialWeight.constant()
# criterion-4-style concave table: 641 nodes on [0, 1.25]
TABLE = RadialWeight.tabulated(*oracles.concave_table())

ELLIPSE = Domain2D.ellipse(math.sqrt(2.0), 1.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# radius matching and extrapolation
# ---------------------------------------------------------------------------

def test_match_radius_examples():
    assert match_radius(E2, W0, math.pi) == pytest.approx(1.0, rel=1e-9)
    assert match_radius(E2, RadialWeight.linear(1.0), 2 * math.pi) == \
        pytest.approx(1.0, rel=1e-9)
    assert match_radius(H2, W0, 2 * math.pi * (math.cosh(1) - 1)) == \
        pytest.approx(1.0, rel=1e-9)


def test_match_radius_roundtrip():
    from steklovw.geometry import ball_weighted_volume
    w = RadialWeight.quadratic(0.5, 0.2)
    for R in (0.3, 1.7):
        vol = ball_weighted_volume(H2, w, R)
        assert match_radius(H2, w, vol) == pytest.approx(R, rel=1e-9)


@pytest.mark.parametrize("form", [E2, E3, H2, H3], ids=lambda f: f.label)
def test_match_radius_roundtrip_tabulated(form):
    from steklovw.geometry import ball_weighted_volume
    for R in (0.05, 0.61, 1.2, 1.25):   # up to the end of the table
        vol = ball_weighted_volume(form, TABLE, R)
        assert match_radius(form, TABLE, vol) == pytest.approx(R, rel=1e-9)


def test_match_radius_beyond_table_raises_domain_error():
    """A target the table cannot reach is an error naming the grid, never a
    radius extrapolated past the last sample."""
    with pytest.raises(DomainError, match=r"grid \[0\.0, 1\.25\]"):
        match_radius(E2, TABLE, 100.0)


def test_tabulated_weight_report():
    rep = brock_report(Domain2D.disk(1.0), E2, TABLE)
    assert rep.near_equality and rep.passed
    assert rep.R == pytest.approx(1.0, rel=1e-4)   # inscribed-mesh volume
    from steklovw.geometry import ball_weighted_volume
    assert ball_weighted_volume(E2, TABLE, rep.R) == pytest.approx(rep.volume,
                                                                   rel=1e-9)


def test_richardson_second_order_sequence():
    exact, c = 1.0, 0.3
    vals = [exact + c * (0.5 ** (2 * k)) for k in range(3)]
    ex = richardson(vals)
    assert ex.value == pytest.approx(exact, abs=1e-12)
    assert ex.order == pytest.approx(2.0, abs=1e-10)
    assert ex.monotone


def test_richardson_flags_non_monotone():
    ex = richardson([1.0, 1.1, 0.9])
    assert not ex.monotone


# ---------------------------------------------------------------------------
# Brock-type reports
# ---------------------------------------------------------------------------

def test_disk_report_is_equality_case():
    rep = brock_report(Domain2D.disk(1.0), E2, W0, levels=3)
    assert rep.passed
    assert rep.near_equality
    assert abs(rep.gap) <= rep.equality_tol
    assert rep.lhs == pytest.approx(1.0, abs=2e-3)
    assert rep.R == pytest.approx(1.0, abs=1e-3)


def test_ellipse_report_strict_inequality():
    rep = brock_report(ELLIPSE, E2, W0, levels=3)
    assert rep.passed
    assert rep.gap > 0.1
    assert not rep.near_equality
    # classical corollary: sigma1(Omega) <= sigma1(matched ball)
    assert rep.sigma_omega[0] <= rep.sigma1_ball + 1e-6


def test_weighted_ellipse_report():
    rep = brock_report(ELLIPSE, E2, RadialWeight.linear(0.5), levels=3)
    assert rep.passed
    assert rep.gap > 0.0
    assert rep.identity_discrepancy < 1e-8


def test_report_matches_ball_volume():
    from steklovw.geometry import ball_weighted_volume
    w = RadialWeight.linear(0.5)
    rep = brock_report(ELLIPSE, E2, w, levels=2)
    assert rep.R > 0
    assert ball_weighted_volume(E2, w, rep.R) == pytest.approx(rep.volume,
                                                               rel=1e-9)


def test_question_a_block_disk():
    rep = brock_report(Domain2D.disk(1.0), E2, W0, question_a=True, levels=3)
    qa = rep.question_a
    assert qa is not None
    # 1/sigma1 + 1/sigma2 = 2 at the disk, equality in the open variant
    assert qa["lhs_n"] == pytest.approx(2.0, abs=5e-3)
    assert abs(qa["gap_n"]) <= 5e-3
    assert qa["status"] == "ok"


def test_question_a_classical_regime_ellipses():
    for ratio in (1.3, 1.8):
        dom = Domain2D.ellipse(math.sqrt(ratio), 1.0 / math.sqrt(ratio))
        rep = brock_report(dom, E2, W0, question_a=True, levels=3)
        assert rep.question_a["gap_n"] >= -rep.question_a["slack_n"]
        assert rep.question_a["status"] == "ok"


def test_hyperbolic_disk_equality_case():
    dom = Domain2D.disk(math.tanh(0.5))
    rep = brock_report(dom, H2, W0, levels=3)
    assert rep.passed
    assert rep.near_equality
    assert rep.R == pytest.approx(1.0, abs=2e-3)
    assert rep.sigma1_ball == pytest.approx(1.0 / math.sinh(1.0), abs=2e-3)


def test_axisym_ball_equality_case():
    md = MeridianDomain.ball(1.0)
    w = RadialWeight.linear(0.5)
    rep = brock_report(md, E3, w, rings=6, sectors=24, levels=3)
    assert rep.passed
    assert rep.near_equality
    assert rep.lhs == pytest.approx(rep.rhs, abs=rep.equality_tol)
    # a solid is meshed at the resolution the report is given
    ball = MeridianDomain.ball(1.0)
    coarse = brock_report(ball, E3, w, rings=4, sectors=16, levels=2)
    assert coarse.h_finest != brock_report(ball, E3, w, levels=2).h_finest


def test_offset_disk_readme_example():
    """The README's phi = -t^2/2 example, pinned to the in-repo oracle."""
    center = (0.3, 0.0)
    rep = brock_report(Domain2D.disk(1.0, center=center), E2,
                       RadialWeight.quadratic(0.0, 0.5), levels=3)
    ref = oracles.offset_disk_comparison(lambda t: -0.5 * t * t,
                                         lambda t: -t, center)
    assert ref["sigma1_domain"] == pytest.approx(0.780065, abs=5e-7)
    assert ref["sigma1_ball"] == pytest.approx(0.75347, abs=5e-6)
    assert rep.sigma_omega[0] == pytest.approx(ref["sigma1_domain"], rel=1e-5)
    assert rep.sigma1_ball == pytest.approx(0.75352, abs=5e-6)
    assert rep.sigma1_ball == pytest.approx(ref["sigma1_ball"], rel=2e-4)
    assert rep.status == "violation"
    assert rep.gap + rep.slack < 0.0


def test_inadmissible_weight_raises_without_waiver():
    with pytest.raises(AdmissibilityError, match="Property I"):
        brock_report(Domain2D.disk(1.0), E2, RadialWeight.linear(-0.5),
                     levels=2)


COARSE = {"rings": 2, "sectors": 16, "levels": 3}
DISK = Domain2D.disk(1.0)
ENTRY_POINTS = {
    "solve_mode": lambda w: solve_mode(E2, w, 1, 1.0),
    "sigma1_ball": lambda w: sigma1_ball(E2, w, 1.0),
    "ball_spectrum": lambda w: ball_spectrum(E2, w, 1.0, 3),
    "brock_report": lambda w: brock_report(DISK, E2, w, **COARSE),
    "convergence_study": lambda w: convergence_study(DISK, E2, w, 2, **COARSE),
    "rearrangement_check": lambda w: rearrangement_check(
        DISK, E2, w, lambda t: t, "non_decreasing", **COARSE),
    "proof_chain_check": lambda w: proof_chain_check(DISK, E2, w, **COARSE),
}


@pytest.mark.parametrize("w", [RadialWeight.linear(-1.0),
                               RadialWeight.quadratic(0.5, -0.25)],
                         ids=["increasing", "convex"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_entry_point_refuses_inadmissible_weight(entry, w):
    with pytest.raises(AdmissibilityError, match="Property I"):
        ENTRY_POINTS[entry](w)


@pytest.mark.parametrize("w, phi, phi_prime, linear_a", [
    (RadialWeight.linear(0.5), lambda t: -0.5 * t,
     lambda t: -0.5 + 0.0 * t, 0.5),
    (RadialWeight.quadratic(1.0, 0.25), lambda t: -t - 0.25 * t * t,
     lambda t: -1.0 - 0.5 * t, None)], ids=["-t/2", "-t-t^2/4"])
def test_offset_disk_gap_is_second_order(w, phi, phi_prime, linear_a):
    """The unit disk offset by c fails the ball comparison by a gap close to
    a fixed multiple of c^2: the harness flags it and agrees with the polar
    oracle, whose gap / c^2 holds within 2% over c = 0.1 .. 0.3."""
    ratios = []
    for c in (0.1, 0.2, 0.3):
        rep = brock_report(Domain2D.disk(1.0, center=(c, 0.0)), E2, w)
        ref = oracles.offset_disk_comparison(phi, phi_prime, (c, 0.0),
                                             linear_a=linear_a)
        assert rep.status == "violation"
        assert rep.gap + rep.slack < 0.0
        assert abs(rep.gap - ref["gap"]) <= 2e-4, (c, rep.gap, ref["gap"])
        ratios.append(ref["gap"] / c ** 2)
    assert all(abs(r / ratios[0] - 1.0) <= 0.02 for r in ratios), ratios


def test_verify_rejects_spherical_cap():
    S2 = SpaceForm(Curvature.SPHERICAL_CAP, 2)
    with pytest.raises(DomainError):
        brock_report(Domain2D.disk(1.0), S2, W0, levels=2)


@pytest.mark.parametrize("levels", [0, -3])
def test_fewer_than_one_mesh_level_raises_domain_error(levels):
    """No report runs one level and calls it ``levels``: a typed error."""
    with pytest.raises(DomainError, match="mesh level"):
        brock_report(Domain2D.disk(1.0), E2, RadialWeight.linear(0.5),
                     levels=levels)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_study_disk():
    # the unit disk and the unit ball in E3: sigma_1 = 1 with multiplicity
    # n (2 and 3), and the next eigenvalue is 2
    for dom, form, k in ((Domain2D.disk(1.0), E2, 5),
                         (MeridianDomain.ball(1.0), E3, 4)):
        study = convergence_study(dom, form, W0, k, levels=3)
        n = form.dim
        assert all(0.999 <= s <= 1.001 for s in study.extrapolated[:n])
        assert study.extrapolated[n] == pytest.approx(2.0, abs=2e-3)
        assert 1.7 <= study.orders[0] <= 2.3
        assert all(study.monotone)


@pytest.mark.parametrize("k", [0, -1])
def test_convergence_study_needs_an_eigenvalue(k):
    with pytest.raises(DomainError, match="at least one eigenvalue"):
        convergence_study(Domain2D.disk(1.0), E2, W0, k, rings=4, sectors=16)


def test_every_report_takes_the_matched_radius(monkeypatch):
    """brock_report, proof_chain_check and rearrangement_check all match the
    volume through MeshHierarchy.matched_radius: shifting its volume shifts
    every reported R."""
    matched = MeshHierarchy.matched_radius

    def shifted(self, w):
        volume = 1.001 * matched(self, w)[0]
        return volume, match_radius(self.form, w, volume)

    monkeypatch.setattr(MeshHierarchy, "matched_radius", shifted)
    w = RadialWeight.linear(0.5)
    hier = MeshHierarchy(ELLIPSE, E2, rings=4, sectors=16, levels=2)
    want = match_radius(E2, w, 1.001 * integrate_weighted(hier.meshes[-1], E2, w))
    reports = [brock_report(hier, E2, w), proof_chain_check(hier, E2, w),
               rearrangement_check(hier, E2, w, lambda t: t, "non_decreasing")]
    assert [rep.R for rep in reports] == [want] * 3


def test_mesh_settings_go_to_the_hierarchy_once():
    """A report forwards its mesh keywords to MeshHierarchy; beside a
    prebuilt hierarchy they are an error, not silently dropped."""
    w = RadialWeight.linear(0.5)
    hier = MeshHierarchy(ELLIPSE, E2, rings=4, sectors=16, levels=2)
    with pytest.raises(DomainError, match="prebuilt"):
        brock_report(hier, E2, w, levels=4)
    assert brock_report(ELLIPSE, E2, w, levels=4).levels == 4


def test_convergence_and_rearrangement_take_a_hierarchy():
    w = RadialWeight.linear(0.5)
    mesh = {"rings": 4, "sectors": 16, "levels": 3}
    hier = MeshHierarchy(ELLIPSE, E2, **mesh)
    assert repr(convergence_study(hier, E2, w, 2)) == \
        repr(convergence_study(ELLIPSE, E2, w, 2, **mesh))
    assert repr(rearrangement_check(hier, E2, w, np.exp, "non_decreasing")) == \
        repr(rearrangement_check(ELLIPSE, E2, w, np.exp, "non_decreasing", **mesh))
    with pytest.raises(DomainError, match="built for"):
        convergence_study(hier, H2, w, 2)
    with pytest.raises(DomainError, match="built for"):
        rearrangement_check(hier, H2, w, np.exp, "non_decreasing")


def test_levels_are_built_once_on_first_use(monkeypatch):
    """A hierarchy builds a level's P1 data on its first spectrum and then
    serves every weight from it; the levels it never solves stay unbuilt,
    as in the CLI ``spectrum`` command, which solves the finest alone."""
    built, level = [], verify.P1Level
    monkeypatch.setattr(verify, "P1Level",
                        lambda mesh, form: built.append(mesh) or level(mesh, form))
    hier = MeshHierarchy(ELLIPSE, E2, rings=4, sectors=16, levels=3)
    for w in (W0, RadialWeight.linear(0.5)):
        hier.spectrum(-1, w, 2)
    assert built == [hier.meshes[-1]]


@pytest.mark.parametrize("dom, form", [
    (Domain2D.disk(1.0, center=(0.3, 0.0)), E2),
    (MeridianDomain.spheroid(1.2, 0.8), E3)], ids=["offset-disk-E2", "spheroid"])
def test_level_reuse_cannot_leak_between_weights(dom, form):
    """The weights of one hierarchy share its levels' P1 data: the
    constant, linear and quadratic weights in that order give per-level
    eigenvalues bit-identical to a fresh hierarchy run in reverse order."""
    weights = [W0, RadialWeight.linear(0.5), RadialWeight.quadratic(1.0, 0.25)]
    hier = MeshHierarchy(dom, form)
    forward = [[s.eigenvalues for s in hier.spectra(w, 4)] for w in weights]
    fresh = MeshHierarchy(dom, form)
    backward = [[s.eigenvalues for s in fresh.spectra(w, 4)]
                for w in weights[::-1]][::-1]
    for got, want in zip(forward, backward):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dom, form", [(Domain2D.disk(1.0), E3),
                                       (MeridianDomain.ball(1.0), E2),
                                       (MeridianDomain.ball(0.5), H3)],
                         ids=["disk-E3", "ball-E2", "ball-H3"])
def test_hierarchy_needs_the_model_of_its_shape(dom, form):
    """A planar shape meshes under E2 or H2 and a meridian under E3; any
    other pairing is a typed error before a mesh is built."""
    with pytest.raises(DomainError, match="model"):
        MeshHierarchy(dom, form, rings=2, sectors=8, levels=1)


def test_convergence_study_hyperbolic_disk():
    dom = Domain2D.disk(math.tanh(0.5))
    study = convergence_study(dom, H2, W0, 1, levels=3)
    target = 1.0 / math.sinh(1.0)
    assert abs(study.extrapolated[0] / target - 1.0) <= 5e-3


def test_fem_matches_radial_for_random_weights():
    """Whole-pipeline consistency on balls across random admissible weights."""
    rng = np.random.default_rng(11)
    from steklovw.radial import sigma1_ball
    for _ in range(4):
        w = RadialWeight.quadratic(rng.uniform(0, 1.5), rng.uniform(0, 0.75))
        study = convergence_study(Domain2D.disk(1.0), E2, w, 1, levels=3)
        target = sigma1_ball(E2, w, 1.0).value
        assert abs(study.extrapolated[0] / target - 1.0) < 1e-3, w.label


# ---------------------------------------------------------------------------
# rearrangement comparison
# ---------------------------------------------------------------------------

def test_rearrangement_equality_at_ball():
    for dom, form in ((Domain2D.disk(1.0), E2),
                      (MeridianDomain.ball(1.0), E3)):
        rep = rearrangement_check(dom, form, W0, lambda t: t,
                                  "non_decreasing", levels=3)
        assert rep.passed
        assert abs(rep.margin) <= rep.slack


def test_rearrangement_directions_at_ellipse():
    inc = rearrangement_check(ELLIPSE, E2, W0, lambda t: t,
                              "non_decreasing", levels=3)
    assert inc.passed and inc.margin > 0
    dec = rearrangement_check(ELLIPSE, E2, W0, lambda t: np.exp(-t),
                              "non_increasing", levels=3)
    assert dec.passed and dec.margin > 0


def test_rearrangement_weighted_hyperbolic():
    dom = Domain2D.ellipse(0.5, 0.35)
    w = RadialWeight.linear(0.5)
    inc = rearrangement_check(dom, H2, w, lambda t: t ** 2,
                              "non_decreasing", levels=3)
    assert inc.passed and inc.margin > 0


@pytest.mark.parametrize("entry", [
    lambda dom, w: brock_report(dom, H2, w),
    lambda dom, w: convergence_study(dom, H2, w, 2),
    lambda dom, w: rearrangement_check(dom, H2, w, lambda t: t,
                                       "non_decreasing"),
    lambda dom, w: proof_chain_check(dom, H2, w)],
    ids=["brock", "convergence", "rearrangement", "chain"])
def test_every_report_keeps_the_hyperbolic_margin(entry):
    """A disk that reaches past |x| = 1 - margin is refused by every report
    when its hierarchy is built; the rearrangement check, which solves no
    pencil, once returned a matched radius beyond the disk's own."""
    with pytest.raises(DomainError, match="must stay below"):
        entry(Domain2D.disk(0.99), RadialWeight.linear(0.5))


# ---------------------------------------------------------------------------
# proof-chain audit
# ---------------------------------------------------------------------------

def test_symmetry_detector():
    assert domain_is_reflection_symmetric(Domain2D.disk(1.0))
    assert domain_is_reflection_symmetric(Domain2D.perturbed_disk(1, 0.1, 2))
    assert not domain_is_reflection_symmetric(Domain2D.perturbed_disk(1, 0.1, 3))
    assert not domain_is_reflection_symmetric(Domain2D.disk(1.0, center=(0.1, 0)))
    square = Domain2D.polygon([(1, -1), (1, 1), (-1, 1), (-1, -1)])
    assert domain_is_reflection_symmetric(square)


def test_chain_rejects_asymmetric_domain():
    with pytest.raises(SymmetryError):
        proof_chain_check(Domain2D.perturbed_disk(1.0, 0.1, 3), E2, W0, levels=2)


def test_chain_disk_saturates():
    rep = proof_chain_check(Domain2D.disk(1.0), E2, W0, levels=3)
    assert rep.passed
    for margin in (rep.margin_divergence, rep.margin_variational,
                   rep.margin_ball_G, rep.margin_ball_H):
        assert abs(margin) <= 1e-3
    assert rep.implication_consistent
    assert abs(rep.gap) < 1e-3


def test_chain_ellipse_positive_margins():
    rep = proof_chain_check(ELLIPSE, E2, W0, levels=3)
    assert rep.passed
    assert rep.margin_divergence > 0.01
    assert rep.margin_variational > 0.01
    assert rep.margin_ball_G > 0.01
    assert rep.margin_ball_H >= -rep.link_slack
    assert rep.implication_consistent
    # capped-profile bounds that remain valid stay nonnegative
    assert rep.capped_margin_divergence >= -rep.link_slack
    assert rep.capped_margin_variational >= -rep.variational_slack
    assert rep.capped_margin_ball_H >= -rep.link_slack


def test_chain_capped_ball_comparison_fails_first_order():
    """The frozen-outside profile undershoots the ball integral by O(eps)."""
    rep = proof_chain_check(Domain2D.perturbed_disk(1.0, 0.1, 2), E2, W0,
                            levels=3)
    assert rep.passed                      # the asserted links still hold
    assert rep.capped_ball_G_comparison < -0.01


def test_chain_weighted_perturbed_disk():
    rep = proof_chain_check(Domain2D.perturbed_disk(1.0, 0.1, 2), E2,
                            RadialWeight.linear(0.5), levels=3)
    assert rep.passed
    assert rep.implication_consistent


def test_chain_hyperbolic():
    rep = proof_chain_check(Domain2D.ellipse(0.5, 0.35), H2,
                            RadialWeight.linear(0.5), levels=3)
    assert rep.passed


@pytest.mark.parametrize("dom, form", [(ELLIPSE, E2),
                                       (Domain2D.ellipse(0.5, 0.35), H2)])
def test_chain_integrals_match_one_call_per_integrand(dom, form):
    """The audit's stacked integrals (one T, T' evaluation per point set)
    equal, bit for bit, one quadrature call per integrand with the capped
    profile evaluated at min(t, R)."""
    w = RadialWeight.linear(0.5)
    hier = MeshHierarchy(dom, form, levels=2)
    rep = proof_chain_check(hier, form, w)
    mesh, R = hier.meshes[-1], rep.R
    t_end = max(R, hier.t_max) * (1.0 + 1e-9)
    sol = solve_mode(form, w, 1, R, t_end=t_end)

    def along(values, cap):
        def fn(t):
            T, dT = sol(np.minimum(t, cap))
            return values(form, w, t, T, np.where(t <= cap, dT, 0.0))
        return fn

    def squared(cap):
        return lambda t: sol(np.minimum(t, cap))[0] ** 2

    for cap, A, B, C in ((math.inf, rep.boundary_T2, rep.omega_G, rep.omega_H),
                         (R, rep.capped_boundary_f2, rep.capped_omega_G,
                          rep.capped_omega_H)):
        assert A == integrate_boundary_weighted(mesh, form, w, squared(cap))
        assert B == integrate_weighted(mesh, form, w, along(g_values, cap))
        assert C == integrate_weighted(mesh, form, w, along(h_values, cap))


# ---------------------------------------------------------------------------
# standard sweep families
# ---------------------------------------------------------------------------

def test_standard_sweeps_well_formed():
    e = standard_sweep_euclidean()
    assert len(e) == 20
    assert sum(1 for d in e if d.is_centered_ball()) >= 1
    h = standard_sweep_hyperbolic()
    assert len(h) == 10
    for d in h:
        pts = d.boundary_radius(np.linspace(0, 2 * math.pi, 64))
        center = np.asarray(d.center_offset)
        assert np.max(pts) + np.linalg.norm(center) <= 0.95
    c = standard_chain_domains()
    assert len(c) == 6
    assert all(domain_is_reflection_symmetric(d) for d in c)
