"""Isoperimetric inequality harness.

Given a domain, compares the sum of reciprocals of its first n-1 nonzero
weighted Steklov eigenvalues against (n-1)/sigma_1 of the volume-matched
centered ball.  Domain-side eigenvalues come from the FEM solvers with
Richardson extrapolation; all ball-side quantities come from the 1-D
radial solver so the error budget stays on the FEM side.

Also provided: the open sum-of-n-reciprocals variant (data generation
only, the 2-D ``brock_report``'s ``question_a`` block), the trial-function
proof-chain audit, the monotone-rearrangement comparison, and the
mesh-convergence study that calibrates slacks.  Every report takes a
domain plus ``MeshHierarchy`` keywords, or a prebuilt ``MeshHierarchy``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG
from .geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                       ball_boundary_weighted_measure, ball_weighted_volume,
                       unit_sphere_area, validate_property_i)
from .mesh2d import (MERIDIAN, Domain2D, MeridianDomain, integrate_weighted,
                     measure, mesh_levels)
from .radial import (ball_gh_integrals, g_values, h_values, sigma1_ball,
                     solve_mode)
from .spectrum import SteklovSpectrum
from .steklov2d import P1Level, domain_spectrum


class SymmetryError(ValueError):
    """Domain lacks the reflection symmetry required by the chain audit."""


# ---------------------------------------------------------------------------
# volume matching and extrapolation
# ---------------------------------------------------------------------------

_LOG_MAX = math.log(np.finfo(float).max)   # exp of anything above overflows


def match_radius(form: SpaceForm, w: RadialWeight,
                 target_volume: float) -> float:
    """Radius R with |B_R|_phi equal to the target weighted volume, to
    roundoff: Newton's walk down V(R) = |B_R|_phi, increasing and, under
    Property I, convex in E^n and H^n (S^n is refused), from where a
    doubling from min(1, top) first reaches the target or stops at top =
    min(table end, R_up).  R_up, the radius of the Euclidean ball of
    density e^-phi(0), is at least the root under Property I, since
    s_kappa(t) >= t and phi' <= 0; so no radius cap is needed, and of the
    targets only one past the end of a table is refused."""
    if not 0 < target_volume < math.inf:
        raise DomainError("target volume must be positive and finite")
    if form.curvature is Curvature.SPHERICAL_CAP:
        raise DomainError("volume matching needs E^n or H^n, not S^n")
    t_end, n = w.grid_t[-1], form.dim
    log_up = (math.log(n * target_volume) - math.log(unit_sphere_area(n)) + w.phi(0.0)) / n
    R_up = math.exp(min(log_up, _LOG_MAX))
    top = min(t_end, R_up)
    R = min(1.0, top)
    v = ball_weighted_volume(form, w, R)
    while v < target_volume and R < top:
        R = min(2.0 * R, top)
        v = ball_weighted_volume(form, w, R)
    validate_property_i(w, R)
    if v < target_volume and R < R_up:
        raise DomainError(f"target volume beyond the grid [{w.grid_t[0]}, {t_end}]")
    while True:
        step = (v - target_volume) / ball_boundary_weighted_measure(form, w, R)
        if not (step > 0 and R - step < R):
            return float(R)
        R -= step
        v = ball_weighted_volume(form, w, R)


@dataclass
class Extrapolation:
    value: float
    order: float
    error: float
    monotone: bool


def richardson(values) -> Extrapolation:
    """Extrapolated limit, empirical order and error bar from mesh levels."""
    v = [float(x) for x in values]
    if len(v) == 1:
        return Extrapolation(v[0], math.nan, math.nan, True)
    d2 = v[-1] - v[-2]
    if len(v) == 2:
        return Extrapolation(v[-1] + d2 / 3.0, math.nan, abs(d2) / 3.0, True)
    d1 = v[-2] - v[-3]
    if d2 == 0.0:
        return Extrapolation(v[-1], math.nan, 0.0, True)
    if d1 * d2 > 0 and abs(d2) < abs(d1):
        r = d1 / d2
        limit = v[-1] + d2 / (r - 1.0)
        return Extrapolation(limit, math.log2(r), abs(limit - v[-1]), True)
    # non-monotone level sequence: no safe extrapolation
    return Extrapolation(v[-1], math.nan, max(abs(d1), abs(d2)), False)


# ---------------------------------------------------------------------------
# the level driver for both domain kinds
# ---------------------------------------------------------------------------

class MeshHierarchy:
    """Refinement levels of a planar domain or a solid, coarse to fine.

    The one place that picks the mesh and states its defaults: the space
    form's model (``measure``) takes a ``Domain2D`` in E2 and H2 and a
    ``MeridianDomain`` in E3, meshed here by ``mesh_levels`` at ``rings`` x
    ``sectors`` (``None`` means 64 rays for a planar fan, 32 for a meridian
    half-fan), each on the fan its shape states.  The report functions
    forward their ``**mesh`` keywords here.  Volume quadrature runs on
    ``meshes``, eigensolves and boundary integrals on the ``level`` data,
    built on first use; ``extrapolate`` walks the levels.  Nothing here
    depends on a weight, so one hierarchy serves every weight of a
    domain: the report functions take it in place of the domain.
    """

    def __init__(self, dom, form: SpaceForm, rings: int = 8,
                 sectors: int | None = None, levels: int = 3):
        meas = measure(form)         # no mesh model for S^n, H^3 or n >= 4
        shape = MeridianDomain if meas is MERIDIAN else Domain2D
        if not isinstance(dom, shape):
            raise DomainError(f"the {form.label} model meshes a "
                              f"{shape.__name__}, not a {type(dom).__name__}")
        self.domain = dom
        self.form = form
        if sectors is None:
            sectors = 32 if shape is MeridianDomain else 64
        self.meshes = mesh_levels(dom, rings, sectors, levels)
        self._p1 = [None] * len(self.meshes)
        # the Poincare model refuses a mesh past its margin here
        dist = meas.dist(self.meshes[-1].vertices)
        self.t_max = max(float(np.max(dist)), 1e-6)

    def level(self, i: int) -> P1Level:
        """The P1 data of level i, built on first use."""
        self._p1[i] = self._p1[i] or P1Level(self.meshes[i], self.form)
        return self._p1[i]

    def spectrum(self, level: int, w: RadialWeight, k: int) -> SteklovSpectrum:
        """sigma_0..sigma_k on one level (azimuthal modes merged for a solid)."""
        return domain_spectrum(self.level(level), w, k)

    def spectra(self, w: RadialWeight, k: int) -> list[SteklovSpectrum]:
        return [self.spectrum(i, w, k) for i in range(len(self.meshes))]

    def extrapolate(self, w: RadialWeight, k: int) -> tuple[list, list]:
        """Per-level sigma_0..sigma_k, and the Richardson extrapolation of
        each of sigma_1..sigma_k over the levels."""
        values = [[float(x) for x in s.eigenvalues] for s in self.spectra(w, k)]
        return values, [richardson([row[i] for row in values])
                        for i in range(1, k + 1)]

    def matched_radius(self, w: RadialWeight) -> tuple[float, float]:
        """(volume, R): the weighted volume of the finest mesh and the radius
        of the centred ball with that weighted volume."""
        volume = integrate_weighted(self.meshes[-1], self.form, w)
        return volume, match_radius(self.form, w, volume)


def _hierarchy(dom, form: SpaceForm, w: RadialWeight,
               mesh: dict) -> MeshHierarchy:
    """``dom`` when it is a prebuilt ``MeshHierarchy``, which takes no mesh
    settings, else ``MeshHierarchy(dom, form, **mesh)``; either way after
    the Property I check of ``w`` on its distance range [0, t_max]."""
    if not isinstance(dom, MeshHierarchy):
        dom = MeshHierarchy(dom, form, **mesh)
    elif mesh:
        raise DomainError(f"mesh settings {sorted(mesh)} passed with a "
                          "prebuilt mesh hierarchy")
    elif dom.form != form:
        raise DomainError(f"the mesh hierarchy was built for {dom.form.label}, "
                          f"not {form.label}")
    validate_property_i(w, dom.t_max)
    return dom


# ---------------------------------------------------------------------------
# Brock-type report
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    domain: str
    curvature: str
    weight: str
    n: int
    volume: float
    R: float
    sigma_omega: list[float]          # extrapolated sigma_1..sigma_n
    sigma_errors: list[float]
    sigma_levels: list[list[float]]   # raw per-level values sigma_0..sigma_n
    sigma1_ball: float
    identity_discrepancy: float
    lhs: float
    rhs: float
    gap: float
    slack: float
    status: str                       # "pass" | "violation"
    near_equality: bool
    equality_tol: float
    h_finest: float
    levels: int
    question_a: dict | None = None
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def csv_row(self) -> dict:
        row = {
            "domain": self.domain, "weight": self.weight,
            "curvature": self.curvature, "n": self.n,
            "volume": self.volume, "R": self.R,
        }
        for i, s in enumerate(self.sigma_omega, start=1):
            row[f"sigma{i}_omega"] = s
        row.update({
            "sigma1_ball": self.sigma1_ball, "lhs": self.lhs, "rhs": self.rhs,
            "gap": self.gap,
            "gap_n": self.question_a["gap_n"] if self.question_a else "",
            "status": self.status,
        })
        return row


def brock_report(dom, form: SpaceForm, w: RadialWeight,
                 **mesh) -> VerificationReport:
    """Volume-matched ball comparison for the sum of reciprocal eigenvalues.

    ``dom`` is a domain, meshed by ``MeshHierarchy(dom, form, **mesh)``, or
    its prebuilt ``MeshHierarchy``.  status is "pass" when lhs - rhs >=
    -slack with slack the larger of the relative floor and 3x the
    Richardson error estimate of the lhs.  In 2-D ``question_a`` holds the
    open sum-of-n-reciprocals block, which is reported but never asserted.
    """
    n = form.dim
    hier = _hierarchy(dom, form, w, mesh)
    dom = hier.domain
    sigma_levels, extraps = hier.extrapolate(w, n)
    sigma = [ex.value for ex in extraps]
    errs = [ex.error for ex in extraps]

    volume, R = hier.matched_radius(w)
    ball = sigma1_ball(form, w, R)

    def compare(m: int) -> tuple[float, float, float, float]:
        """(lhs, rhs, err, slack) for the sum of the first m reciprocals."""
        lhs = sum(1.0 / s for s in sigma[:m])
        rhs = m / ball.value
        err = sum(e / s ** 2 for e, s in zip(errs[:m], sigma[:m]))
        return lhs, rhs, err, max(DEFAULT_CONFIG.slack_floor * abs(rhs), 3.0 * err)

    lhs, rhs, err_lhs, slack = compare(n - 1)
    gap = lhs - rhs
    equality_tol = max(DEFAULT_CONFIG.equality_floor, 3.0 * err_lhs)

    qa = None
    if n == 2:
        lhs_n, rhs_n, _, slack_n = compare(n)
        gap_n = lhs_n - rhs_n
        qa = {
            "sigma_n": sigma[n - 1], "lhs_n": lhs_n, "rhs_n": rhs_n,
            "gap_n": gap_n, "slack_n": slack_n,
            "status": "ok" if gap_n >= -slack_n else "counterexample-candidate",
        }

    return VerificationReport(
        domain=dom.label, curvature=form.curvature.label, weight=w.label, n=n,
        volume=volume, R=R, sigma_omega=sigma, sigma_errors=errs,
        sigma_levels=sigma_levels,
        sigma1_ball=ball.value, identity_discrepancy=ball.rel_discrepancy,
        lhs=lhs, rhs=rhs, gap=gap, slack=slack,
        status="pass" if gap >= -slack else "violation",
        near_equality=dom.centered_ball and abs(gap) <= equality_tol,
        equality_tol=equality_tol, h_finest=hier.meshes[-1].h,
        levels=len(hier.meshes), question_a=qa)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceStudy:
    domain: str
    weight: str
    curvature: str
    hs: list[float]
    values: list[list[float]]         # per level: sigma_0..sigma_k
    extrapolated: list[float]         # sigma_1..sigma_k
    orders: list[float]
    errors: list[float]
    monotone: list[bool]              # False: no safe extrapolation


def convergence_study(dom, form: SpaceForm, w: RadialWeight, k: int,
                      **mesh) -> ConvergenceStudy:
    """Per-eigenvalue Richardson table used to calibrate inequality slacks.

    ``dom`` is a domain (meshed with ``**mesh``) or its prebuilt
    ``MeshHierarchy``.
    """
    if k < 1:
        raise DomainError(f"need at least one eigenvalue, got k = {k}")
    hier = _hierarchy(dom, form, w, mesh)
    if len(hier.meshes) < 3:
        raise DomainError("convergence study needs at least 3 levels")
    values, extraps = hier.extrapolate(w, k)
    return ConvergenceStudy(
        domain=hier.domain.label, weight=w.label,
        curvature=form.curvature.label, hs=[m.h for m in hier.meshes],
        values=values, extrapolated=[ex.value for ex in extraps],
        orders=[ex.order for ex in extraps],
        errors=[ex.error for ex in extraps],
        monotone=[ex.monotone for ex in extraps])


# ---------------------------------------------------------------------------
# monotone rearrangement comparison
# ---------------------------------------------------------------------------

@dataclass
class RearrangementReport:
    domain: str
    weight: str
    kind: str
    omega_integral: float
    ball_integral: float
    R: float
    margin: float       # signed so that >= -slack means the stated direction
    slack: float
    passed: bool


def rearrangement_check(dom, form: SpaceForm, w: RadialWeight, fn, kind: str,
                        **mesh) -> RearrangementReport:
    """Compare int_Omega v(t) dmu with the volume-matched ball integral.

    ``kind`` is "non_decreasing" (Omega side must dominate) or
    "non_increasing" (ball side must dominate).  ``dom`` is a domain
    (meshed with ``**mesh``) or its prebuilt ``MeshHierarchy``.
    """
    if kind not in ("non_decreasing", "non_increasing"):
        raise DomainError("kind must be non_decreasing or non_increasing")
    hier = _hierarchy(dom, form, w, mesh)
    volume, R = hier.matched_radius(w)
    omega_side = integrate_weighted(hier.meshes[-1], form, w, fn)
    ball_side = ball_weighted_volume(form, w, R, fn)

    if kind == "non_decreasing":
        margin = omega_side - ball_side
    else:
        margin = ball_side - omega_side
    scale = max(abs(omega_side), abs(ball_side), 1e-300)
    slack = DEFAULT_CONFIG.slack_floor * scale
    return RearrangementReport(
        domain=hier.domain.label, weight=w.label, kind=kind,
        omega_integral=omega_side, ball_integral=ball_side, R=R,
        margin=margin, slack=slack, passed=(margin >= -slack))


# ---------------------------------------------------------------------------
# proof-chain audit
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    domain: str
    curvature: str
    weight: str
    n: int
    volume: float
    R: float
    sigma_omega: list[float]
    sigma1_ball: float
    # trial-function quantities with the uncapped radial profile
    boundary_T2: float            # A = int_bd T^2 dmu-hat
    omega_G: float                # B = int_Omega G dmu
    omega_H: float                # C = int_Omega H dmu
    ball_G: float
    ball_H: float
    # capped-profile diagnostics (informational)
    capped_boundary_f2: float
    capped_omega_G: float
    capped_omega_H: float
    # normalized link margins (>= -slack passes)
    margin_divergence: float      # (i)   A - B
    margin_variational: float     # (ii)  bound - A
    margin_ball_G: float          # (iii) B - int_B G
    margin_ball_H: float          # (iii) int_B H - C
    capped_margin_divergence: float
    capped_margin_variational: float
    capped_ball_G_comparison: float   # recorded, not asserted
    capped_margin_ball_H: float
    link_slack: float
    variational_slack: float
    links_passed: dict
    implication_consistent: bool
    gap: float                    # lhs - rhs reproduced from the chain inputs

    @property
    def passed(self) -> bool:
        return all(self.links_passed.values())


def proof_chain_check(dom: Domain2D | MeshHierarchy, form: SpaceForm,
                      w: RadialWeight, **mesh) -> ChainReport:
    """Audit the trial-function inequality chain behind the ball comparison.

    The asserted links use the radial profile itself (solved past R where
    the domain sticks out of the matched ball):

      (i)   divergence bound       int_bd T^2 dmu-hat >= int_Om G dmu
      (ii)  variational bound      int_bd T^2 dmu-hat
                                     <= (1/(n-1)) sum 1/sigma_i * int_Om H dmu
      (iii) monotone rearrangement int_Om G >= int_B G,  int_Om H <= int_B H

    The capped profile (frozen at its t = R value outside the ball) is
    also evaluated and reported: its divergence and variational bounds are
    valid and checked, while its ball comparison for the G-side is known
    to fail at first order in the domain perturbation, so that number is
    recorded for inspection but never asserted.  ``dom`` is a domain
    (meshed with ``**mesh``) or its prebuilt ``MeshHierarchy``.
    """
    plane = dom.domain if isinstance(dom, MeshHierarchy) else dom
    if not isinstance(plane, Domain2D):
        raise DomainError("the chain audit runs on planar domains")
    if not plane.reflection_symmetric:
        raise SymmetryError(
            f"domain {plane.label} is not symmetric under x->-x, y->-y")
    n = form.dim

    hier = _hierarchy(dom, form, w, mesh)
    extraps = hier.extrapolate(w, n)[1][:n - 1]
    sigma = [ex.value for ex in extraps]
    sigma_err = sum(ex.error / ex.value ** 2 for ex in extraps)
    volume, R = hier.matched_radius(w)

    # one mode-1 solve past R: its shooting value at R is the ball's sigma_1
    t_end = max(R, hier.t_max) * (1.0 + 1e-9)
    sol = solve_mode(form, w, 1, R, t_end=t_end)

    # The capped profile keeps T frozen at T(R) and T' = 0 beyond R.
    TR = sol(R)[0][0]

    def squares(t):
        """T^2, then the capped T^2, at distances t."""
        T = sol(t)[0]
        return np.stack([T, np.where(t <= R, T, TR)]) ** 2

    def profiles(t):
        """G and H along the mode-1 solution at distances t, then both
        along the capped profile."""
        T, dT = sol(t)
        Tc, dTc = np.where(t <= R, T, TR), np.where(t <= R, dT, 0.0)
        return np.stack([g_values(form, w, t, T, dT),
                         h_values(form, w, t, T, dT),
                         g_values(form, w, t, Tc, dTc),
                         h_values(form, w, t, Tc, dTc)])

    A, A_cap = hier.level(-1).boundary_integral(w, squares)
    B, C, B_cap, C_cap = integrate_weighted(hier.meshes[-1], form, w, profiles)
    ball_G, ball_H = ball_gh_integrals(sol)

    inv_sum = sum(1.0 / s for s in sigma)
    bound = inv_sum * C / (n - 1)
    bound_cap = inv_sum * C_cap / (n - 1)

    link_slack = DEFAULT_CONFIG.slack_floor
    variational_slack = link_slack + 3.0 * sigma_err * C / ((n - 1) * A)

    margin_div = (A - B) / A
    margin_var = (bound - A) / A
    margin_bg = (B - ball_G) / ball_G
    margin_bh = (ball_H - C) / ball_H
    links_passed = {
        "divergence": margin_div >= -link_slack,
        "variational": margin_var >= -variational_slack,
        "ball_G": margin_bg >= -link_slack,
        "ball_H": margin_bh >= -link_slack,
    }

    # composed chain: sum 1/sigma_i >= (n-1) B / C >= (n-1) ball_G / ball_H
    lhs = inv_sum
    rhs = (n - 1) / sol.beta
    mid = (n - 1) * B / C
    tol = (link_slack * 3 + variational_slack) * max(lhs, rhs, 1.0)
    implication_consistent = (lhs >= mid - tol) and (mid >= rhs - tol)

    return ChainReport(
        domain=plane.label, curvature=form.curvature.label, weight=w.label, n=n,
        volume=volume, R=R, sigma_omega=sigma, sigma1_ball=sol.beta,
        boundary_T2=A, omega_G=B, omega_H=C, ball_G=ball_G, ball_H=ball_H,
        capped_boundary_f2=A_cap, capped_omega_G=B_cap, capped_omega_H=C_cap,
        margin_divergence=margin_div, margin_variational=margin_var,
        margin_ball_G=margin_bg, margin_ball_H=margin_bh,
        capped_margin_divergence=(A_cap - B_cap) / A_cap,
        capped_margin_variational=(bound_cap - A_cap) / A_cap,
        capped_ball_G_comparison=(B_cap - ball_G) / ball_G,
        capped_margin_ball_H=(ball_H - C_cap) / ball_H,
        link_slack=link_slack, variational_slack=variational_slack,
        links_passed=links_passed,
        implication_consistent=implication_consistent,
        gap=lhs - rhs)


# ---------------------------------------------------------------------------
# standard sweep families
# ---------------------------------------------------------------------------

def standard_weights_euclidean() -> list[RadialWeight]:
    return [RadialWeight.constant(0.0), RadialWeight.linear(0.5),
            RadialWeight.quadratic(1.0, 0.25)]


def standard_weights_hyperbolic() -> list[RadialWeight]:
    return [RadialWeight.constant(0.0), RadialWeight.linear(0.5)]


def standard_sweep_euclidean() -> list[Domain2D]:
    """20 planar domains: area-pi ellipses, perturbed disks, one offset disk.

    The (eps, k) grid keeps only pairs with |eps| k < 1 (the star-shape
    invariant), which drops (0.2, 5); an extra ellipse keeps the count at 20.

    The unit disk shifted to (0.3, 0) is there on purpose.  All other
    domains are centred on the weight origin with a rotational symmetry of
    order >= 2, so the Brock trial functions x_i g(|x|)/|x| are orthogonal
    to constants on them.  On the offset disk they are not, and under a
    non-constant weight its report is a violation: the sweep carries that
    finding so that every run of it shows the comparison failing outside
    the regime its proof covers (constant weights stay translation-invariant
    and pass).
    """
    doms = []
    for ratio in np.linspace(1.0, 2.0, 11):
        doms.append(Domain2D.ellipse(math.sqrt(ratio), 1.0 / math.sqrt(ratio)))
    for eps in (0.05, 0.1, 0.2):
        for k in (2, 3, 5):
            if abs(eps) * k < 1.0:
                doms.append(Domain2D.perturbed_disk(1.0, eps, k))
    doms.append(Domain2D.disk(1.0, center=(0.3, 0.0)))
    return doms


def standard_sweep_hyperbolic() -> list[Domain2D]:
    """10 domains strictly inside the Poincare disk.

    All are centered at the weight origin: off-center domains violate the
    ball comparison outright (the planar standard sweep carries one such
    domain and the violation is reported there), so the hyperbolic family
    stays inside the regime where the inequality is expected to hold.
    """
    doms = [
        Domain2D.disk(math.tanh(0.25)),
        Domain2D.disk(math.tanh(0.5)),
        Domain2D.ellipse(0.5, 0.35),
        Domain2D.ellipse(0.55, 0.3),
        Domain2D.ellipse(0.45, 0.4),
        Domain2D.perturbed_disk(0.45, 0.05, 2),
        Domain2D.perturbed_disk(0.45, 0.1, 2),
        Domain2D.perturbed_disk(0.45, 0.05, 3),
        Domain2D.perturbed_disk(0.45, 0.1, 3),
        Domain2D.perturbed_disk(0.45, 0.08, 4),
    ]
    return doms


def standard_chain_domains() -> list[Domain2D]:
    """6 reflection-symmetric planar domains for the chain audit."""
    s = 1.0 / math.sqrt(2.0)
    return [
        Domain2D.disk(1.0),
        Domain2D.ellipse(math.sqrt(1.3), 1.0 / math.sqrt(1.3)),
        Domain2D.ellipse(math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
        Domain2D.perturbed_disk(1.0, 0.1, 2),
        Domain2D.perturbed_disk(1.0, 0.05, 4),
        Domain2D.polygon([(1.2, -s), (1.2, s), (-1.2, s), (-1.2, -s)]),
    ]


def standard_spheroids() -> list[MeridianDomain]:
    """Equal-unweighted-volume spheroids with aspect ratios 1.0, 1.25, 1.5."""
    out = []
    for ratio in (1.0, 1.25, 1.5):
        a = ratio ** (1.0 / 3.0)
        out.append(MeridianDomain.spheroid(a, a / ratio))
    return out
