"""Radial mode solver for weighted Steklov eigenvalues of geodesic balls.

For each angular mode degree i >= 1 the separated radial factor T solves

    T'' + ((n-1) C_kappa/S_kappa - phi') T' - lam_i S_kappa^{-2} T = 0,
    lam_i = i (i + n - 2),

with T ~ t^i near the regular singular point t = 0.  The shooting value
beta_i = T'(R)/T(R) is the Steklov eigenvalue of the mode; beta_1 is the
first nonzero eigenvalue of the ball.  The module also evaluates the two
monotone comparison profiles

    G = (T^2)' + (n-1)(C/S) T^2 - T^2 phi',
    H = (T')^2 + (n-1) T^2 / S^2,

whose weighted ball integrals satisfy sigma_1(B_R) = int H dmu / int G dmu.

A closed-form weight (constant, linear, quadratic) is solved by Chebyshev
collocation (Trefethen, Spectral Methods in MATLAB, ch. 6-7), with DOP853
as the fallback when degrees 24 and 32 disagree on beta.  A tabulated
weight stays on DOP853 at rtol 1e-10: its phi' has kinks at the nodes.
DOP853 starts at t0 = series_start_factor * R from the three-term series
of T, which also serves below t0; either route hands back one evaluator of
(T, T') on [0, t_end].  Every ball integral, G and H included, goes
through ``geometry.ball_weighted_volume``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp

from .config import DEFAULT_CONFIG
from .geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                       ball_boundary_weighted_measure, ball_weighted_volume,
                       c_kappa, s_kappa, validate_property_i)
from .spectrum import SteklovSpectrum


class IntegrationError(RuntimeError):
    """The adaptive integrator failed (stiffness, step underflow, ...)."""


class NonPositiveSolutionError(IntegrationError):
    """T <= 0 detected inside (0, R): invalid weight or integrator failure."""


class AdmissibilityError(ValueError):
    """Weight fails the non-increasing/concavity requirement and no waiver set."""


def angular_eigenvalue(n: int, i: int) -> float:
    """Unit-sphere eigenvalue of degree-i spherical harmonics: i(i+n-2)."""
    return float(i * (i + n - 2))


def harmonic_multiplicity(n: int, i: int) -> int:
    """Dimension of the degree-i spherical-harmonic space on S^{n-1}."""
    if i == 0:
        return 1
    if n == 2:
        return 2
    return (2 * i + n - 2) * math.factorial(i + n - 3) // (
        math.factorial(i) * math.factorial(n - 2))


# S_kappa and C_kappa of one scalar t for the ODE right-hand side: the
# ufuncs of s_kappa/c_kappa (so the same bits) without their argument check,
# which solve_mode makes once for the whole interval.
_METRIC = {Curvature.EUCLIDEAN: (float, lambda t: 1.0),
           Curvature.HYPERBOLIC: (np.sinh, np.cosh),
           Curvature.SPHERICAL_CAP: (np.sin, np.cos)}


def _chebyshev_basis(N: int):
    """Chebyshev-Lobatto nodes cos(j pi / N), +1 down to -1, and the values
    there of T_0..T_N and of their first two derivatives."""
    x, cheb = np.cos(np.pi * np.arange(N + 1) / N), np.polynomial.chebyshev
    return x, [cheb.chebvander(x, N - m) @ cheb.chebder(np.eye(N + 1), m)
               for m in range(3)]


# the coarse and the fine degree; past about 32, roundoff in the derivative
# rows outgrows the truncation error
_CHEBYSHEV = {N: _chebyshev_basis(N) for N in (24, 32)}


def _collocate(form, w, i, lo, hi, N, u_lo, du_lo=None):
    """u = T / t^i on [lo, hi] as a degree-N Chebyshev series.  T = t^i u
    turns the mode equation, times S^2, into

        S^2 u'' + (2i S^2/t + P) u' + (i(i-1) S^2/t^2 + i P/t - lam) u = 0,
        P = (n-1) S C - S^2 phi',

    bounded at t = 0, where u(0) is the lead coefficient; so T keeps its
    relative accuracy near 0.  It is collocated at every node but lo, whose
    row holds u(lo) = u_lo; given ``du_lo``, the row of hi holds u'(lo)."""
    x, (V0, V1, V2) = _CHEBYSHEV[N]
    t, k = lo + 0.5 * (hi - lo) * (1.0 + x[:-1]), 2.0 / (hi - lo)
    s, c = s_kappa(form, t), c_kappa(form, t)
    p = (form.dim - 1) * s * c - s * s * w.phi_prime(t)
    lam = angular_eigenvalue(form.dim, i)
    A = np.vstack([(s * s * k * k)[:, None] * V2[:-1]
                   + ((2 * i * s * s / t + p) * k)[:, None] * V1[:-1]
                   + (i * (i - 1) * (s / t) ** 2 + i * p / t - lam)[:, None] * V0[:-1],
                   V0[-1]])
    b = np.zeros(N + 1)
    b[-1] = u_lo
    if du_lo is not None:
        A[0], b[0] = k * V1[-1], du_lo
    return np.polynomial.Chebyshev(np.linalg.solve(A, b), domain=[lo, hi])


def _chebyshev_solve(form, w, i, R, t_end, lead):
    """(dense (T, T') evaluator, beta) from collocation on [0, R], continued
    on [R, t_end] with u and u' continuous; (None, None) unless the coarse
    and the fine degree agree on beta to the integrator tolerance."""
    fits = []
    for N in _CHEBYSHEV:
        u = _collocate(form, w, i, 0.0, R, N, lead)
        tail = (_collocate(form, w, i, R, t_end, N, u(R), u.deriv()(R))
                if t_end > R else u)
        fits.append(([u, tail], i / R + u.deriv()(R) / u(R)))
    (_, coarse), (pieces, beta) = fits
    if abs(coarse - beta) > DEFAULT_CONFIG.integrator_rtol * abs(beta):
        return None, None
    derivs = [p.deriv() for p in pieces]

    def dense(t):
        u, du = (np.piecewise(t, [t <= R], f) for f in (pieces, derivs))
        return t ** i * u, t ** (i - 1) * (i * u + t * du)
    return dense, float(beta)


def _shoot(form, w, i, R, t_end, lead):
    """(dense (T, T') evaluator on [0, t_end], beta) from DOP853 started at
    t0 = series_start_factor * R on the series lead t^i (1 + c1 t + c2 t^2)
    of T, which the evaluator also uses below t0."""
    n = form.dim
    lam = angular_eigenvalue(n, i)
    dp0, d2p0 = float(w.phi_prime(0.0)), float(w.phi_second(0.0))
    c1 = i * dp0 / (2 * i + n - 1)
    c2 = (form.kappa * (lam + (n - 1) * i) / 3.0 + dp0 * c1 * (i + 1)
          + i * d2p0) / (4 * i + 2 * n)
    cfg = DEFAULT_CONFIG
    t0 = cfg.series_start_factor * R

    def series(t):
        base = t ** i
        return (lead * base * (1.0 + c1 * t + c2 * t * t),
                lead * (i * t ** (i - 1) + c1 * (i + 1) * base
                        + c2 * (i + 2) * base * t))

    s_fn, c_fn = _METRIC[form.curvature]
    dphi = w.phi_prime
    if w.kind == "tabulated":
        # one range check for [t0, t_end], then bare interpolation per call
        w.phi_prime(np.array([t0, t_end]))
        dphi = partial(np.interp, xp=w.grid_t, fp=w.grid_dphi)

    def rhs(t, y):
        T, dT = y
        s, c = float(s_fn(t)), float(c_fn(t))
        return (dT,
                -((n - 1) * c / s - dphi(t)) * dT + lam / (s * s) * T)

    y0 = np.array(series(t0))
    atol = cfg.integrator_rtol * max(abs(y0[0]), 1e-290)
    sol = solve_ivp(rhs, (t0, t_end), y0, method=cfg.integrator_method,
                    rtol=cfg.integrator_rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise IntegrationError(f"radial integration failed: {sol.message}")
    if t_end == R:
        TR, dTR = sol.y[0, -1], sol.y[1, -1]
    else:
        TR, dTR = sol.sol(R)

    # every step's dense-output piece, gathered once: scipy's evaluation
    # (OdeSolution segment choice, Dop853DenseOutput Horner sequence) run
    # elementwise on all points at once, bit for bit
    ts, pieces = sol.sol.ts, sol.sol.interpolants
    t_old = np.array([p.t_old for p in pieces])
    h = np.array([p.h for p in pieces])
    F = np.stack([p.F for p in pieces])          # (steps, power, 2)
    y_old = np.stack([p.y_old for p in pieces])

    def dense(t):
        flat = np.maximum(t, t0).ravel()
        seg = np.clip(np.searchsorted(ts, flat, "left") - 1, 0, len(pieces) - 1)
        x = ((flat - t_old[seg]) / h[seg])[:, None]
        x1, Fs = 1 - x, F[seg]
        y = np.zeros((len(flat), 2))
        for i in range(F.shape[1]):
            y += Fs[:, -1 - i]
            y *= x if i % 2 == 0 else x1
        y += y_old[seg]
        above = y.T.reshape((2,) + t.shape)
        return np.where(t < t0, series(np.minimum(t, t0)), above)
    return dense, float(dTR / TR)


@dataclass
class RadialSolution:
    """Sampled trajectory of one radial mode plus its shooting eigenvalue;
    ``_dense`` maps distance arrays in [0, t_end] to the rows (T, T')."""

    form: SpaceForm
    weight: RadialWeight
    mode_degree: int
    angular_eigenvalue: float
    R: float
    grid: np.ndarray
    T_values: np.ndarray
    Tprime_values: np.ndarray
    beta: float
    _dense: object = field(default=None, repr=False)

    def T_at(self, t) -> np.ndarray:
        return self._dense(np.atleast_1d(np.asarray(t, dtype=float)))[0]

    def Tprime_at(self, t) -> np.ndarray:
        return self._dense(np.atleast_1d(np.asarray(t, dtype=float)))[1]


def solve_mode(form: SpaceForm, w: RadialWeight, i: int, R: float, *,
               lead_coeff: float = 1.0, t_end: float | None = None,
               waive_admissibility: bool = False) -> RadialSolution:
    """Integrate one radial mode and return the sampled solution with beta_i.

    ``t_end`` extends the integration beyond R (the shooting value is still
    taken at R); this is what inequality audits use to evaluate T outside
    the comparison ball.
    """
    if i < 1:
        raise DomainError("mode degree must be >= 1")
    if not 0 < R < math.inf:
        raise DomainError("R must be positive and finite")
    if not 0 < lead_coeff < math.inf:
        raise DomainError("lead_coeff must be positive and finite")
    if t_end is None:
        t_end = R
    if not R <= t_end < math.inf:
        raise DomainError("t_end must be finite and >= R")
    if form.curvature.kappa == 1 and t_end >= math.pi:
        raise DomainError("spherical-cap solves require t_end < pi")

    if not waive_admissibility:
        adm = validate_property_i(w, t_end)
        if not adm.admissible:
            raise AdmissibilityError(
                "weight fails Property I (non-increasing, concave): "
                f"max phi' = {adm.max_phi_prime:.3e}, max phi'' = {adm.max_phi_second:.3e}; "
                "pass waive_admissibility=True to integrate anyway")

    dense = None
    if w.kind != "tabulated":
        dense, beta = _chebyshev_solve(form, w, i, R, t_end, lead_coeff)
    if dense is None:
        dense, beta = _shoot(form, w, i, R, t_end, lead_coeff)
    grid = np.linspace(DEFAULT_CONFIG.series_start_factor * R, t_end,
                       DEFAULT_CONFIG.report_points)
    T_vals, dT_vals = dense(grid)
    if np.any(T_vals <= 0.0):
        raise NonPositiveSolutionError(
            "radial solution T became non-positive inside (0, R)")

    return RadialSolution(
        form=form, weight=w, mode_degree=i,
        angular_eigenvalue=angular_eigenvalue(form.dim, i), R=float(R),
        grid=grid, T_values=T_vals, Tprime_values=dT_vals, beta=beta,
        _dense=dense)


# ---------------------------------------------------------------------------
# weighted radial integrals
# ---------------------------------------------------------------------------

def h_values(form: SpaceForm, w: RadialWeight, t, T, dT):
    s = s_kappa(form, t)
    return dT * dT + (form.dim - 1) * (T / s) ** 2


def g_values(form: SpaceForm, w: RadialWeight, t, T, dT):
    s = s_kappa(form, t)
    c = c_kappa(form, t)
    return 2.0 * T * dT + ((form.dim - 1) * c / s - w.phi_prime(t)) * T * T


def ball_gh_integrals(sol: RadialSolution) -> tuple[float, float]:
    """Weighted ball integrals (int_B G dmu, int_B H dmu) for a mode-1 solve."""
    if sol.mode_degree != 1:
        raise DomainError("G/H integrals are defined for the mode-1 solution")
    form, w = sol.form, sol.weight

    def gh(t):
        T, dT = sol._dense(t)
        return np.stack([g_values(form, w, t, T, dT), h_values(form, w, t, T, dT)])
    ig, ih = ball_weighted_volume(form, w, sol.R, gh)
    return ig, ih


@dataclass
class BallSigma1:
    """First nonzero ball eigenvalue with the integral-identity cross check."""

    value: float
    beta: float
    integral_value: float
    rel_discrepancy: float
    solution: RadialSolution

    def __float__(self) -> float:
        return self.value

    @property
    def constant_boundary_eigenvalue_reading(self) -> float:
        """The (inconsistent) reading that freezes the boundary-sphere
        eigenvalue at its t = R value, kept so that its discrepancy from
        ``beta`` stays visible in data."""
        sol = self.solution
        form, w, R = sol.form, sol.weight, sol.R
        v1_at_R = (form.dim - 1) / s_kappa(form, R) ** 2

        def frozen_h(t):
            T, dT = sol._dense(t)
            return dT * dT + v1_at_R * T * T
        return ball_weighted_volume(form, w, R, frozen_h) / (
            sol.T_at(R)[0] ** 2 * ball_boundary_weighted_measure(form, w, R))


def sigma1_ball(form: SpaceForm, w: RadialWeight, R: float, *,
                waive_admissibility: bool = False) -> BallSigma1:
    """sigma_1 of the weighted ball via shooting, cross-checked by quadrature.

    The identity checked is beta_1 = int_B H dmu / (T(R)^2 |bd B_R|_phi).
    """
    sol = solve_mode(form, w, 1, R, waive_admissibility=waive_admissibility)
    _, ih = ball_gh_integrals(sol)
    integral_value = ih / (sol.T_at(R)[0] ** 2
                           * ball_boundary_weighted_measure(form, w, R))
    rel = abs(sol.beta - integral_value) / abs(sol.beta)
    warn_tol = DEFAULT_CONFIG.identity_warn_tol
    if rel > warn_tol:
        warnings.warn(
            f"shooting/integral identity discrepancy {rel:.3e} exceeds "
            f"{warn_tol:.1e}", RuntimeWarning, stacklevel=2)
    return BallSigma1(value=sol.beta, beta=sol.beta, integral_value=integral_value,
                      rel_discrepancy=rel, solution=sol)


def ball_spectrum(form: SpaceForm, w: RadialWeight, R: float, count: int, *,
                  waive_admissibility: bool = False) -> SteklovSpectrum:
    """sigma_0 = 0 followed by the ``count`` smallest ball eigenvalues.

    Mode eigenvalues beta_i enter with the multiplicity of degree-i
    spherical harmonics; beta_i increases with i, so modes are walked in
    order until enough values are collected.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    n = form.dim
    values = [0.0]
    modes = [0]
    i = 1
    while len(values) < count + 1:
        sol = solve_mode(form, w, i, R, waive_admissibility=waive_admissibility)
        mult = harmonic_multiplicity(n, i)
        values.extend([sol.beta] * mult)
        modes.extend([i] * mult)
        i += 1
    values = values[:count + 1]
    modes = modes[:count + 1]
    return SteklovSpectrum(
        eigenvalues=np.array(values), modes=modes,
        metadata={"source": "radial", "curvature": form.curvature.label,
                  "n": n, "R": R, "weight": w.label})


# ---------------------------------------------------------------------------
# monotone comparison profiles
# ---------------------------------------------------------------------------

@dataclass
class GHProfile:
    """G and H sampled on the grid of a mode-1 radial solution."""

    form: SpaceForm
    weight: RadialWeight
    grid: np.ndarray
    G_values: np.ndarray
    H_values: np.ndarray


def compute_gh(sol: RadialSolution) -> GHProfile:
    if sol.mode_degree != 1:
        raise DomainError("G/H profiles are defined for the mode-1 solution")
    t, T, dT = sol.grid, sol.T_values, sol.Tprime_values
    return GHProfile(
        form=sol.form, weight=sol.weight, grid=t,
        G_values=g_values(sol.form, sol.weight, t, T, dT),
        H_values=h_values(sol.form, sol.weight, t, T, dT))


@dataclass
class GHMonotonicityReport:
    """Finite-difference slopes of G and H against a relative tolerance."""

    min_g_slope: float
    max_h_slope: float
    g_scale: float
    h_scale: float
    tol: float
    g_ok: bool
    h_ok: bool

    @property
    def passed(self) -> bool:
        return self.g_ok and self.h_ok


def check_gh_monotonicity(p: GHProfile, tol: float = 1e-8) -> GHMonotonicityReport:
    """Check G non-decreasing and H non-increasing up to tol * scale."""
    dt = np.diff(p.grid)
    g_slopes = np.diff(p.G_values) / dt
    h_slopes = np.diff(p.H_values) / dt
    g_scale = float(np.max(np.abs(p.G_values)))
    h_scale = float(np.max(np.abs(p.H_values)))
    min_g = float(np.min(g_slopes))
    max_h = float(np.max(h_slopes))
    return GHMonotonicityReport(
        min_g_slope=min_g, max_h_slope=max_h,
        g_scale=g_scale, h_scale=h_scale, tol=tol,
        g_ok=(min_g >= -tol * g_scale), h_ok=(max_h <= tol * h_scale))

