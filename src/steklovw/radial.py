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
DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) runs in a loop of
this module that repeats scipy 1.17.1's ``solve_ivp`` bit for bit, on a
right-hand side that takes a table's phi' from its node values and its
phi'' by np.interp's own formula.  It starts at t0 = series_start_factor
* R from the three-term series of T, which also serves below t0; either
route hands back one evaluator of (T, T') on [0, t_end].  Every ball
integral, G and H included, goes through ``geometry.ball_weighted_volume``.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853

from .config import DEFAULT_CONFIG
from .geometry import (Curvature, DomainError, RadialWeight, SpaceForm,
                       ball_boundary_weighted_measure, ball_weighted_volume,
                       c_kappa, s_kappa, validate_property_i)
from .spectrum import SteklovSpectrum, merge_modes


class IntegrationError(RuntimeError):
    """The adaptive integrator failed (stiffness, step underflow, ...)."""


class NonPositiveSolutionError(IntegrationError):
    """T <= 0 detected inside (0, R): invalid weight or integrator failure."""


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

    bounded at t = 0, where u(0) = 1 is the lead coefficient; so T keeps its
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


def _chebyshev_solve(form, w, i, R, t_end):
    """(dense (T, T') evaluator, beta) from collocation on [0, R], continued
    on [R, t_end] with u and u' continuous; (None, None) unless the coarse
    and the fine degree agree on beta to the integrator tolerance."""
    fits = []
    for N in _CHEBYSHEV:
        u = _collocate(form, w, i, 0.0, R, N, 1.0)
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


# The tableau of scipy's DOP853 class, which its solver steps with: each
# stage's row a[:s] and node c, for the step (stages 1-11) and for the dense
# output (stages 13-15).
_STEP = [(a[:s], c) for s, (a, c) in enumerate(zip(DOP853.A[1:], DOP853.C[1:]), 1)]
_EXTRA = [(a[:s], c) for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), 13)]


def _norm(x):
    """np.linalg.norm of a real vector, computed as numpy computes it."""
    return np.sqrt(x.dot(x))


def _dop853(fun, t, y, t_end, rtol, atol):
    """scipy 1.17.1's ``solve_ivp(fun, (t, t_end), y, method="DOP853",
    rtol=rtol, atol=atol, dense_output=True)`` for a 2-vector y, operation
    for operation in scipy's order (``select_initial_step``, ``rk_step``,
    the E5/E3 error norm, the step-factor rule, ``_dense_output_impl``), so
    every value has scipy's bits.  Returns the step times and y there, as
    scipy's ``t`` and ``y.T``, and each step's dense-output coefficients F;
    a step's size is the difference of its two times, as in scipy.  ``fun``
    may return a tuple."""
    K = np.empty((16, 2))
    KT = [K[:s].T for s in range(17)]    # K[:s].T.dot is scipy's np.dot
    f = np.asarray(fun(t, y), dtype=float)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _norm(y / scale) / 2 ** 0.5, _norm(f / scale) / 2 ** 0.5
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    f1 = np.asarray(fun(t + h0, y + h0 * f), dtype=float)
    d2 = _norm((f1 - f) / scale) / 2 ** 0.5 / h0
    h_abs = min(100 * h0, max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
                else (0.01 / max(d1, d2)) ** 0.125, t_end - t)
    ts, ys, Fs = [t], [y], []
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:      # also stops a NaN step size
                raise IntegrationError(
                    f"radial integration failed: step size underflow at t = {t}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, (a, c) in enumerate(_STEP, 1):
                K[s] = fun(t + c * h, y + KT[s].dot(a) * h)
            y_new = y + h * KT[12].dot(DOP853.B)
            K[12] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = _norm(KT[13].dot(DOP853.E5) / scale) ** 2
            e3 = _norm(KT[13].dot(DOP853.E3) / scale) ** 2
            err = (0.0 if e5 == 0 and e3 == 0
                   else abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * 2))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        for s, (a, c) in enumerate(_EXTRA, 13):
            K[s] = fun(t + c * h, y + KT[s].dot(a) * h)
        dy = y_new - y
        F = np.empty((7, 2))
        F[0], F[1] = dy, h * K[0] - dy
        F[2] = 2 * dy - h * (K[12] + K[0])
        F[3:] = h * DOP853.D.dot(K)
        Fs.append(F)
        t, y, f = t_new, y_new, K[12].copy()
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.stack(ys), np.stack(Fs)


def _shoot(form, w, i, R, t_end):
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
        return (base * (1.0 + c1 * t + c2 * t * t),
                i * t ** (i - 1) + c1 * (i + 1) * base
                + c2 * (i + 2) * base * t)

    s_fn, c_fn = _METRIC[form.curvature]
    dphi = w.phi_prime
    if w.kind == "tabulated":
        # one range check, then np.interp's formula, whose slopes are phi''
        w.phi_prime(np.array([t0, t_end]))
        x, f, slope = w.grid_t.tolist(), w.grid_dphi.tolist(), w.grid_d2phi.tolist()

        def dphi(t):
            if not x[0] < t < x[-1]:
                return f[0] if t <= x[0] else f[-1]
            j = bisect(x, t) - 1
            return slope[j] * (t - x[j]) + f[j]

    def rhs(t, y):
        T, dT = y.tolist()
        s, c = float(s_fn(t)), float(c_fn(t))
        return (dT,
                -((n - 1) * c / s - dphi(t)) * dT + lam / (s * s) * T)

    y0 = np.array(series(t0))
    atol = cfg.integrator_rtol * max(abs(y0[0]), 1e-290)
    ts, ys, F = _dop853(rhs, t0, y0, t_end, cfg.integrator_rtol, atol)

    # scipy's evaluation (OdeSolution segment choice, Dop853DenseOutput
    # Horner sequence) run elementwise on all points at once, bit for bit
    t_old, h, y_old = ts[:-1], np.diff(ts), ys[:-1]

    def dense(t):
        flat = np.maximum(t, t0).ravel()
        seg = np.clip(np.searchsorted(ts, flat, "left") - 1, 0, len(h) - 1)
        x = ((flat - t_old[seg]) / h[seg])[:, None]
        x1, Fs = 1 - x, F[seg]
        y = np.zeros((len(flat), 2))
        for i in range(F.shape[1]):
            y += Fs[:, -1 - i]
            y *= x if i % 2 == 0 else x1
        y += y_old[seg]
        above = y.T.reshape((2,) + t.shape)
        return np.where(t < t0, series(np.minimum(t, t0)), above)
    TR, dTR = ys[-1] if t_end == R else dense(np.array([R]))[:, 0]
    return dense, float(dTR / TR)


@dataclass
class RadialSolution:
    """Sampled trajectory of one radial mode plus its shooting eigenvalue;
    ``sol(t)`` evaluates the rows (T, T') at distances t in [0, t_end]."""

    form: SpaceForm
    weight: RadialWeight
    mode_degree: int
    R: float
    grid: np.ndarray
    T_values: np.ndarray
    Tprime_values: np.ndarray
    beta: float
    _dense: object = field(default=None, repr=False)

    def __call__(self, t) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self._dense(np.atleast_1d(np.asarray(t, dtype=float))))


def solve_mode(form: SpaceForm, w: RadialWeight, i: int, R: float, *,
               t_end: float | None = None) -> RadialSolution:
    """Integrate one radial mode and return the sampled solution with beta_i.

    ``t_end`` extends the integration beyond R (the shooting value is still
    taken at R); this is what inequality audits use to evaluate T outside
    the comparison ball.
    """
    if i < 1:
        raise DomainError("mode degree must be >= 1")
    if not 0 < R < math.inf:
        raise DomainError("R must be positive and finite")
    if t_end is None:
        t_end = R
    if not R <= t_end < math.inf:
        raise DomainError("t_end must be finite and >= R")
    if form.curvature.kappa == 1 and t_end >= math.pi:
        raise DomainError("spherical-cap solves require t_end < pi")

    validate_property_i(w, t_end)

    dense = None
    if w.kind != "tabulated":
        dense, beta = _chebyshev_solve(form, w, i, R, t_end)
    if dense is None:
        dense, beta = _shoot(form, w, i, R, t_end)
    grid = np.linspace(DEFAULT_CONFIG.series_start_factor * R, t_end,
                       DEFAULT_CONFIG.report_points)
    T_vals, dT_vals = dense(grid)
    if np.any(T_vals <= 0.0):
        raise NonPositiveSolutionError(
            "radial solution T became non-positive inside (0, R)")

    return RadialSolution(
        form=form, weight=w, mode_degree=i, R=float(R), grid=grid,
        T_values=T_vals, Tprime_values=dT_vals, beta=beta, _dense=dense)


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
        T, dT = sol(t)
        return np.stack([g_values(form, w, t, T, dT), h_values(form, w, t, T, dT)])
    ig, ih = ball_weighted_volume(form, w, sol.R, gh)
    return ig, ih


@dataclass
class BallSigma1:
    """First nonzero ball eigenvalue with the integral-identity cross check."""

    value: float
    integral_value: float
    rel_discrepancy: float
    solution: RadialSolution


def sigma1_ball(form: SpaceForm, w: RadialWeight, R: float) -> BallSigma1:
    """sigma_1 of the weighted ball via shooting, cross-checked by quadrature.

    The identity checked is beta_1 = int_B H dmu / (T(R)^2 |bd B_R|_phi).
    """
    sol = solve_mode(form, w, 1, R)
    _, ih = ball_gh_integrals(sol)
    integral_value = ih / (sol(R)[0][0] ** 2
                           * ball_boundary_weighted_measure(form, w, R))
    rel = abs(sol.beta - integral_value) / abs(sol.beta)
    warn_tol = DEFAULT_CONFIG.identity_warn_tol
    if rel > warn_tol:
        warnings.warn(
            f"shooting/integral identity discrepancy {rel:.3e} exceeds "
            f"{warn_tol:.1e}", RuntimeWarning, stacklevel=2)
    return BallSigma1(value=sol.beta, integral_value=integral_value,
                      rel_discrepancy=rel, solution=sol)


def ball_spectrum(form: SpaceForm, w: RadialWeight, R: float,
                  count: int) -> SteklovSpectrum:
    """sigma_0 = 0 followed by the ``count`` smallest ball eigenvalues:
    degree i >= 1 enters ``merge_modes`` as beta_i, which increases with i,
    with the multiplicity of degree-i spherical harmonics."""
    if count < 1:
        raise DomainError("count must be >= 1")
    n = form.dim
    return merge_modes(
        lambda i: [solve_mode(form, w, i, R).beta] if i else [0.0],
        lambda i: harmonic_multiplicity(n, i), count,
        {"source": "radial", "curvature": form.curvature.label, "n": n,
         "R": R, "weight": w.label})


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

