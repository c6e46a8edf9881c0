"""Space-form metric coefficients, radial weights and weighted ball measures.

The ambient spaces are the three simply connected constant-curvature models
(Euclidean space, hyperbolic space, and the unit hemisphere), described by
the curvature tag and the metric coefficient S_kappa with derivative
C_kappa.  Weights are radial functions phi(t) of the distance from a fixed
origin; the measure everywhere is exp(-phi) times the Riemannian one.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance."""


class AdmissibilityError(ValueError):
    """The weight fails Property I: phi non-increasing and concave."""


class Curvature(enum.Enum):
    EUCLIDEAN = 0
    HYPERBOLIC = -1
    SPHERICAL_CAP = 1

    @property
    def kappa(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class SpaceForm:
    """Constant-curvature model space: curvature tag plus dimension n >= 2."""

    curvature: Curvature
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"space form dimension must be >= 2, got {self.dim}")

    @property
    def kappa(self) -> int:
        return self.curvature.kappa

    @property
    def label(self) -> str:
        return f"{self.curvature.label}(n={self.dim})"


def _check_radial_arg(form: SpaceForm, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("radial argument must be nonnegative")
    if form.curvature is Curvature.SPHERICAL_CAP and np.any(t >= math.pi):
        raise DomainError("spherical-cap radial argument must satisfy t < pi")
    return t


def s_kappa(form: SpaceForm, t):
    """Metric coefficient: sin t, t or sinh t depending on the curvature."""
    t = _check_radial_arg(form, t)
    if form.curvature is Curvature.EUCLIDEAN:
        out = t.copy()
    elif form.curvature is Curvature.HYPERBOLIC:
        out = np.sinh(t)
    else:
        out = np.sin(t)
    return out if out.ndim else float(out)


def c_kappa(form: SpaceForm, t):
    """Derivative of s_kappa: 1, cos t or cosh t."""
    t = _check_radial_arg(form, t)
    if form.curvature is Curvature.EUCLIDEAN:
        out = np.ones_like(t)
    elif form.curvature is Curvature.HYPERBOLIC:
        out = np.cosh(t)
    else:
        out = np.cos(t)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# radial weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialWeight:
    """Radial weight phi(t) as a chain of quadratic pieces.

    Piece j starts at the node grid_t[j], the first at 0, and holds

        phi(t) = grid_phi[j] + u grid_dphi[j] + u^2 grid_d2phi[j] / 2,
        u = t - grid_t[j],

    so phi' is linear and phi'' constant on it.  A closed form
    c - a t - b t^2 is the one piece [0, inf) with (c, -a, -2b).  A table's
    phi' is ``np.gradient`` of its samples at the nodes, linear in between,
    and phi its exact integral from the first sample; grid_phi and grid_dphi
    also hold the values at its last node.  ``kind`` only names the weight.
    """

    kind: str
    grid_t: np.ndarray = field(repr=False)
    grid_phi: np.ndarray = field(repr=False)
    grid_dphi: np.ndarray = field(repr=False)
    grid_d2phi: np.ndarray = field(repr=False)

    # -- constructors -------------------------------------------------
    @staticmethod
    def _one_piece(kind: str, c: float, a: float, b: float) -> "RadialWeight":
        piece = [float(c)], [0.0 - float(a)], [0.0 - 2.0 * float(b)]
        if not all(math.isfinite(x[0]) for x in piece):
            raise DomainError("weight coefficients must be finite")
        return RadialWeight(kind, np.array([0.0, math.inf]), *map(np.array, piece))

    @staticmethod
    def constant(c: float = 0.0) -> "RadialWeight":
        return RadialWeight._one_piece("constant", c, 0.0, 0.0)

    @staticmethod
    def linear(a: float) -> "RadialWeight":
        """phi(t) = -a t."""
        return RadialWeight._one_piece("linear", 0.0, a, 0.0)

    @staticmethod
    def quadratic(a: float, b: float) -> "RadialWeight":
        """phi(t) = -a t - b t^2."""
        return RadialWeight._one_piece("quadratic", 0.0, a, b)

    @staticmethod
    def tabulated(t, phi) -> "RadialWeight":
        t = np.asarray(t, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if t.ndim != 1 or t.shape != phi.shape or t.size < 4:
            raise DomainError("tabulated weight needs matching 1-D arrays with >= 4 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(phi))):
            raise DomainError("tabulated weight samples must be finite")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise DomainError("tabulated weight grid must start at 0 and increase strictly")
        dphi, h = np.gradient(phi, t), np.diff(t)
        steps = np.cumsum(0.5 * h * (dphi[:-1] + dphi[1:]))   # exact: phi' is linear
        return RadialWeight("tabulated", t, np.r_[phi[0], phi[0] + steps],
                            dphi, np.diff(dphi) / h)

    # -- evaluation ---------------------------------------------------
    def _on_grid(self, t) -> np.ndarray:
        """t as an array; a table refuses t off its grid, and the one piece
        of a closed form holds everywhere."""
        t, x = np.asarray(t, dtype=float), self.grid_t
        if x.size > 2:
            pad = 1e-12 * max(1.0, abs(x[-1]))
            if not np.all((t >= x[0] - pad) & (t <= x[-1] + pad)):
                raise DomainError(f"tabulated weight queried outside its grid [{x[0]}, {x[-1]}]")
        return t

    def _piece(self, t):
        """The index j of the piece of t, t_j <= t < t_{j+1} (the last one
        also at its end), and u = t - t_j: j = 0 and u = t for a single
        piece, else j is np.interp of the piece numbers, floored."""
        t, x = self._on_grid(t), self.grid_t
        if x.size == 2:
            return 0, t
        j = np.interp(t, x[:-1], np.arange(x.size - 1.0)).astype(np.intp)
        return j, t - x[j]

    def phi(self, t):
        j, u = self._piece(t)
        out = self.grid_phi[j] + u * (self.grid_dphi[j] + u * (0.5 * self.grid_d2phi[j]))
        return out if out.ndim else float(out)

    def phi_prime(self, t):
        """phi' at t, linear on each piece: a table's is np.interp of its
        node values, whose slopes are grid_d2phi."""
        t, x = self._on_grid(t), self.grid_t
        out = (np.interp(t, x, self.grid_dphi) if x.size > 2
               else self.grid_dphi[0] + self.grid_d2phi[0] * t)
        return out if out.ndim else float(out)

    @property
    def label(self) -> str:
        # -a and -b with their sign; a zero a or b is +0.0, so it prints -0
        c, a, b = self.grid_phi[0], 0.0 - self.grid_dphi[0], 0.0 - 0.5 * self.grid_d2phi[0]
        return {"constant": f"const({c:g})", "linear": f"{-a:+g}*t",
                "quadratic": f"{-a:+g}*t{-b:+g}*t^2"}.get(
                    self.kind, f"tabulated[{self.grid_t.size}]")


def validate_property_i(w: RadialWeight, t_max: float) -> None:
    """Raise ``AdmissibilityError`` unless phi is non-increasing and concave
    on [0, t_max].

    Property I is the hypothesis of the ball comparison, so every solve and
    report checks it and none goes on without it.  The check is the same
    for every weight: phi' is linear and phi'' constant on each piece, so
    max phi' is at 0, t_max or a node between, and max phi'' is over the
    pieces that meet [0, t_max].  A closed form is decided exactly (a >= 0
    and b >= 0, since phi' = -a - 2b t is then a sum of non-positive terms);
    a table is allowed ``property_tol``.  A table ending before t_max is a
    ``DomainError``.
    """
    if not 0 < t_max < math.inf:
        raise DomainError("t_max must be positive and finite")
    t = w.grid_t
    k = t.searchsorted(t_max)      # the pieces that meet [0, t_max]
    max_dp = float(np.max(w.phi_prime(np.concatenate((t[:k], (t_max,))))))
    max_d2p = float(np.max(w.grid_d2phi[:k]))
    # a closed form gets no tolerance; a table's is property_tol, widened to
    # the roundoff floor of its twice-differenced values (~eps/h^2; 0 on an
    # infinite piece), which is worked out only past property_tol
    worst = max(max_dp, max_d2p)
    tol = DEFAULT_CONFIG.property_tol if t.size > 2 else 0.0
    if worst > tol and worst > (
            32.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(w.grid_phi))))
            / np.min(np.diff(t)) ** 2):
        raise AdmissibilityError(
            "weight fails Property I (non-increasing, concave) on "
            f"[0, {t_max:.3g}]: max phi' = {max_dp:.3e}, "
            f"max phi'' = {max_d2p:.3e}")


# ---------------------------------------------------------------------------
# weighted ball measures
# ---------------------------------------------------------------------------

def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 2:
        raise DomainError("need n >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# Embedded Gauss-Legendre pair on [-1, 1]: the 8 nodes, then the 16 nodes.
_G8, _G16 = (np.polynomial.legendre.leggauss(m) for m in (8, 16))
_NODES = np.concatenate([_G8[0], _G16[0]])
# bisections allowed beyond the first panels; a divergent integrand uses them up
_SPLIT_LIMIT = 200


def ball_weighted_volume(form: SpaceForm, w: RadialWeight, R: float,
                         fn=None) -> float | list[float]:
    """int_{B_R} fn(t) dmu over the geodesic ball of radius R about the
    origin; ``fn`` maps distance arrays to values (default 1, the weighted
    volume), or to a stack of k integrands, shape (k, m), for a list of k
    integrals.

    [0, R] is cut at every node of the weight, so the integrand is smooth on
    each panel, and every panel gets the 16-point Gauss rule with its
    distance from the 8-point rule as error estimate.  Panels are
    bisected until, for every integrand, those estimates sum to at most
    max(abstol, 1e-12 |value|); a panel is split when any integrand needs it.
    """
    if not 0 < R < math.inf:
        raise DomainError("ball radius must be positive and finite")
    _check_radial_arg(form, R)
    edges = np.concatenate((w.grid_t[:w.grid_t.searchsorted(R)], (R,)))   # grid_t[0] = 0
    stacked = False

    def panels(a, b):
        nonlocal stacked
        half = 0.5 * (b - a)
        t = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
        f = s_kappa(form, t) ** (form.dim - 1) * np.exp(-w.phi(t))
        if fn is not None:
            vals = np.asarray(fn(t.ravel()))
            stacked = vals.ndim == 2
            f = vals.reshape(-1, *t.shape) * f
        else:
            f = f[None]
        if not np.all(np.isfinite(f)):
            raise QuadratureError("ball integrand is not finite")
        fine = half * (f[..., 8:] @ _G16[1])
        return fine, np.abs(fine - half * (f[..., :8] @ _G8[1]))

    a, b = edges[:-1], edges[1:]
    val, err = panels(a, b)
    while a.size < edges.size + _SPLIT_LIMIT:
        tol = np.maximum(DEFAULT_CONFIG.quadrature_abstol,
                         1e-12 * np.abs(val.sum(axis=1)))
        if np.all(err.sum(axis=1) <= tol):
            out = unit_sphere_area(form.dim) * val.sum(axis=1)
            return out.tolist() if stacked else float(out[0])
        split = np.any(err > (tol / a.size)[:, None], axis=0)
        mid = 0.5 * (a[split] + b[split])
        lo, hi = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        v, e = panels(lo, hi)
        a, b = np.concatenate([a[~split], lo]), np.concatenate([b[~split], hi])
        val = np.concatenate([val[:, ~split], v], axis=1)
        err = np.concatenate([err[:, ~split], e], axis=1)
    raise QuadratureError(f"quadrature error estimate {err.sum(axis=1).max():.3e} "
                          f"exceeds tolerance after {_SPLIT_LIMIT} bisections")


def ball_boundary_weighted_measure(form: SpaceForm, w: RadialWeight,
                                   R: float) -> float:
    """Weighted surface measure of the geodesic sphere of radius R; one
    that under- or overflows is a ``QuadratureError``, as an integrand that
    does is for ``ball_weighted_volume``."""
    if not 0 < R < math.inf:
        raise DomainError("ball radius must be positive and finite")
    sr = s_kappa(form, R)
    out = unit_sphere_area(form.dim) * sr ** (form.dim - 1) * math.exp(-w.phi(R))
    if not 0 < out < math.inf:
        raise QuadratureError("weighted boundary measure is not positive and finite")
    return out


# ---------------------------------------------------------------------------
# Poincare-disk bookkeeping (curvature -1 model in the unit disk)
# ---------------------------------------------------------------------------

def poincare_distance(x) -> float | np.ndarray:
    """Hyperbolic distance from the origin of a point in the open unit disk.

    Accepts a single point of shape (2,) or an array of points (..., 2).
    """
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    if np.any(r >= 1.0):
        raise DomainError("point must lie strictly inside the unit disk")
    out = np.log((1.0 + r) / (1.0 - r))
    return out if out.ndim else float(out)


def conformal_factor(x) -> float | np.ndarray:
    """Poincare metric factor rho(x) = 2 / (1 - |x|^2)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 >= 1.0):
        raise DomainError("point must lie strictly inside the unit disk")
    out = 2.0 / (1.0 - r2)
    return out if out.ndim else float(out)
