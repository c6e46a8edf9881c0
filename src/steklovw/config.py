"""Shared numerical-tolerance knobs.

A single frozen dataclass is threaded through the solvers so that every
tolerance used anywhere in the pipeline is pinned in one place and can be
embedded verbatim into emitted reports.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class NumericsConfig:
    # radial ODE integration
    integrator_rtol: float = 1e-10
    integrator_method: str = "DOP853"
    series_start_factor: float = 1e-4   # t0 = factor * R
    report_points: int = 2048

    # 1-D quadrature for weighted ball measures
    quadrature_abstol: float = 1e-12

    # Property I admissibility check
    property_tol: float = 1e-12
    property_samples: int = 256

    # shooting / integral-identity cross check
    identity_warn_tol: float = 1e-6

    # meshing & FEM
    # NOTE: the polar construction puts triangles of apex angle 360/N deg at
    # the fan, so a 15 deg floor would reject every mesh with N > 24.  All
    # polar-mesh angles stay below 90 deg (the bound that actually governs
    # P1 accuracy), hence the permissive default; tighten via config if a
    # genuinely degenerate domain must be caught early.
    min_angle_deg: float = 1.0
    hyperbolic_margin: float = 0.02          # domain must satisfy |x| <= 1 - margin
    zero_mode_tol: float = 1e-8

    # inequality verification
    slack_floor: float = 1e-3     # relative floor for inequality slack
    equality_floor: float = 1e-3  # absolute floor for equality detection
    radius_match_rtol: float = 1e-10
    radius_max: float = 50.0

    def replace(self, **kw) -> "NumericsConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_CONFIG = NumericsConfig()
