"""The fixed numerical tolerances of the pipeline.

Every tolerance used anywhere is declared once here, in the single frozen
``DEFAULT_CONFIG``, and read where it is used; none can be overridden, so
no setting can loosen a check or hide a finding.  Reports embed the values
verbatim (``to_dict``) under ``config.tolerances``.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class NumericsConfig:
    # radial ODE integration
    integrator_rtol: float = 1e-10
    series_start_factor: float = 1e-4   # t0 = factor * R
    report_points: int = 2048

    # 1-D quadrature for weighted ball measures
    quadrature_abstol: float = 1e-12

    # Property I admissibility check
    property_tol: float = 1e-12

    # shooting / integral-identity cross check
    identity_warn_tol: float = 1e-6

    # meshing & FEM
    # NOTE: the polar construction puts triangles of apex angle 360/N deg at
    # the fan, so a 15 deg floor would reject every mesh with N > 24.  All
    # polar-mesh angles stay below 90 deg (the bound that actually governs
    # P1 accuracy), hence the permissive floor; a fan of more than 360
    # sectors falls below it.
    min_angle_deg: float = 1.0
    hyperbolic_margin: float = 0.02          # domain must satisfy |x| <= 1 - margin
    eigen_rtol: float = 1e-14     # block Krylov residual over mu; sets trace accuracy

    # inequality verification
    slack_floor: float = 1e-3     # relative floor for inequality slack
    equality_floor: float = 1e-3  # absolute floor for equality detection
    radius_match_rtol: float = 1e-10
    radius_max: float = 50.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_CONFIG = NumericsConfig()
