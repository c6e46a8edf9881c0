"""Steklov eigenvalues of the weighted (Witten) Laplacian.

Radial shooting for geodesic balls, P1 finite elements for planar and
axisymmetric domains, and a verification harness for the ball-maximization
(Brock-type) spectral isoperimetric inequalities under radial
non-increasing concave weights.
"""
from .config import DEFAULT_CONFIG, NumericsConfig
from .geometry import (AdmissibilityError, Curvature, DomainError,
                       QuadratureError, RadialWeight, SpaceForm,
                       ball_boundary_weighted_measure, ball_weighted_volume,
                       c_kappa, conformal_factor, poincare_distance, s_kappa,
                       unit_sphere_area, validate_property_i)
from .mesh2d import (Domain2D, MeridianDomain, MeshQualityError, TriMesh,
                     generate_mesh, refine)
from .radial import (BallSigma1, GHProfile, IntegrationError,
                     NonPositiveSolutionError, RadialSolution,
                     ball_gh_integrals, ball_spectrum, check_gh_monotonicity,
                     compute_gh, harmonic_multiplicity, sigma1_ball,
                     solve_mode)
from .spectrum import SteklovSpectrum
from .steklov2d import (AssembledSystem, FactorizationError, P1Level,
                        assemble, assemble_mode, domain_spectrum,
                        solve_spectrum)
from .verify import (ChainReport, SymmetryError,
                     VerificationReport, brock_report, convergence_study,
                     match_radius, proof_chain_check, rearrangement_check,
                     richardson)

__version__ = "0.1.0"
