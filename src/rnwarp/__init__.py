"""Interior Reissner-Nordstrom spacetime as a multiply warped product.

Closed-form curvature, a quadrature-defined coordinate map, a tensor
oracle on exact Taylor-jet derivatives, and a perfect-fluid reduction,
cross validated against each other. Geometrized units G = c = 1 throughout.
"""

from .calculus import DEFAULT_TOL, Interval, Tolerance, derivative, find_root_bracketed, \
    integrate_endpoint_singular
from .errors import BracketError, ConvergenceError, DomainError, ExtremalError, \
    SingularMetricError
from .fluid import FluidReport, FluidResiduals, fluid_report
from .oracle import CurvaturePoint, MetricField, ricci_at
from .reissner_nordstrom import BlackHoleParams, HorizonPair, horizons, interior_grid, \
    lapse_squared, mu_closed_form, mu_closed_form_sqrt, mu_of_r, r_of_mu, ricci_closed_form, \
    static_chart, warp_state, warped_chart
from .warped import RicciDiag, WarpState, ricci_from_warps, scalar_from_ricci

__all__ = [
    "BlackHoleParams",
    "BracketError",
    "ConvergenceError",
    "CurvaturePoint",
    "DEFAULT_TOL",
    "DomainError",
    "ExtremalError",
    "FluidReport",
    "FluidResiduals",
    "HorizonPair",
    "Interval",
    "MetricField",
    "RicciDiag",
    "SingularMetricError",
    "Tolerance",
    "WarpState",
    "derivative",
    "find_root_bracketed",
    "fluid_report",
    "horizons",
    "integrate_endpoint_singular",
    "interior_grid",
    "lapse_squared",
    "mu_closed_form",
    "mu_closed_form_sqrt",
    "mu_of_r",
    "r_of_mu",
    "ricci_at",
    "ricci_closed_form",
    "ricci_from_warps",
    "scalar_from_ricci",
    "static_chart",
    "warp_state",
    "warped_chart",
]

__version__ = "0.1.0"
