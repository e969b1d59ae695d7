"""Interior Reissner-Nordstrom spacetime as a multiply warped product.

Closed-form curvature, a quadrature-defined coordinate map, a tensor
oracle on exact Taylor-jet derivatives, and a perfect-fluid reduction,
cross validated against each other. Geometrized units G = c = 1 throughout.
"""

from .errors import ConvergenceError, DomainError, ExtremalError, SingularMetricError
from .fluid import FluidReport, FluidResiduals, fluid_report
from .oracle import CurvaturePoint, MetricField, ricci_at
from .reissner_nordstrom import BlackHoleParams, HorizonPair, horizons, interior_grid, \
    lapse_squared, mu_closed_form, mu_closed_form_sqrt, mu_of_r, r_of_mu, ricci_closed_form, \
    static_chart, warp_state, warped_chart
from .warped import RicciDiag, WarpState, ricci_from_warps

__all__ = [
    "BlackHoleParams",
    "ConvergenceError",
    "CurvaturePoint",
    "DomainError",
    "ExtremalError",
    "FluidReport",
    "FluidResiduals",
    "HorizonPair",
    "MetricField",
    "RicciDiag",
    "SingularMetricError",
    "WarpState",
    "fluid_report",
    "horizons",
    "interior_grid",
    "lapse_squared",
    "mu_closed_form",
    "mu_closed_form_sqrt",
    "mu_of_r",
    "r_of_mu",
    "ricci_at",
    "ricci_closed_form",
    "ricci_from_warps",
    "static_chart",
    "warp_state",
    "warped_chart",
]

__version__ = "0.1.0"
