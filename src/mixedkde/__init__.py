"""Product-kernel density estimation under dominating mixed smoothness."""

from .quadrature import Box, QuadRule, integrate, lp_norm
from .kernels import UnivariateKernel, build_order_kernel, moment, verify_order
from .product import ProductKernel, tensor_kernel, verify_class
from .sobolev import SmoothnessSpec, index_set, sobolev_norm
from .bumps import bump_k, g_function, lambda_value
from .densities import Density, tensor_bump_density, plateau_density
from .lower_bound import (FamilyParams, LowerBoundFamily, InfeasibleParameters,
                          vg_code, choose_parameters, build_family,
                          family_distance, chi2_affinity, family_report,
                          verify_lower_hypotheses)
from .estimator import KdeModel, bandwidth_rule, kde_on_grid, bias_lp
from .risk import (ExperimentConfig, RiskReport, rate_exponent, mc_risk,
                   fit_rate, cell_seed)

__version__ = "0.1.0"
