"""Finite-range decomposition of Green's functions and multiscale Gaussian fields.

The package decomposes inverses of discrete Dirichlet-form generators
(lattice operators, weighted-graph Laplacians, their killed and resolvent
variants) into integrals of positive semi-definite kernels with exact finite
range, and samples the associated Gaussian free fields scale by scale.
"""

from .mollifier import (BumpProfile, Mollifier, build_default_profile,
                        build_mollifier, default_mollifier, normalization_constant)
from .weights import (ContinuousWeightFamily, DiscreteWeightFamily, ScalePlan,
                      WeightCheckReport, approximation_rate,
                      chebyshev_coefficients, check_decomposition_identity,
                      decay_constants, default_scale_plan,
                      eval_discrete_weight_direct, reconstruct_green,
                      wave_identity_max_residual)
from .lattice import (LatticeKernel, LatticeSpec, SymbolTable, WrapAroundError,
                      build_symbol_table, continuum_kernel, decay_fit,
                      discrete_continuum_gap, lattice_kernel,
                      mass_family_sweep)
from .graphs import (GraphOperator, ScaleBlock, WeightedGraph, chebyshev_apply,
                     cycle_graph, killed_green_consistency, scale_blocks,
                     two_vertex_graph)
from .sampler import (covariance_report, lag_covariance_report, sample_graph,
                      sample_torus)

__all__ = [
    "BumpProfile", "Mollifier", "build_default_profile", "build_mollifier",
    "default_mollifier", "normalization_constant",
    "ContinuousWeightFamily", "DiscreteWeightFamily", "ScalePlan",
    "WeightCheckReport", "approximation_rate", "chebyshev_coefficients",
    "check_decomposition_identity", "decay_constants", "default_scale_plan",
    "eval_discrete_weight_direct", "reconstruct_green", "wave_identity_max_residual",
    "LatticeKernel", "LatticeSpec", "SymbolTable", "WrapAroundError",
    "build_symbol_table", "continuum_kernel", "decay_fit",
    "discrete_continuum_gap", "lattice_kernel", "mass_family_sweep",
    "GraphOperator", "ScaleBlock", "WeightedGraph", "chebyshev_apply",
    "cycle_graph", "killed_green_consistency", "scale_blocks", "two_vertex_graph",
    "covariance_report", "lag_covariance_report", "sample_graph", "sample_torus",
]

__version__ = "0.1.0"
