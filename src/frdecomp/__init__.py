"""Finite-range decomposition of Green's functions and multiscale Gaussian fields.

The package decomposes inverses of discrete Dirichlet-form generators
(lattice operators, weighted-graph Laplacians, their killed and resolvent
variants) into integrals of positive semi-definite kernels with exact finite
range, and samples the associated Gaussian free fields scale by scale.
"""

from .mollifier import (BumpProfile, Mollifier, Normalization,
                        build_default_profile, build_mollifier,
                        default_mollifier, normalization_constant)
from .weights import (ContinuousWeightFamily, DiscreteWeightFamily, ScalePlan,
                      WeightCheckReport, approximation_rate,
                      chebyshev_coefficients, check_decomposition_identity,
                      decay_constants, default_scale_plan, eval_discrete_weight,
                      eval_discrete_weight_direct, wave_identity_max_residual)
from .lattice import (LatticeKernel, LatticeSpec, SymbolTable, WrapAroundError,
                      build_symbol_table, continuum_kernel, decay_fit,
                      discrete_continuum_gap, lattice_kernel,
                      mass_family_sweep, reconstruct_torus_green,
                      stencil_operator)
from .graphs import (GraphOperator, ScaleBlock, WeightedGraph, chebyshev_apply,
                     cycle_graph, killed_green_consistency, reconstruct_green,
                     scale_block, two_vertex_graph)
from .sampler import covariance_report, sample_graph, sample_torus

__all__ = [
    "BumpProfile", "Mollifier", "Normalization", "build_default_profile",
    "build_mollifier", "default_mollifier", "normalization_constant",
    "ContinuousWeightFamily", "DiscreteWeightFamily", "ScalePlan",
    "WeightCheckReport", "approximation_rate", "chebyshev_coefficients",
    "check_decomposition_identity", "decay_constants", "default_scale_plan",
    "eval_discrete_weight", "eval_discrete_weight_direct",
    "wave_identity_max_residual",
    "LatticeKernel", "LatticeSpec", "SymbolTable", "WrapAroundError",
    "build_symbol_table", "continuum_kernel", "decay_fit",
    "discrete_continuum_gap", "lattice_kernel", "mass_family_sweep",
    "reconstruct_torus_green", "stencil_operator",
    "GraphOperator", "ScaleBlock", "WeightedGraph", "chebyshev_apply",
    "cycle_graph", "killed_green_consistency", "reconstruct_green",
    "scale_block", "two_vertex_graph",
    "covariance_report", "sample_graph", "sample_torus",
]

__version__ = "0.1.0"
