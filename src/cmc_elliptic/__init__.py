"""Constant-mean-curvature rotation surfaces in E3 and Lorentz-Minkowski E13.

Profile curves and meshes for the three rotation families, exact reduction
of their radicand cubics to short Weierstrass form, a real-branch P-function
evaluator, and the derivative-chain engine that certifies the non-collapse
of d^k r/dx3^k.
"""

from .elliptic_reduction import (ReductionData, discriminant_poly,
                                 is_singular_value, reduce, reduction_report,
                                 singular_B)
from .errors import (AccuracyError, BranchError, CmcError, DomainError,
                     EmptyDomainError, NearPoleError, PoleError, RangeError,
                     SingularError, UnsupportedCaseError, UsageError)
from .profiles import (CmcParams, CurveSample, Family, SInterval, SurfaceMesh,
                       anchor, domain, hyperboloid_vertices, mean_curvature,
                       mesh, profile_point)
from .weierstrass import WpEvaluator
from .wp_chain import (ChainConfig, ChainTerm, chain_config, curve_from_wp,
                       differentiate_chain, eval_chain_term,
                       polynomiality_probe)

__all__ = [
    "AccuracyError", "BranchError", "ChainConfig", "ChainTerm", "CmcError",
    "CmcParams", "CurveSample", "DomainError", "EmptyDomainError", "Family",
    "NearPoleError", "PoleError", "RangeError", "ReductionData", "SInterval",
    "SingularError", "SurfaceMesh", "UnsupportedCaseError", "UsageError",
    "WpEvaluator", "anchor", "chain_config", "curve_from_wp",
    "differentiate_chain", "discriminant_poly", "domain", "eval_chain_term",
    "hyperboloid_vertices", "is_singular_value", "mean_curvature", "mesh",
    "polynomiality_probe", "profile_point", "reduce", "reduction_report",
    "singular_B",
]

__version__ = "0.1.0"
