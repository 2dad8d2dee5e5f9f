"""Scattered q-polynomials over even-degree tower fields, the linear sets
they cut out on a projective line, and the rank-metric codes they span."""

from .errors import (ScatpolyError, NonPrimeP, EvenP, TSmall,
                     ReducibleModulus, CtxMismatch, BadK, BadParams,
                     NotScattered, BadHypotheses, NotDisjointFromSigma,
                     FieldTooLarge)
from .fields import FieldSpec, FieldCtx, build_field
from .linpoly import LinPoly
from .scattered import (alpha_poly, beta_poly, build_psi, theorem_predicate,
                        ScatterVerdict, is_scattered_fibers,
                        is_scattered_ranks, shift_ranks, check_witness,
                        nonscattered_witness_search, BaerReport,
                        baer_partition_check)
from .linsets import (normalize_point, linear_set, linear_set_size,
                      known_family, inclusion_dickson,
                      coefficient_prefilter, Certificate, subspace_equivalent,
                      find_u1_equivalence, find_u2_equivalence,
                      valid_u2_deltas, pseudoregulus_test, lp_type_test)
from .geometry import (ProjSubspace, sigma_point, apply_sigma_point,
                       apply_sigma, intersect, join_point, gamma_k,
                       meets_sigma_orbit, intn, projection_slopes,
                       project_to_line, pseudoregulus_geometric_test,
                       orbit_subspace)
from .codes import (RankCode, build_code, RankDistribution,
                    rank_distribution, min_rank_distance, is_mrd,
                    adjoint_code, code_equivalent, IdealiserReport,
                    idealiser, count_new_codes)

__version__ = "0.1.0"

__all__ = [
    "ScatpolyError", "NonPrimeP", "EvenP", "TSmall", "ReducibleModulus",
    "CtxMismatch", "BadK", "BadParams", "NotScattered",
    "BadHypotheses", "NotDisjointFromSigma", "FieldTooLarge",
    "FieldSpec", "FieldCtx", "build_field",
    "LinPoly",
    "alpha_poly", "beta_poly", "build_psi", "theorem_predicate",
    "ScatterVerdict", "is_scattered_fibers", "is_scattered_ranks",
    "shift_ranks", "check_witness", "nonscattered_witness_search",
    "BaerReport", "baer_partition_check",
    "normalize_point", "linear_set", "linear_set_size",
    "known_family", "inclusion_dickson", "coefficient_prefilter", "Certificate",
    "subspace_equivalent", "find_u1_equivalence", "find_u2_equivalence",
    "valid_u2_deltas", "pseudoregulus_test", "lp_type_test",
    "ProjSubspace", "sigma_point", "apply_sigma_point", "apply_sigma",
    "intersect", "join_point", "gamma_k", "meets_sigma_orbit", "intn",
    "projection_slopes", "project_to_line", "pseudoregulus_geometric_test",
    "orbit_subspace",
    "RankCode", "build_code", "RankDistribution", "rank_distribution",
    "min_rank_distance", "is_mrd", "adjoint_code", "code_equivalent",
    "IdealiserReport", "idealiser", "count_new_codes",
]
