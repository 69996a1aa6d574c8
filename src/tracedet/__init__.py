"""tracedet: exact construction and verification of determinant/Pfaffian
identities and the SL(2) trace identities they induce."""

from .exactpoly import BETA, LAMBDA, Polynomial, PolyVar, entry
from .symmat import (
    EVEN_CORRECTED,
    ODD_CORRECTED,
    PolyMatrix,
    det_dp,
    det_perm_oracle,
    det_signed_perm_expansion,
    matching_sign,
    perfect_matchings,
    pfaffian,
    pfaffian_split,
)
from .identbuild import (
    COR5,
    COR6,
    THM1,
    THM3,
    THM7,
    apply_specialization,
    build_inner_minor,
    build_thm1,
    build_thm3,
)
from .sl2exact import (
    GaussianRational,
    Mat2,
    build_magnus_matrices,
    build_thm2_D,
    exact_det,
    left_kernel,
    random_sl2_gaussian,
    random_sl2z,
    trace_relation_check,
)
from .verify import (
    VerificationReport,
    verify_magnus_numeric,
    verify_magnus_original,
    verify_thm1,
    verify_thm2,
    verify_thm3_family,
    verify_trace_relation,
)

__all__ = [
    "BETA", "LAMBDA", "Polynomial", "PolyVar", "entry",
    "EVEN_CORRECTED", "ODD_CORRECTED", "PolyMatrix",
    "det_dp", "det_perm_oracle", "det_signed_perm_expansion",
    "matching_sign", "perfect_matchings", "pfaffian", "pfaffian_split",
    "COR5", "COR6", "THM1", "THM3", "THM7",
    "apply_specialization", "build_inner_minor", "build_thm1", "build_thm3",
    "GaussianRational", "Mat2", "build_magnus_matrices", "build_thm2_D",
    "exact_det", "left_kernel", "random_sl2_gaussian", "random_sl2z",
    "trace_relation_check",
    "VerificationReport", "verify_magnus_numeric", "verify_magnus_original",
    "verify_thm1", "verify_thm2", "verify_thm3_family", "verify_trace_relation",
]
