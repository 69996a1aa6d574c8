"""Identity checkers: residual-based symbolic verification plus seeded exact
numeric trials, producing structured reports.

A symbolic check computes the full left-minus-right polynomial and asserts
it is literally empty; failures carry the residual (or offending matrices)
as a reproducible witness.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable

from .exactpoly import BETA, LAMBDA, Polynomial, entry
from .identbuild import (
    COR5,
    COR6,
    THM3,
    THM7,
    IdentityFamily,
    apply_specialization,
    build_inner_minor,
    build_thm1,
    build_thm3,
)
from .sl2exact import (
    GRMatrix,
    Mat2,
    build_magnus_matrices,
    build_thm2_D,
    exact_det,
    left_kernel,
    mat2_to_json,
    mat_mul_vec_left,
    gaussian_to_json,
    random_sl2_gaussian,
    random_sl2z,
    trace_matrix,
    trace_relation_check,
    DEFAULT_WORD_LEN,
)
from .symmat import DET_PERM_SIZE_BOUND, PolyMatrix, det_dp, det_perm_oracle, pfaffian_split

PASS = "PASS"
FAIL = "FAIL"

SL2Z = "sl2z"
GAUSSIAN = "gaussian"

DEFAULT_RANGES: dict[str, tuple[int, ...]] = {
    "thm1": tuple(range(0, 7)),
    "thm3": tuple(range(1, 7)),
    "cor5": tuple(range(2, 7)),
    "cor6": (2, 4, 6),
    "thm7": (2, 4, 6),
    "magnus": tuple(range(1, 7)),
    "thm2": (5, 6),
}


@dataclass
class VerificationReport:
    """Outcome of one identity check; Fail reports always carry a witness."""

    identity: str
    n: int | None
    params: dict
    status: str
    residual: str | None = None
    witness: dict | None = None
    millis: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        out: dict = {
            "identity": self.identity,
            "n": self.n,
            "params": self.params,
            "status": self.status,
        }
        if self.residual is not None:
            out["residual"] = self.residual
        if self.witness is not None:
            out["witness"] = self.witness
        out["millis"] = self.millis
        return out


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable per-trial seed: sha256 of the master seed and trial indices."""
    tag = f"{master_seed}|" + "|".join(str(i) for i in indices)
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


def _finish(
    identity: str,
    n: int | None,
    params: dict,
    started: float,
    ok: bool,
    residual: Polynomial | None = None,
    witness: dict | None = None,
) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        n=n,
        params=params,
        status=PASS if ok else FAIL,
        residual=None if ok or residual is None else residual.to_text(),
        witness=None if ok else witness,
        millis=(time.perf_counter() - started) * 1000.0,
    )


def _dets_dual(matrices: list[PolyMatrix]) -> tuple[list[Polynomial], list[Polynomial] | None]:
    """Determinants of every matrix by the DP engine, and by the permutation
    oracle as well when every size is within its bound."""
    dp = [det_dp(m) for m in matrices]
    if all(m.size <= DET_PERM_SIZE_BOUND for m in matrices):
        return dp, [det_perm_oracle(m) for m in matrices]
    return dp, None


def _engine_mismatch_witness(dp: list[Polynomial], oracle: list[Polynomial]) -> dict | None:
    for idx, (x, y) in enumerate(zip(dp, oracle)):
        if x != y:
            return {
                "engine_mismatch": {
                    "matrix_index": idx,
                    "det_dp": x.to_text(),
                    "det_perm_oracle": y.to_text(),
                }
            }
    return None


def _symbolic_residual_report(
    identity: str,
    n: int,
    params: dict,
    started: float,
    matrices: list[PolyMatrix],
    combine: Callable[[list[Polynomial]], Polynomial],
) -> VerificationReport:
    dets, oracle_dets = _dets_dual(matrices)
    params = dict(params)
    params["engines"] = "dp+perm" if oracle_dets is not None else "dp"
    if oracle_dets is not None:
        witness = _engine_mismatch_witness(dets, oracle_dets)
        if witness is not None:
            return _finish(identity, n, params, started, False, witness=witness)
    residual = combine(dets)
    return _finish(identity, n, params, started, residual.is_zero(), residual=residual)


def verify_thm1(n: int, corrupt_sign: bool = False) -> VerificationReport:
    """Residual check of det A - (-1)^n det B - det C = 0 on the thm1 family.

    ``corrupt_sign`` is the mutation-sensitivity hook: it flips the sign of
    one entry of B so the verification must fail with a nonzero witness.
    """
    started = time.perf_counter()
    a_mat, b_mat, c_mat = build_thm1(n)
    if corrupt_sign:
        if n < 1:
            raise ValueError("mutation hook needs n >= 1")
        b_mat = b_mat.with_entry(1, 1, -b_mat.entry(1, 1))
    sign = 1 if n % 2 == 0 else -1

    def combine(dets: list[Polynomial]) -> Polynomial:
        det_a, det_b, det_c = dets
        return det_a - Polynomial.of_int(sign) * det_b - det_c

    params: dict = {}
    if corrupt_sign:
        params["corrupt_sign"] = True
    return _symbolic_residual_report("thm1", n, params, started, [a_mat, b_mat, c_mat], combine)


def verify_thm3_family(n: int, which: str = THM3) -> VerificationReport:
    """Residual checks for the thm3 family and its specializations.

    thm3: det A - beta*(det B + det C) - (a[1,1]-2*beta)*det(inner) = 0.
    cor5: det A - det B - det C = 0 after the symmetric specialization.
    cor6: det A + det B + det C = 0 after the skew specialization (even n).
    thm7: det C + 2*Pf_e(A)*Pf_o(A) = 0 in the skew case with lambda = 1.
    """
    started = time.perf_counter()
    if which not in (THM3, COR5, COR6, THM7):
        raise ValueError(f"unknown family member {which!r}")
    IdentityFamily(which, n)
    matrices = build_thm3(n)

    if which == THM3:
        beta = Polynomial.of_var(BETA)
        a11 = Polynomial.of_var(entry(1, 1))
        inner = build_inner_minor(n)

        def combine(dets: list[Polynomial]) -> Polynomial:
            det_a, det_b, det_c, det_inner = dets
            return det_a - beta * (det_b + det_c) - (a11 - 2 * beta) * det_inner

        return _symbolic_residual_report(
            "thm3", n, {}, started, [*matrices, inner], combine
        )

    if which == COR5:
        specialized = apply_specialization(matrices, COR5)

        def combine(dets: list[Polynomial]) -> Polynomial:
            det_a, det_b, det_c = dets
            return det_a - det_b - det_c

        return _symbolic_residual_report("cor5", n, {}, started, list(specialized), combine)

    if which == COR6:
        specialized = apply_specialization(matrices, COR6)

        def combine(dets: list[Polynomial]) -> Polynomial:
            det_a, det_b, det_c = dets
            return det_a + det_b + det_c

        return _symbolic_residual_report("cor6", n, {}, started, list(specialized), combine)

    # thm7: skew specialization with lambda = 1.
    a_skew, _, c_skew = (
        m.substitute({LAMBDA: 1}) for m in apply_specialization(matrices, COR6)
    )
    pf_even, pf_odd = pfaffian_split(a_skew)

    def combine(dets: list[Polynomial]) -> Polynomial:
        (det_c,) = dets
        return det_c + 2 * pf_even * pf_odd

    return _symbolic_residual_report("thm7", n, {}, started, [c_skew], combine)


def _sample_mat(generator: str, seed: int) -> Mat2:
    if generator == SL2Z:
        return random_sl2z(DEFAULT_WORD_LEN, seed)
    if generator == GAUSSIAN:
        return random_sl2_gaussian(seed)
    raise ValueError(f"unknown generator {generator!r}")


def _sample_pair(generator: str, master_seed: int, n: int, t: int) -> tuple[list[Mat2], list[Mat2]]:
    """The m_1..m_n and M_1..M_n of trial t at size n: draws k = 0..n-1 and
    k = n..2n-1, each seeded by derive_seed(master_seed, n, t, k)."""
    draws = [_sample_mat(generator, derive_seed(master_seed, n, t, k)) for k in range(2 * n)]
    return draws[:n], draws[n:]


def verify_magnus_numeric(
    n: int, trials: int, master_seed: int, generator: str = SL2Z
) -> VerificationReport:
    """Exact trials of det A = det B + det C on sampled SL(2) matrices
    (B[i][j] = -tr(m_i M_j), C[i][j] = tr(m_i M_j^-1)), plus the vanishing
    clauses det A = 0 for n >= 4 and det B = det C = 0 for n >= 5."""
    started = time.perf_counter()
    params = {"trials": trials, "seed": master_seed, "generator": generator,
              "formula": "det A = det B + det C"}
    if n < 1:
        raise ValueError("n must be >= 1")
    for t in range(trials):
        ms, big = _sample_pair(generator, master_seed, n, t)
        a_mat, b_mat, c_mat = build_magnus_matrices(ms, big)
        det_a = exact_det(a_mat)
        det_b = exact_det(b_mat)
        det_c = exact_det(c_mat)
        ok = det_a == det_b + det_c
        if ok and n >= 4:
            ok = not det_a
        if ok and n >= 5:
            ok = not det_b and not det_c
        if not ok:
            witness = {
                "trial": t,
                "m": [mat2_to_json(x) for x in ms],
                "M": [mat2_to_json(x) for x in big],
                "det_A": gaussian_to_json(det_a),
                "det_B": gaussian_to_json(det_b),
                "det_C": gaussian_to_json(det_c),
            }
            return _finish("magnus", n, params, started, False, witness=witness)
    return _finish("magnus", n, params, started, True)


def verify_magnus_original(trials: int, master_seed: int) -> VerificationReport:
    """Exact trials of the two four-by-four trace identities
    det(tr m_i M_j) + det(tr m_i M_j^-1) = 0 and
    det(tr m_i m_j) * det(tr M_i M_j) = det(tr m_i M_j)^2."""
    started = time.perf_counter()
    params = {"trials": trials, "seed": master_seed}
    for t in range(trials):
        ms, big = _sample_pair(SL2Z, master_seed, 4, t)
        det_mm_cross = exact_det(trace_matrix(ms, big))
        det_mm_inv = exact_det(trace_matrix(ms, big, invert_right=True))
        det_mm = exact_det(trace_matrix(ms, ms))
        det_big = exact_det(trace_matrix(big, big))
        additive_ok = not (det_mm_cross + det_mm_inv)
        product_ok = det_mm * det_big == det_mm_cross * det_mm_cross
        if not (additive_ok and product_ok):
            witness = {
                "trial": t,
                "m": [mat2_to_json(x) for x in ms],
                "M": [mat2_to_json(x) for x in big],
                "det_cross": gaussian_to_json(det_mm_cross),
                "det_cross_inv": gaussian_to_json(det_mm_inv),
                "det_mm": gaussian_to_json(det_mm),
                "det_MM": gaussian_to_json(det_big),
            }
            return _finish("magnus-original", 4, params, started, False, witness=witness)
    return _finish("magnus-original", 4, params, started, True)


def _check_kernel(d_mat: GRMatrix) -> dict | None:
    """None when a valid left kernel vector exists, else a witness dict."""
    v = left_kernel(d_mat)
    if v is None:
        return {"kernel": "none found"}
    if not any(v):
        return {"kernel": "zero vector returned"}
    product = mat_mul_vec_left(v, d_mat)
    if any(product):
        return {
            "kernel": "v*D nonzero",
            "v": [gaussian_to_json(x) for x in v],
            "vD": [gaussian_to_json(x) for x in product],
        }
    return None


def verify_thm2(
    n: int, trials: int, master_seed: int, eps_mode: str = "random"
) -> VerificationReport:
    """det D = 0 with D[i][j] = tr(m_i M_j^{eps_i}), asserted for n >= 5 and
    each zero accompanied by a re-verified left kernel vector.  For n < 5
    the determinant is only reported, never asserted.  ``exhaustive`` mode
    sweeps all 2^n sign vectors over a single seeded sample."""
    started = time.perf_counter()
    if eps_mode not in ("random", "exhaustive"):
        raise ValueError(f"unknown eps mode {eps_mode!r}")
    asserted = n >= 5
    params = {"trials": trials, "seed": master_seed, "eps_mode": eps_mode,
              "asserted": asserted}
    first_det = None

    def run_case(ms, big, eps, case_tag):
        nonlocal first_det
        d_mat = build_thm2_D(ms, big, eps)
        det_d = exact_det(d_mat)
        if first_det is None:
            first_det = det_d
        if not asserted:
            return None
        if det_d:
            return {
                "case": case_tag,
                "eps": list(eps),
                "det_D": gaussian_to_json(det_d),
                "m": [mat2_to_json(x) for x in ms],
                "M": [mat2_to_json(x) for x in big],
            }
        kernel_issue = _check_kernel(d_mat)
        if kernel_issue is not None:
            kernel_issue = dict(kernel_issue)
            kernel_issue.update({"case": case_tag, "eps": list(eps)})
            return kernel_issue
        return None

    if eps_mode == "exhaustive":
        ms, big = _sample_pair(SL2Z, master_seed, n, 0)
        for eps in itertools.product((1, -1), repeat=n):
            witness = run_case(ms, big, eps, f"eps={eps}")
            if witness is not None:
                return _finish("thm2", n, params, started, False, witness=witness)
        params["cases"] = 2 ** n
    else:
        for t in range(trials):
            ms, big = _sample_pair(SL2Z, master_seed, n, t)
            rng = random.Random(derive_seed(master_seed, n, t, 2 * n))
            eps = tuple(rng.choice((1, -1)) for _ in range(n))
            witness = run_case(ms, big, eps, f"trial={t}")
            if witness is not None:
                return _finish("thm2", n, params, started, False, witness=witness)
    if not asserted and first_det is not None:
        params["informational"] = True
        params["det_sample"] = gaussian_to_json(first_det)
    return _finish("thm2", n, params, started, True)


def verify_trace_relation(
    trials: int, master_seed: int, generator: str = SL2Z
) -> VerificationReport:
    """tr(m M^-1) = tr(m) tr(M) - tr(m M) on seeded random pairs."""
    started = time.perf_counter()
    params = {"trials": trials, "seed": master_seed, "generator": generator}
    for t in range(trials):
        m = _sample_mat(generator, derive_seed(master_seed, 0, t, 0))
        big = _sample_mat(generator, derive_seed(master_seed, 0, t, 1))
        lhs, rhs = trace_relation_check(m, big)
        if lhs != rhs:
            witness = {
                "trial": t,
                "m": mat2_to_json(m),
                "M": mat2_to_json(big),
                "lhs": gaussian_to_json(lhs),
                "rhs": gaussian_to_json(rhs),
            }
            return _finish("trace", None, params, started, False, witness=witness)
    return _finish("trace", None, params, started, True)
