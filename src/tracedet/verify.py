"""Identity checkers: residual-based symbolic verification plus seeded exact
numeric trials, producing structured reports.

A symbolic identity is a list of (coefficient, matrix) terms: the check
computes the residual sum of c * det M and asserts it is literally empty; a
failure carries the residual, or both engines' determinants when they
disagree.  A numeric identity is a check run on seeded cases; a failure's
witness holds the case tag, the samples m and M, and the check's findings,
which is enough to reproduce it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .exactpoly import BETA, LAMBDA, Polynomial, _add_product, entry
from .identbuild import (
    COR5,
    COR6,
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
    mat2_to_json,
    mat_mul_vec_left,
    gaussian_to_json,
    random_sl2_gaussian,
    random_sl2z,
    trace_matrix,
    trace_relation_check,
    DEFAULT_WORD_LEN,
)
from .symmat import (
    DET_DP_SIZE_BOUND,
    DET_PERM_SIZE_BOUND,
    OddSizeError,
    PolyMatrix,
    det_dp,
    det_perm_oracle,
    pfaffian_split,
)

PASS = "PASS"
FAIL = "FAIL"

SL2Z = "sl2z"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class Sizes:
    """The sizes n an identity is stated for: n >= low, and n even when
    ``even`` is set.  ``sweep`` is what the CLI runs when no --n is given
    (cut at --max-n), and ``high`` bounds what one command line may ask for;
    it limits cost, not validity, so only the CLI checks it."""

    sweep: tuple[int, ...]
    low: int
    high: int
    even: bool = False


# det_dp refuses matrices above DET_DP_SIZE_BOUND: thm1's A is (n+1)x(n+1),
# every other symbolic family's largest matrix is n x n.  The numeric costs
# were measured on one 2.1 GHz Xeon core (Python 3.11).
SIZES: dict[str, Sizes] = {
    "thm1": Sizes(tuple(range(0, 7)), low=0, high=DET_DP_SIZE_BOUND - 1),
    "thm3": Sizes(tuple(range(1, 7)), low=1, high=DET_DP_SIZE_BOUND),
    "cor5": Sizes(tuple(range(2, 7)), low=1, high=DET_DP_SIZE_BOUND),
    "cor6": Sizes((2, 4, 6), low=2, high=DET_DP_SIZE_BOUND, even=True),
    "thm7": Sizes((2, 4, 6), low=2, high=DET_DP_SIZE_BOUND, even=True),
    # One magnus trial took 0.16 s at n = 16 and 0.34 s at n = 24 (thm1's
    # matrices evaluated at a trace point and three exact determinants).
    "magnus": Sizes(tuple(range(1, 7)), low=1, high=24),
    # det D = 0 is asserted from n = 5 on; below, one determinant is
    # reported.  One random-sign trial took 0.11 s at n = 16 and 0.25 s at
    # n = 24.
    "thm2": Sizes((5, 6), low=1, high=24),
}


def check_size(identity: str, n: int) -> None:
    """Raise OddSizeError for an odd n of an even-only identity, and
    ValueError for an n below the identity's smallest size."""
    sizes = SIZES[identity]
    need = f"{identity} needs {'even ' if sizes.even else ''}n >= {sizes.low}, got {n}"
    if sizes.even and n % 2:
        raise OddSizeError(need)
    if n < sizes.low:
        raise ValueError(need)


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
    terms: list[tuple[int | Polynomial, PolyMatrix]],
    extra: Polynomial | None = None,
) -> VerificationReport:
    """The identity sum(c * det M for c, M in terms) + extra = 0, checked by
    computing the residual and asserting it is literally empty."""
    dets, oracle_dets = _dets_dual([m for _, m in terms])
    params = dict(params)
    params["engines"] = "dp+perm" if oracle_dets is not None else "dp"
    if oracle_dets is not None:
        witness = _engine_mismatch_witness(dets, oracle_dets)
        if witness is not None:
            return _finish(identity, n, params, started, False, witness=witness)
    residual = Polynomial.zero()
    if extra is not None:
        _add_product(residual, 1, extra)
    for (coeff, _), det in zip(terms, dets):
        if isinstance(coeff, int):
            _add_product(residual, coeff, det)
        else:
            _add_product(residual, 1, coeff, det)
    return _finish(identity, n, params, started, residual.is_zero(), residual=residual)


def verify_thm1(n: int, corrupt_sign: bool = False) -> VerificationReport:
    """Residual check of det A - (-1)^n det B - det C = 0 on the thm1 family.

    ``corrupt_sign`` is the mutation-sensitivity hook: it flips the sign of
    one entry of B so the verification must fail with a nonzero witness.
    """
    started = time.perf_counter()
    check_size("thm1", n)
    a_mat, b_mat, c_mat = build_thm1(n)
    params: dict = {}
    if corrupt_sign:
        if n < 1:
            raise ValueError("mutation hook needs n >= 1")
        b_mat = b_mat.with_entry(1, 1, -b_mat.entry(1, 1))
        params["corrupt_sign"] = True
    terms = [(1, a_mat), (-((-1) ** n), b_mat), (-1, c_mat)]
    return _symbolic_residual_report("thm1", n, params, started, terms)


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
    check_size(which, n)
    matrices = build_thm3(n)
    extra = None
    if which == THM3:
        a_mat, b_mat, c_mat = matrices
        beta = Polynomial.of_var(BETA)
        a11 = Polynomial.of_var(entry(1, 1))
        inner = build_inner_minor(n)
        terms = [(1, a_mat), (-beta, b_mat), (-beta, c_mat), (2 * beta - a11, inner)]
    elif which == COR5:
        a_mat, b_mat, c_mat = apply_specialization(matrices, COR5)
        terms = [(1, a_mat), (-1, b_mat), (-1, c_mat)]
    elif which == COR6:
        a_mat, b_mat, c_mat = apply_specialization(matrices, COR6)
        terms = [(1, a_mat), (1, b_mat), (1, c_mat)]
    else:  # thm7: skew specialization with lambda = 1.
        a_skew, _, c_skew = (
            m.substitute({LAMBDA: 1}) for m in apply_specialization(matrices, COR6)
        )
        pf_even, pf_odd = pfaffian_split(a_skew)
        terms = [(1, c_skew)]
        extra = 2 * pf_even * pf_odd
    return _symbolic_residual_report(which, n, {}, started, terms, extra)


def _sample_mat(generator: str, seed: int) -> Mat2:
    if generator == SL2Z:
        return random_sl2z(DEFAULT_WORD_LEN, seed)
    if generator == GAUSSIAN:
        return random_sl2_gaussian(seed)
    raise ValueError(f"unknown generator {generator!r}")


def _trials(
    generator: str, master_seed: int, n: int, trials: int, count: int | None = None
) -> Iterator[tuple[dict, list[Mat2], list[Mat2]]]:
    """Trials 0..trials-1 as numeric cases: the tag {"trial": t}, then
    m_1..m_c and M_1..M_c (c = count, default n) from draws k = 0..2c-1,
    each seeded by derive_seed(master_seed, n, t, k)."""
    count = n if count is None else count
    for t in range(trials):
        draws = [_sample_mat(generator, derive_seed(master_seed, n, t, k)) for k in range(2 * count)]
        yield {"trial": t}, draws[:count], draws[count:]


def _gaussians(**values: GaussianRational) -> dict:
    return {name: gaussian_to_json(x) for name, x in values.items()}


def _numeric_report(
    identity: str,
    n: int | None,
    params: dict,
    started: float,
    cases: Iterable[tuple],
    check: Callable[..., dict | None],
) -> VerificationReport:
    """Run ``check(ms, big, *rest)`` on each case ``(tag, ms, big, *rest)`` in
    turn.  ``check`` returns None when the case holds, else its findings; the
    first failed case's tag, samples and findings make the witness."""
    for tag, ms, big, *rest in cases:
        findings = check(ms, big, *rest)
        if findings is not None:
            witness = {
                **tag,
                "m": [mat2_to_json(x) for x in ms],
                "M": [mat2_to_json(x) for x in big],
                **findings,
            }
            return _finish(identity, n, params, started, False, witness=witness)
    return _finish(identity, n, params, started, True)


def verify_magnus_numeric(
    n: int, trials: int, master_seed: int, generator: str = SL2Z
) -> VerificationReport:
    """Exact trials of det A = det B + det C on sampled SL(2) matrices
    (B[i][j] = -tr(m_i M_j), C[i][j] = tr(m_i M_j^-1)), plus the vanishing
    clauses det A = 0 for n >= 4 and det B = det C = 0 for n >= 5."""
    started = time.perf_counter()
    check_size("magnus", n)
    params = {"trials": trials, "seed": master_seed, "generator": generator,
              "formula": "det A = det B + det C"}

    def check(ms: list[Mat2], big: list[Mat2]) -> dict | None:
        det_a, det_b, det_c = (exact_det(x) for x in build_magnus_matrices(ms, big))
        if det_a == det_b + det_c and (n < 4 or not det_a) and (n < 5 or not (det_b or det_c)):
            return None
        return _gaussians(det_A=det_a, det_B=det_b, det_C=det_c)

    cases = _trials(generator, master_seed, n, trials)
    return _numeric_report("magnus", n, params, started, cases, check)


def _magnus_original_check(ms: list[Mat2], big: list[Mat2]) -> dict | None:
    det_cross = exact_det(trace_matrix(ms, big))
    det_cross_inv = exact_det(trace_matrix(ms, big, invert_right=True))
    det_mm = exact_det(trace_matrix(ms, ms))
    det_big = exact_det(trace_matrix(big, big))
    if not (det_cross + det_cross_inv) and det_mm * det_big == det_cross * det_cross:
        return None
    return _gaussians(det_cross=det_cross, det_cross_inv=det_cross_inv,
                      det_mm=det_mm, det_MM=det_big)


def verify_magnus_original(trials: int, master_seed: int) -> VerificationReport:
    """Exact trials of the two four-by-four trace identities
    det(tr m_i M_j) + det(tr m_i M_j^-1) = 0 and
    det(tr m_i m_j) * det(tr M_i M_j) = det(tr m_i M_j)^2."""
    started = time.perf_counter()
    params = {"trials": trials, "seed": master_seed}
    cases = _trials(SL2Z, master_seed, 4, trials)
    return _numeric_report("magnus-original", 4, params, started, cases, _magnus_original_check)


def _thm2_check(ms: list[Mat2], big: list[Mat2], eps: tuple[int, ...]) -> dict | None:
    """None when det D = 0 and a left kernel vector of D re-verifies, else
    the findings."""
    d_mat = build_thm2_D(ms, big, eps)
    det_d = exact_det(d_mat)
    if det_d:
        return _gaussians(det_D=det_d)
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


def _exhaustive_sign_cases(master_seed: int, n: int) -> Iterator[tuple]:
    """All 2^n sign vectors over the one sample of trial 0."""
    _, ms, big = next(_trials(SL2Z, master_seed, n, 1))
    for eps in itertools.product((1, -1), repeat=n):
        yield {"case": f"eps={eps}", "eps": list(eps)}, ms, big, eps


def _random_sign_cases(master_seed: int, n: int, trials: int) -> Iterator[tuple]:
    """Trial t's sample with a sign vector seeded by derive_seed(master_seed, n, t, 2n)."""
    for tag, ms, big in _trials(SL2Z, master_seed, n, trials):
        t = tag["trial"]
        rng = random.Random(derive_seed(master_seed, n, t, 2 * n))
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        yield {"case": f"trial={t}", "eps": list(eps)}, ms, big, eps


def verify_thm2(
    n: int, trials: int, master_seed: int, eps_mode: str = "random"
) -> VerificationReport:
    """det D = 0 with D[i][j] = tr(m_i M_j^{eps_i}), asserted for n >= 5 and
    each zero accompanied by a re-verified left kernel vector.  For n < 5
    only the first case's determinant is computed and reported, never
    asserted.  ``exhaustive`` mode sweeps all 2^n sign vectors over a single
    seeded sample."""
    started = time.perf_counter()
    check_size("thm2", n)
    if eps_mode == "exhaustive":
        cases = _exhaustive_sign_cases(master_seed, n)
    elif eps_mode == "random":
        cases = _random_sign_cases(master_seed, n, trials)
    else:
        raise ValueError(f"unknown eps mode {eps_mode!r}")
    asserted = n >= 5
    # Only an asserted random-sign report runs ``trials`` cases: exhaustive
    # mode draws one sample, and below n = 5 one determinant is computed.
    params = {"trials": trials} if asserted and eps_mode == "random" else {}
    params.update(seed=master_seed, eps_mode=eps_mode, asserted=asserted)
    if asserted:
        report = _numeric_report("thm2", n, params, started, cases, _thm2_check)
        if report.passed and eps_mode == "exhaustive":
            report.params["cases"] = 2 ** n
        return report
    first = next(cases, None)
    if first is not None:
        _, ms, big, eps = first
        params["informational"] = True
        params["det_sample"] = gaussian_to_json(exact_det(build_thm2_D(ms, big, eps)))
    return _finish("thm2", n, params, started, True)


def verify_trace_relation(
    trials: int, master_seed: int, generator: str = SL2Z
) -> VerificationReport:
    """tr(m M^-1) = tr(m) tr(M) - tr(m M) on seeded random pairs."""
    started = time.perf_counter()
    params = {"trials": trials, "seed": master_seed, "generator": generator}

    def check(ms: list[Mat2], big: list[Mat2]) -> dict | None:
        lhs, rhs = trace_relation_check(ms[0], big[0])
        return None if lhs == rhs else _gaussians(lhs=lhs, rhs=rhs)

    cases = _trials(generator, master_seed, 0, trials, count=1)
    return _numeric_report("trace", None, params, started, cases, check)
