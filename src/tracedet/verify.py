"""Identity checkers: residual-based symbolic verification plus seeded exact
numeric trials, producing structured reports.

IDENTITIES holds one row per CLI target: its sizes, the generators or sign
modes it runs, and its default trial count.  A symbolic identity is a list
of (coefficient, matrix) terms, checked in one pass: det_dp of every
matrix, then, when all are within the oracle's bound, det_perm_oracle of
each in turn, and last the residual sum of c * det M, which must be
literally empty, all in a monomial packing local to the identity (see
_exponent_bounds).  A failure carries the residual, or both engines'
determinants of the first matrix they disagree on, decoded to the global
packing.  A numeric identity is a check run on seeded cases, each trial
drawn from one generator seeded by its report's identity, seed and n (if
any) and the trial; a failure's witness holds the case tag, the samples m
and M, and the check's findings, which with the report reproduce it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .exactpoly import BETA, Polynomial, _add_product, _coerce, _local_packing, entry
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
GENERATORS = (SL2Z, GAUSSIAN)
EPS_MODES = ("random", "exhaustive")


@dataclass(frozen=True)
class Identity:
    """One CLI target, stated for n >= low (even n only when ``even``).
    ``sweep`` is what runs without --n (cut at --max-n; empty for a target
    that takes no size), and ``high`` bounds --n; it limits cost, not
    validity, so only the CLI checks it.  ``variants`` are the generators or
    sign modes the target runs, its default first; ``trials`` is its default
    trial count, None for a symbolic identity; ``vanishes`` a numeric target's
    clauses (det, n0), each saying the determinant named det is 0 for n >= n0."""

    sweep: tuple[int, ...]
    low: int
    high: int
    even: bool = False
    variants: tuple[str | None, ...] = (None,)
    trials: int | None = None
    vanishes: tuple[tuple[str, int], ...] = ()

    def asserts(self, n: int) -> bool:
        """Whether a clause holds at n."""
        return any(n >= n0 for _, n0 in self.vanishes)

    def breaks(self, n: int, **dets: GaussianRational) -> bool:
        """The clause check: whether a named det is nonzero at n where its clause says 0."""
        return any(dets[det] for det, n0 in self.vanishes if n >= n0)


# One row per target, in the order 'all' runs them.  det_dp refuses matrices
# above DET_DP_SIZE_BOUND: thm1's A is (n+1)x(n+1), every other symbolic
# family's largest matrix is n x n.  The numeric costs were measured on one
# core of a shared 2-vCPU Intel Xeon virtual machine (Python 3.11.7).
IDENTITIES: dict[str, Identity] = {
    "thm1": Identity(tuple(range(0, 7)), low=0, high=DET_DP_SIZE_BOUND - 1),
    "thm3": Identity(tuple(range(1, 7)), low=1, high=DET_DP_SIZE_BOUND),
    "cor5": Identity(tuple(range(2, 7)), low=1, high=DET_DP_SIZE_BOUND),
    "cor6": Identity((2, 4, 6), low=2, high=DET_DP_SIZE_BOUND, even=True),
    "thm7": Identity((2, 4, 6), low=2, high=DET_DP_SIZE_BOUND, even=True),
    # One magnus trial took 10-13 ms (sl2z) and 11-21 ms (gaussian) at
    # n = 24, the first one included: thm1's rules run at a trace point and
    # three exact determinants.
    "magnus": Identity(tuple(range(1, 7)), low=1, high=24, variants=GENERATORS, trials=100,
                       vanishes=(("det_A", 4), ("det_B", 5), ("det_C", 5))),
    "magnus-original": Identity((), low=4, high=4, trials=100),
    # Below its clause a report is informational, so the sweep starts there.
    # One random-sign trial took about 6 ms at n = 24.
    "thm2": Identity((5, 6), low=1, high=24, variants=EPS_MODES, trials=100,
                     vanishes=(("det_D", 5),)),
    "trace": Identity((), low=0, high=0, variants=GENERATORS, trials=1000),
}


def check_size(identity: str, n: int) -> None:
    """Raise OddSizeError for an odd n of an even-only identity, and
    ValueError for an n below the identity's smallest size."""
    row = IDENTITIES[identity]
    need = f"{identity} needs {'even ' if row.even else ''}n >= {row.low}, got {n}"
    if row.even and n % 2:
        raise OddSizeError(need)
    if n < row.low:
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


def derive_seed(identity: str, master_seed: int, *indices: int) -> int:
    """Stable per-trial seed: sha256 of the identity, the master seed and
    the trial indices."""
    tag = f"{identity}|{master_seed}|" + "|".join(str(i) for i in indices)
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


def _terms(identity: str, n: int) -> list[tuple[int | Polynomial, PolyMatrix]]:
    """The (coefficient, matrix) terms of a symbolic identity at n, which
    states sum(c * det M) = 0.

    thm1: det A - (-1)^n det B - det C = 0.
    thm3: det A - beta*(det B + det C) - (a[1,1]-2*beta)*det(inner) = 0.
    cor5: det A - det B - det C = 0 at the symmetric point.
    cor6: det A + det B + det C = 0 at the skew point (even n).
    thm7: det C + 2*Pf_e(A)*Pf_o(A)*det(0x0) = 0 at the skew point with lambda = 1.
    """
    if identity == THM1:
        a_mat, b_mat, c_mat = build_thm1(n)
        return [(1, a_mat), (-((-1) ** n), b_mat), (-1, c_mat)]
    if identity == THM3:
        a_mat, b_mat, c_mat = build_thm3(n)
        beta = Polynomial.of_var(BETA)
        a11 = Polynomial.of_var(entry(1, 1))
        inner = build_inner_minor(n)
        return [(1, a_mat), (-beta, b_mat), (-beta, c_mat), (2 * beta - a11, inner)]
    a_mat, b_mat, c_mat = apply_specialization(n, identity)
    if identity == THM7:
        pf_even, pf_odd = pfaffian_split(a_mat)
        return [(1, c_mat), (2 * pf_even * pf_odd, PolyMatrix((), (), {}))]
    sign = -1 if identity == COR5 else 1
    return [(1, a_mat), (sign, b_mat), (sign, c_mat)]


def _exponent_bounds(terms: list[tuple[int | Polynomial, PolyMatrix]]) -> Counter:
    """Per variable, the largest exponent det_dp, det_perm_oracle or the
    residual sum can form.  Each such monomial is one term of a coefficient
    c times at most one term per row of c's matrix, so the bound is the max
    of that over the terms."""

    def most(polys) -> Counter:
        out = Counter()
        for p in polys:
            out |= Counter({v: p.degree_in_var(v) for v in p.variables()})
        return out

    bounds = Counter()
    for coeff, m in terms:
        rows = (most(m.entry(r, c) for c in m.col_labels) for r in m.row_labels)
        bounds |= sum(rows, most([_coerce(coeff)]))
    return bounds


def verify_symbolic(identity: str, n: int, corrupt_sign: bool = False) -> VerificationReport:
    """Residual check of a symbolic identity at n: sum(c * det M) over its
    terms (see _terms) is computed and must be literally empty.

    ``corrupt_sign`` is the mutation-sensitivity hook: it flips the sign of
    entry (1, 1) of the second matrix, thm1's B, so the verification must
    fail with a nonzero witness.  Only thm1 at n >= 1 has that entry.
    ValueError for an identity that is not symbolic and for corrupt_sign
    anywhere else.
    """
    started = time.perf_counter()
    if identity not in IDENTITIES or IDENTITIES[identity].trials is not None:
        symbolic = ", ".join(k for k, row in IDENTITIES.items() if row.trials is None)
        raise ValueError(f"{identity!r} is not a symbolic identity; expected one of {symbolic}")
    check_size(identity, n)
    if corrupt_sign and (identity != THM1 or n < 1):
        raise ValueError(f"corrupt_sign needs thm1 at n >= 1, got {identity} at n = {n}")
    terms = _terms(identity, n)
    params: dict = {}
    if corrupt_sign:
        coeff, b_mat = terms[1]
        terms[1] = (coeff, b_mat.with_entry(1, 1, -b_mat.entry(1, 1)))
        params["corrupt_sign"] = True
    encode, decode = _local_packing(_exponent_bounds(terms))
    matrices = [PolyMatrix.build(m.row_labels, m.col_labels, lambda r, c, m=m: encode(m.entry(r, c)))
                for _, m in terms]
    dets = [det_dp(m) for m in matrices]
    dual = all(m.size <= DET_PERM_SIZE_BOUND for m in matrices)
    params["engines"] = "dp+perm" if dual else "dp"
    for idx, m in enumerate(matrices if dual else ()):
        oracle = det_perm_oracle(m)
        if oracle != dets[idx]:
            mismatch = {"matrix_index": idx, "det_dp": decode(dets[idx]).to_text(),
                        "det_perm_oracle": decode(oracle).to_text()}
            return _finish(identity, n, params, started, False, witness={"engine_mismatch": mismatch})
    # The residual is summed only after every determinant exists: summing each
    # in as it is computed keeps the residual alive while det_dp works on the
    # next matrix, and raised the symbolic sweep's peak RSS by about 13%.
    residual = Polynomial.zero()
    for (coeff, _), det in zip(terms, dets):
        _add_product(residual, 1, encode(_coerce(coeff)), det)
    return _finish(identity, n, params, started, residual.is_zero(), residual=decode(residual))


def verify_thm1(n: int, corrupt_sign: bool = False) -> VerificationReport:
    """Residual check of thm1 at n; see verify_symbolic for ``corrupt_sign``."""
    return verify_symbolic(THM1, n, corrupt_sign)


def verify_thm3_family(n: int, which: str = THM3) -> VerificationReport:
    """Residual check of thm3 or of its specialization cor5, cor6 or thm7."""
    if which not in (THM3, COR5, COR6, THM7):
        raise ValueError(f"unknown family member {which!r}")
    return verify_symbolic(which, n)


def _sample_mat(generator: str, rng: random.Random) -> Mat2:
    if generator == SL2Z:
        return random_sl2z(DEFAULT_WORD_LEN, rng)
    if generator == GAUSSIAN:
        return random_sl2_gaussian(rng)
    raise ValueError(f"unknown generator {generator!r}")


def _trials(
    identity: str, generator: str, master_seed: int, n: int | None, trials: int, signs: bool = False,
) -> Iterator[tuple]:
    """Trials 0..trials-1 as numeric cases.  Trial t draws from one
    generator, random.Random(derive_seed(identity, master_seed, n, t)):
    m_1..m_n, then M_1..M_n, then with ``signs`` a sign vector
    eps_1..eps_n, each entry 1 or -1; n None (trace) seeds without n and
    draws one pair.  A case is the tag {"trial": t}, the m's and the M's,
    and with ``signs`` eps."""
    size, named = (1, ()) if n is None else (n, (n,))
    for t in range(trials):
        rng = random.Random(derive_seed(identity, master_seed, *named, t))
        draws = [_sample_mat(generator, rng) for _ in range(2 * size)]
        case = ({"trial": t}, draws[:size], draws[size:])
        yield case + (tuple(rng.choice((1, -1)) for _ in range(size)),) if signs else case


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
    (B[i][j] = -tr(m_i M_j), C[i][j] = tr(m_i M_j^-1)), plus magnus's
    vanishing clauses in IDENTITIES."""
    started = time.perf_counter()
    check_size("magnus", n)
    params = {"trials": trials, "seed": master_seed, "generator": generator,
              "formula": "det A = det B + det C"}

    def check(ms: list[Mat2], big: list[Mat2]) -> dict | None:
        det_a, det_b, det_c = (exact_det(x) for x in build_magnus_matrices(ms, big))
        dets = {"det_A": det_a, "det_B": det_b, "det_C": det_c}
        ok = det_a == det_b + det_c and not IDENTITIES["magnus"].breaks(n, **dets)
        return None if ok else _gaussians(**dets)

    cases = _trials("magnus", generator, master_seed, n, trials)
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
    cases = _trials("magnus-original", SL2Z, master_seed, 4, trials)
    return _numeric_report("magnus-original", 4, params, started, cases, _magnus_original_check)


def _thm2_check(ms: list[Mat2], big: list[Mat2], eps: tuple[int, ...]) -> dict | None:
    """None when thm2's clause holds and a left kernel vector of D re-verifies, else the findings."""
    d_mat = build_thm2_D(ms, big, eps)
    det_d = exact_det(d_mat)
    if IDENTITIES["thm2"].breaks(len(ms), det_D=det_d):
        return _gaussians(det_D=det_d)
    v = left_kernel(d_mat)
    if v is None:
        return {"kernel": "none found"}
    if not any(v):
        return {"kernel": "zero vector returned"}
    product = mat_mul_vec_left(v, d_mat)
    if any(product):
        return {"kernel": "v*D nonzero", "v": [gaussian_to_json(x) for x in v],
                "vD": [gaussian_to_json(x) for x in product]}
    return None


def _sign_cases(master_seed: int, n: int, trials: int, eps_mode: str) -> Iterator[tuple]:
    """thm2's cases: in random mode trial t's sample and the sign vector its
    generator draws after it, in exhaustive mode all 2^n sign vectors over
    the one sample of trial 0 (the sample random mode's trial 0 draws)."""
    if eps_mode not in EPS_MODES:
        raise ValueError(f"unknown eps mode {eps_mode!r}")
    if eps_mode == "random":
        for tag, ms, big, eps in _trials("thm2", SL2Z, master_seed, n, trials, signs=True):
            yield {"case": f"trial={tag['trial']}", "eps": list(eps)}, ms, big, eps
        return
    for _, ms, big in _trials("thm2", SL2Z, master_seed, n, 1):
        for eps in itertools.product((1, -1), repeat=n):
            yield {"case": f"eps={eps}", "eps": list(eps)}, ms, big, eps


def verify_thm2(
    n: int, trials: int, master_seed: int, eps_mode: str = "random"
) -> VerificationReport:
    """det D = 0 with D[i][j] = tr(m_i M_j^{eps_i}), asserted where thm2's
    clause holds and each zero accompanied by a re-verified left kernel
    vector.  Below that only the first case's determinant is computed and
    reported, never asserted.  ``exhaustive`` mode sweeps all 2^n sign
    vectors over a single seeded sample."""
    started = time.perf_counter()
    check_size("thm2", n)
    cases = _sign_cases(master_seed, n, trials, eps_mode)
    asserted = IDENTITIES["thm2"].asserts(n)
    # Only an asserted random-sign report runs ``trials`` cases: exhaustive
    # mode draws one sample, and an informational report one determinant.
    params = {"trials": trials} if asserted and eps_mode == "random" else {}
    params.update(seed=master_seed, eps_mode=eps_mode, asserted=asserted)
    if asserted:
        report = _numeric_report("thm2", n, params, started, cases, _thm2_check)
        if report.passed and eps_mode == "exhaustive":
            report.params["cases"] = 2 ** n
        return report
    for _, ms, big, eps in itertools.islice(cases, 1):
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

    cases = _trials("trace", generator, master_seed, None, trials)
    return _numeric_report("trace", None, params, started, cases, check)
