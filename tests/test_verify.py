"""Reports, determinism, dual-engine residuals, and the mutation hook."""

import itertools
import json
import random

import pytest

from tracedet import verify
from tracedet.cli import render_report
from tracedet.exactpoly import Polynomial
from tracedet.identbuild import build_thm1
from tracedet.sl2exact import (
    DEFAULT_WORD_LEN,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Mat2,
    gaussian_to_json,
    mat2_to_json,
    random_sl2_gaussian,
    random_sl2z,
)
from tracedet.symmat import OddSizeError, det_dp
from tracedet.verify import (
    FAIL,
    PASS,
    SL2Z,
    derive_seed,
    verify_magnus_numeric,
    verify_magnus_original,
    verify_symbolic,
    verify_thm1,
    verify_thm2,
    verify_thm3_family,
    verify_trace_relation,
)


def strip_millis(report):
    d = report.to_json_dict()
    d.pop("millis")
    return d


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_verify_thm1_passes(n):
    r = verify_thm1(n)
    assert r.status == PASS
    assert r.residual is None
    assert r.params["engines"] == "dp+perm"


def test_verify_thm1_mutation_hook_fails():
    r = verify_thm1(3, corrupt_sign=True)
    assert r.status == FAIL
    assert r.residual is not None
    assert not Polynomial.from_text(r.residual).is_zero()


def test_thm1_built_once_and_not_mutated_by_the_hook():
    b11 = build_thm1(3)[1].entry(1, 1)
    assert verify_thm1(3, corrupt_sign=True).status == FAIL
    assert verify_thm1(3).status == PASS
    assert build_thm1(3)[1].entry(1, 1) == b11
    assert b11.to_text() == "1*lambda*a[0,1]*a[1,0] + -1*a[1,1]"


@pytest.mark.parametrize("which,n", [
    ("thm3", 1), ("thm3", 3), ("cor5", 2), ("cor5", 3), ("cor6", 2),
    ("cor6", 4), ("thm7", 2), ("thm7", 4),
])
def test_verify_thm3_family_passes(which, n):
    r = verify_thm3_family(n, which)
    assert r.status == PASS
    assert r.identity == which


@pytest.mark.parametrize("which,engines", [
    ("thm3", "dp"), ("cor5", "dp"), ("cor6", "dp"), ("thm7", "dp+perm"),
])
def test_verify_thm3_family_passes_at_n8(which, engines):
    # The widest exponent bounds a symbolic check packs; thm7's one matrix
    # is 7 x 7, within the oracle's bound.
    r = verify_thm3_family(8, which)
    assert r.status == PASS
    assert r.params["engines"] == engines


# Every symbolic identity at each of its sweep sizes up to 5.
SYMBOLIC_UP_TO_5 = [(name, n) for name, row in verify.IDENTITIES.items() if row.trials is None
                    for n in row.sweep if n <= 5]


@pytest.mark.parametrize("identity,n,corrupt", [
    *(pytest.param("thm1", n, True, id=str(n)) for n in range(1, 6)),
    *(pytest.param(name, n, False, id=f"{name}-{n}") for name, n in SYMBOLIC_UP_TO_5),
])
def test_corrupt_sign_residual_matches_the_global_packing_sum(identity, n, corrupt):
    # verify_symbolic sums its residual in a packing local to the identity;
    # its verdict and residual must match the sum in the global packing.
    terms = verify._terms(identity, n)
    if corrupt:
        coeff, b_mat = terms[1]
        terms[1] = (coeff, b_mat.with_entry(1, 1, -b_mat.entry(1, 1)))
    expected = Polynomial.zero()
    for c, m in terms:
        expected = expected + c * det_dp(m)
    r = verify_symbolic(identity, n, corrupt_sign=corrupt)
    assert r.passed == expected.is_zero() == (not corrupt)
    assert r.residual == (expected.to_text() if corrupt else None)


def test_verify_thm3_family_odd_skew_rejected():
    with pytest.raises(OddSizeError):
        verify_thm3_family(3, "cor6")
    with pytest.raises(OddSizeError):
        verify_thm3_family(5, "thm7")


def test_verify_thm3_family_unknown_member():
    with pytest.raises(ValueError):
        verify_thm3_family(2, "cor7")


@pytest.mark.parametrize("generator", ["sl2z", "gaussian"])
def test_verify_magnus_numeric_small(generator):
    for n in (1, 2, 3):
        r = verify_magnus_numeric(n, 3, 7, generator)
        assert r.status == PASS


def test_verify_magnus_numeric_vanishing_draws(monkeypatch):
    r = verify_magnus_numeric(4, 2, 7)
    assert r.status == PASS
    r = verify_magnus_numeric(5, 2, 7)
    assert r.status == PASS
    # Honest samples vanish on either side of a clause's edge, so pin each
    # edge with determinants that satisfy det A = det B + det C and break
    # only the clause: det A = 0 from n = 4, det B = det C = 0 from n = 5.
    for dets, edge, named in (((1, 1, 0), 4, "det_A"), ((0, 1, -1), 5, "det_B")):
        values = itertools.cycle([GaussianRational(x) for x in dets])  # A, B, C per trial
        monkeypatch.setattr(verify, "exact_det", lambda m, values=values: next(values))
        assert verify_magnus_numeric(edge - 1, 2, 7).status == PASS
        r = verify_magnus_numeric(edge, 2, 7)
        assert r.status == FAIL
        assert r.witness[named] != gaussian_to_json(GR_ZERO)


def test_verify_magnus_original_small():
    assert verify_magnus_original(3, 7).status == PASS


def test_verify_thm2_small():
    r = verify_thm2(5, 2, 7)
    assert r.status == PASS
    assert r.params["trials"] == 2
    r = verify_thm2(5, 1, 1, "exhaustive")
    assert r.status == PASS
    assert r.params["cases"] == 32
    assert "trials" not in r.params


def test_verify_thm2_informational_below_threshold():
    r = verify_thm2(4, 2, 7)
    assert r.status == PASS
    assert r.params["asserted"] is False
    assert r.params["informational"] is True
    assert "det_sample" in r.params


def test_thm2_sweep_starts_at_its_clause():
    # Below its clause a thm2 report is informational, so the default sweep
    # runs no size under the clause and starts where it does.
    row = verify.IDENTITIES["thm2"]
    assert all(row.asserts(n) for n in row.sweep)
    assert not row.asserts(row.sweep[0] - 1)


def test_verify_thm2_bad_mode():
    with pytest.raises(ValueError):
        verify_thm2(5, 1, 1, "everything")


def test_verify_trace_relation_small():
    assert verify_trace_relation(20, 7).status == PASS
    assert verify_trace_relation(20, 7, "gaussian").status == PASS


def test_reports_are_deterministic():
    first = verify_magnus_numeric(2, 3, 123)
    second = verify_magnus_numeric(2, 3, 123)
    assert strip_millis(first) == strip_millis(second)
    other_seed = verify_magnus_numeric(2, 3, 124)
    assert strip_millis(first)["params"] != strip_millis(other_seed)["params"]


def test_derive_seed_stable_and_separated():
    assert derive_seed("magnus", 42, 1, 2) == derive_seed("magnus", 42, 1, 2)
    assert derive_seed("magnus", 42, 1, 2) != derive_seed("magnus", 42, 2, 1)
    assert derive_seed("magnus", 42, 1) != derive_seed("magnus", 43, 1)
    assert derive_seed("magnus", 42, 1, 2) != derive_seed("thm2", 42, 1, 2)


def test_report_json_schema():
    r = verify_thm1(2)
    d = r.to_json_dict()
    assert set(d) == {"identity", "n", "params", "status", "millis"}
    bad = verify_thm1(3, corrupt_sign=True).to_json_dict()
    assert "residual" in bad
    assert bad["status"] == FAIL


# Failure paths: each numeric verifier must report FAIL, with a witness that
# holds the case tag, the samples m and M, and the findings, when one of the
# exact routines it relies on is replaced by a wrong one.

def _sl2z_samples(identity, seed, n):
    """Trial 0's m and M, as a witness holds them."""
    _, ms, big = next(verify._trials(identity, SL2Z, seed, n, 1))
    return [mat2_to_json(x) for x in ms], [mat2_to_json(x) for x in big]


def _always_one(_rows):
    return GR_ONE


def test_magnus_fails_on_wrong_determinants(monkeypatch):
    monkeypatch.setattr(verify, "exact_det", _always_one)
    r = verify_magnus_numeric(2, 3, 7)
    assert r.status == FAIL
    m, big = _sl2z_samples("magnus", 7, 2)
    one = gaussian_to_json(GR_ONE)
    assert r.witness == {"trial": 0, "m": m, "M": big, "det_A": one, "det_B": one, "det_C": one}


def test_magnus_original_fails_on_wrong_determinants(monkeypatch):
    monkeypatch.setattr(verify, "exact_det", _always_one)
    r = verify_magnus_original(3, 7)
    assert r.status == FAIL
    assert r.n == 4
    m, big = _sl2z_samples("magnus-original", 7, 4)
    assert (r.witness["trial"], r.witness["m"], r.witness["M"]) == (0, m, big)
    assert set(r.witness) == {"trial", "m", "M", "det_cross", "det_cross_inv", "det_mm", "det_MM"}


def test_thm2_fails_on_nonzero_determinant(monkeypatch):
    monkeypatch.setattr(verify, "exact_det", _always_one)
    r = verify_thm2(5, 2, 7)
    assert r.status == FAIL
    m, big = _sl2z_samples("thm2", 7, 5)
    assert r.witness["case"] == "trial=0"
    assert len(r.witness["eps"]) == 5
    assert (r.witness["m"], r.witness["M"]) == (m, big)
    assert r.witness["det_D"] == gaussian_to_json(GR_ONE)
    assert "cases" not in r.params


@pytest.mark.parametrize("eps_mode,case", [
    ("random", "trial=0"), ("exhaustive", "eps=(1, 1, 1, 1, 1)"),
])
def test_thm2_fails_without_kernel_vector(monkeypatch, eps_mode, case):
    monkeypatch.setattr(verify, "left_kernel", lambda rows: None)
    r = verify_thm2(5, 2, 7, eps_mode)
    assert r.status == FAIL
    m, big = _sl2z_samples("thm2", 7, 5)
    assert r.witness["case"] == case
    assert (r.witness["m"], r.witness["M"]) == (m, big)
    assert r.witness["kernel"] == "none found"
    assert len(r.witness["eps"]) == 5


@pytest.mark.parametrize("vector,finding", [
    ([GR_ZERO] * 5, "zero vector returned"),
    ([GR_ONE] + [GR_ZERO] * 4, "v*D nonzero"),
])
def test_thm2_fails_on_wrong_kernel_vector(monkeypatch, vector, finding):
    monkeypatch.setattr(verify, "left_kernel", lambda rows: list(vector))
    r = verify_thm2(5, 2, 7)
    assert r.status == FAIL
    assert r.witness["kernel"] == finding
    assert {"case", "eps", "m", "M"} <= set(r.witness)
    if finding == "v*D nonzero":
        assert r.witness["v"] == [gaussian_to_json(x) for x in vector]
        assert len(r.witness["vD"]) == 5


def test_trace_fails_on_unequal_sides(monkeypatch):
    monkeypatch.setattr(verify, "trace_relation_check", lambda m, big: (GR_ONE, GR_ZERO))
    r = verify_trace_relation(3, 7)
    assert r.status == FAIL
    m, big = _sl2z_samples("trace", 7, None)
    assert r.witness == {
        "trial": 0, "m": m, "M": big,
        "lhs": gaussian_to_json(GR_ONE), "rhs": gaussian_to_json(GR_ZERO),
    }


@pytest.mark.parametrize("first,second", [
    pytest.param(lambda: verify_magnus_numeric(4, 1, 42), lambda: verify_magnus_original(1, 42),
                 id="magnus-n4-vs-magnus-original"),
    pytest.param(lambda: verify_magnus_numeric(5, 1, 42), lambda: verify_thm2(5, 1, 42),
                 id="magnus-n5-vs-thm2-n5"),
])
def test_distinct_identities_draw_distinct_samples(monkeypatch, first, second):
    # The seed names the identity, so two targets at the same n and master
    # seed do not check one identity against the other's samples.
    monkeypatch.setattr(verify, "exact_det", _always_one)
    a, b = first(), second()
    assert a.status == b.status == FAIL
    assert len(a.witness["m"]) == len(b.witness["m"])
    assert a.witness["m"][0] != b.witness["m"][0] and a.witness["M"][0] != b.witness["M"][0]


def test_thm2_failure_replays_from_its_report(monkeypatch):
    # A failed case is drawn again from the report alone: its identity, n
    # and seed and the witness's trial give the one generator that drew
    # m_1..m_n, M_1..M_n and then eps_1..eps_n.
    calls = []
    real = verify.exact_det

    def det_fails_on_third_case(rows):
        calls.append(rows)
        return GR_ONE if len(calls) == 3 else real(rows)

    monkeypatch.setattr(verify, "exact_det", det_fails_on_third_case)
    r = verify_thm2(5, 4, 11)
    assert r.status == FAIL and r.witness["case"] == "trial=2"
    t = int(r.witness["case"].removeprefix("trial="))
    rng = random.Random(derive_seed(r.identity, r.params["seed"], r.n, t))
    m = [mat2_to_json(random_sl2z(DEFAULT_WORD_LEN, rng)) for _ in range(r.n)]
    big = [mat2_to_json(random_sl2z(DEFAULT_WORD_LEN, rng)) for _ in range(r.n)]
    eps = [rng.choice((1, -1)) for _ in range(r.n)]
    assert (r.witness["m"], r.witness["M"], r.witness["eps"]) == (m, big, eps)


@pytest.mark.parametrize("generator,sample", [
    ("sl2z", lambda rng: random_sl2z(DEFAULT_WORD_LEN, rng)), ("gaussian", random_sl2_gaussian),
], ids=["sl2z", "gaussian"])
def test_trace_failure_replays_from_its_report(monkeypatch, generator, sample):
    # As for thm2, but trace's report names no n: its identity, seed and
    # generator and the witness's trial give the one generator that drew m
    # and then M.
    calls = []
    real = verify.trace_relation_check

    def check_fails_on_third_case(m, big):
        calls.append(m)
        return (GR_ONE, GR_ZERO) if len(calls) == 3 else real(m, big)

    monkeypatch.setattr(verify, "trace_relation_check", check_fails_on_third_case)
    r = verify_trace_relation(5, 11, generator)
    assert r.status == FAIL and r.n is None and r.witness["trial"] == 2
    assert r.params["generator"] == generator
    rng = random.Random(derive_seed(r.identity, r.params["seed"], r.witness["trial"]))
    m, big = ([mat2_to_json(sample(rng))] for _ in range(2))
    assert (r.witness["m"], r.witness["M"]) == (m, big)


@pytest.mark.parametrize("run_check,trials", [
    pytest.param(lambda: verify_magnus_numeric(3, 4, 42), 4, id="magnus"),
    pytest.param(lambda: verify_magnus_numeric(3, 4, 42, "gaussian"), 4, id="magnus-gaussian"),
    pytest.param(lambda: verify_thm2(5, 3, 42), 3, id="thm2"),
    pytest.param(lambda: verify_thm2(5, 3, 42, "exhaustive"), 1, id="thm2-exhaustive"),
    pytest.param(lambda: verify_trace_relation(5, 42), 5, id="trace"),
])
def test_each_trial_seeds_one_generator(monkeypatch, run_check, trials):
    seeds = []
    real = verify.derive_seed
    monkeypatch.setattr(verify, "derive_seed", lambda *a: seeds.append(a) or real(*a))
    assert run_check().passed
    assert len(seeds) == trials
    assert [a[-1] for a in seeds] == list(range(trials))


def test_thm2_below_threshold_computes_one_determinant(monkeypatch):
    calls = []
    real = verify.exact_det
    monkeypatch.setattr(verify, "exact_det", lambda rows: calls.append(rows) or real(rows))
    r = verify_thm2(4, 5, 7)
    assert r.params["informational"] is True
    assert len(calls) == 1
    calls.clear()
    r = verify_thm2(3, 5, 7, "exhaustive")
    assert len(calls) == 1
    assert "cases" not in r.params and "trials" not in r.params


@pytest.mark.parametrize("run_check,draws", [
    pytest.param(lambda: verify_trace_relation(50, 42, "gaussian"), 50 * 2, id="trace"),
    pytest.param(lambda: verify_magnus_numeric(5, 3, 42, "gaussian"), 3 * 2 * 5, id="magnus"),
    pytest.param(lambda: verify_thm2(5, 3, 42), 3 * 2 * 5, id="thm2"),
])
def test_numeric_checks_build_one_mat2_per_sample(monkeypatch, run_check, draws):
    # Products and inverses are never built as Mat2s, so det = 1 is checked
    # once per drawn sample and nowhere else.
    built, sampled = [], []
    det_check, sample = Mat2._set_checked, verify._sample_mat
    monkeypatch.setattr(Mat2, "_set_checked", lambda self, *a: built.append(1) or det_check(self, *a))
    monkeypatch.setattr(verify, "_sample_mat", lambda *a: sampled.append(1) or sample(*a))
    assert run_check().passed
    assert len(sampled) == draws
    assert len(built) == draws


def test_thm7_fails_when_the_pfaffian_term_is_wrong(monkeypatch):
    real = verify.pfaffian_split
    monkeypatch.setattr(verify, "pfaffian_split", lambda m: (real(m)[0], real(m)[1] + 1))
    r = verify_thm3_family(2, "thm7")
    assert r.status == FAIL
    assert not Polynomial.from_text(r.residual).is_zero()


def test_engine_mismatch_is_reported(monkeypatch):
    monkeypatch.setattr(verify, "det_perm_oracle", lambda m: Polynomial.of_int(7))
    r = verify_thm1(2)
    assert r.status == FAIL
    assert r.residual is None
    assert r.witness["engine_mismatch"]["matrix_index"] == 0
    assert r.witness["engine_mismatch"]["det_perm_oracle"] == "7"


@pytest.mark.parametrize("identity,n,k", [("thm1", 2, 1), ("thm1", 2, 2), ("thm3", 3, 3)],
                         ids=["thm1-B", "thm1-C", "thm3-inner-minor"])
def test_engine_mismatch_names_the_first_disagreeing_matrix(monkeypatch, identity, n, k):
    # The oracle disagrees on its k-th call only (0-based), so the witness
    # must name matrix k, carry both engines' texts of it, and stop there.
    # The oracle sees matrices in verify_symbolic's local packing, so the
    # expected texts come from matrix k in the global packing.
    real = verify.det_perm_oracle
    seen = []

    def oracle_wrong_on_call_k(m):
        seen.append(m)
        return real(m) + 1 if len(seen) == k + 1 else real(m)

    monkeypatch.setattr(verify, "det_perm_oracle", oracle_wrong_on_call_k)
    r = verify_symbolic(identity, n)
    assert r.status == FAIL and r.residual is None
    det = real(verify._terms(identity, n)[k][1])
    assert r.witness["engine_mismatch"] == {
        "matrix_index": k, "det_dp": det.to_text(), "det_perm_oracle": (det + 1).to_text(),
    }
    assert len(seen) == k + 1


def test_symbolic_check_sums_the_residual_after_every_determinant(monkeypatch):
    # One pass: det_dp of every matrix, then the oracle of each, and only
    # then the residual (see verify_symbolic for why the sum comes last).
    events = []
    for name, tag in (("det_dp", "dp"), ("det_perm_oracle", "perm"), ("_add_product", "sum")):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, real=real, tag=tag: events.append(tag) or real(*a))
    assert verify_symbolic("thm3", 3).passed
    assert events == ["dp"] * 4 + ["perm"] * 4 + ["sum"] * 4


def test_thm1_above_the_oracle_bound_runs_det_dp_alone(monkeypatch):
    def no_oracle(m):
        raise AssertionError("det_perm_oracle called above its bound")

    monkeypatch.setattr(verify, "det_perm_oracle", no_oracle)
    r = verify_thm1(7)
    assert r.status == PASS
    assert r.params["engines"] == "dp"


def test_fail_report_keeps_its_witness_in_json(monkeypatch):
    monkeypatch.setattr(verify, "exact_det", _always_one)
    r = verify_magnus_numeric(2, 3, 7)
    (blob,) = json.loads(render_report([r], "json"))
    assert blob["status"] == FAIL
    assert list(blob["witness"]) == ["trial", "m", "M", "det_A", "det_B", "det_C"]
    assert blob["witness"] == r.witness


@pytest.mark.parametrize("make", [
    lambda: verify_magnus_numeric(2, 1, 7, "integers"),
    lambda: verify_thm1(0, corrupt_sign=True),
    lambda: verify_symbolic("magnus", 3),
    lambda: verify_symbolic("nope", 3),
    lambda: verify_symbolic("cor5", 3, corrupt_sign=True),
    lambda: verify_symbolic("thm3", 3, corrupt_sign=True),
], ids=["unknown_generator", "corrupt_sign_at_n0", "numeric_identity", "unknown_identity",
        "corrupt_sign_on_cor5", "corrupt_sign_on_thm3"])
def test_input_checks(make):
    with pytest.raises(ValueError):
        make()


def test_non_symbolic_identity_error_names_the_symbolic_targets():
    with pytest.raises(ValueError, match="'magnus' is not a symbolic identity; "
                                         "expected one of thm1, thm3, cor5, cor6, thm7$"):
        verify_symbolic("magnus", 3)
