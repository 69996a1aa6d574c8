"""Reports, determinism, dual-engine residuals, and the mutation hook."""

import pytest

from tracedet import verify
from tracedet.exactpoly import Polynomial
from tracedet.identbuild import build_thm1
from tracedet.sl2exact import (
    DEFAULT_WORD_LEN,
    GR_ONE,
    GR_ZERO,
    Mat2,
    gaussian_to_json,
    mat2_to_json,
    random_sl2z,
)
from tracedet.symmat import OddSizeError
from tracedet.verify import (
    FAIL,
    PASS,
    derive_seed,
    verify_magnus_numeric,
    verify_magnus_original,
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
    assert build_thm1(3) is build_thm1(3)
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


def test_verify_magnus_numeric_vanishing_draws():
    r = verify_magnus_numeric(4, 2, 7)
    assert r.status == PASS
    r = verify_magnus_numeric(5, 2, 7)
    assert r.status == PASS


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
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)


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

def _sl2z_samples(seed, n, t, count):
    draws = [random_sl2z(DEFAULT_WORD_LEN, derive_seed(seed, n, t, k)) for k in range(2 * count)]
    return [mat2_to_json(x) for x in draws[:count]], [mat2_to_json(x) for x in draws[count:]]


def _always_one(_rows):
    return GR_ONE


def test_magnus_fails_on_wrong_determinants(monkeypatch):
    monkeypatch.setattr(verify, "exact_det", _always_one)
    r = verify_magnus_numeric(2, 3, 7)
    assert r.status == FAIL
    m, big = _sl2z_samples(7, 2, 0, 2)
    one = gaussian_to_json(GR_ONE)
    assert r.witness == {"trial": 0, "m": m, "M": big, "det_A": one, "det_B": one, "det_C": one}


def test_magnus_original_fails_on_wrong_determinants(monkeypatch):
    monkeypatch.setattr(verify, "exact_det", _always_one)
    r = verify_magnus_original(3, 7)
    assert r.status == FAIL
    assert r.n == 4
    m, big = _sl2z_samples(7, 4, 0, 4)
    assert (r.witness["trial"], r.witness["m"], r.witness["M"]) == (0, m, big)
    assert set(r.witness) == {"trial", "m", "M", "det_cross", "det_cross_inv", "det_mm", "det_MM"}


def test_thm2_fails_on_nonzero_determinant(monkeypatch):
    monkeypatch.setattr(verify, "exact_det", _always_one)
    r = verify_thm2(5, 2, 7)
    assert r.status == FAIL
    m, big = _sl2z_samples(7, 5, 0, 5)
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
    m, big = _sl2z_samples(7, 5, 0, 5)
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
    m, big = _sl2z_samples(7, 0, 0, 1)
    assert r.witness == {
        "trial": 0, "m": m, "M": big,
        "lhs": gaussian_to_json(GR_ONE), "rhs": gaussian_to_json(GR_ZERO),
    }


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
    post_init, sample = Mat2.__post_init__, verify._sample_mat
    monkeypatch.setattr(Mat2, "__post_init__", lambda self: built.append(1) or post_init(self))
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
