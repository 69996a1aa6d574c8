"""Reports, determinism, dual-engine residuals, and the mutation hook."""

import pytest

from tracedet.exactpoly import Polynomial
from tracedet.identbuild import build_thm1
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
    assert verify_thm2(5, 2, 7).status == PASS
    r = verify_thm2(5, 1, 1, "exhaustive")
    assert r.status == PASS
    assert r.params["cases"] == 32


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
