"""CLI grammar, exit codes, rendering, and output determinism."""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from tracedet import cli
from tracedet.cli import TARGETS, render_report, run
from tracedet.sl2exact import mat2_to_json
from tracedet.verify import FAIL, GAUSSIAN, PASS, SIZES, SL2Z, VerificationReport, _trials, verify_thm1


def test_verify_thm1_single(capsys):
    assert run(["verify", "thm1", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^PASS thm1 n=4 \(\d+(\.\d+)? ms\)$", out.strip())


def test_json_output_schema(capsys):
    assert run(["verify", "thm3", "--n", "2", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1
    report = reports[0]
    assert report["identity"] == "thm3"
    assert report["n"] == 2
    assert report["status"] == "PASS"
    assert "millis" in report and "params" in report


def test_render_empty_json():
    assert render_report([], "json") == "[]"


def test_render_fail_report_includes_residual():
    bad = verify_thm1(3, corrupt_sign=True)
    text = render_report([bad], "text")
    assert text.startswith("FAIL thm1 n=3")
    assert "residual:" in text
    blob = json.loads(render_report([bad], "json"))
    assert "residual" in blob[0]


def test_exhaustive_eps(capsys):
    assert run(["verify", "thm2", "--n", "5", "--eps", "exhaustive", "--seed", "1"]) == 0
    assert "eps=exhaustive" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert run(["verify", "thm1", "--bogus"]) == 2
    assert run(["verify", "nonsense"]) == 2
    assert run(["verify", "cor6", "--n", "3"]) == 2
    assert run(["verify", "thm1", "--n", "-1"]) == 2
    assert run(["verify", "all", "--n", "2"]) == 2
    assert run(["verify", "thm1", "--n", "2", "--max-n", "3"]) == 2
    assert run(["verify", "trace", "--n", "2"]) == 2
    assert run(["verify", "thm1", "--trials", "0"]) == 2
    assert run(["verify", "thm1", "--n", "8"]) == 2
    assert run(["verify", "thm3", "--n", "9"]) == 2
    too_many_signs = str(cli.THM2_EXHAUSTIVE_MAX_N + 1)
    assert run(["verify", "thm2", "--n", too_many_signs, "--eps", "exhaustive"]) == 2
    assert run(["verify", "magnus", "--n", str(SIZES["magnus"].high + 1)]) == 2
    assert run(["verify", "thm2", "--n", str(SIZES["thm2"].high + 1)]) == 2
    assert run(["verify", "magnus", "--n", "0"]) == 2
    assert run(["verify", "thm2", "--n", "0"]) == 2
    assert run(["verify", "trace", "--trials", str(cli.MAX_TRIALS + 1)]) == 2
    assert run(["verify", "all", "--trials", str(cli.MAX_TRIALS + 1)]) == 2
    capsys.readouterr()
    # An option the target would ignore is rejected before any job runs.
    ignored = [[t, "--trials", "3"] for t in ("thm1", "thm3", "cor5", "cor6", "thm7")]
    ignored.append(["thm2", "--eps", "exhaustive", "--trials", "3"])
    ignored += [[t, "--generator", "gaussian"] for t in TARGETS if t not in ("magnus", "trace", "all")]
    ignored += [[t, "--eps", "random"] for t in TARGETS if t != "thm2"]
    for argv in ignored:
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{argv[-2]} is not valid for {argv[0]}" in captured.err
    assert run(["verify", "thm7", "--n", "0"]) == 2
    assert "even n >= 2" in capsys.readouterr().err
    # A size range that leaves nothing to check is a usage error too.
    for argv in (["thm7", "--max-n", "1"], ["thm2", "--max-n", "4", "--format", "json"],
                 ["thm2", "--eps", "exhaustive", "--max-n", "3"], ["magnus", "--max-n", "0"]):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"leaves no {argv[0]} size to check" in captured.err


def test_empty_range_checked_before_out_is_opened(tmp_path, capsys):
    target = tmp_path / "r.json"
    assert run(["verify", "thm7", "--max-n", "1", "--out", str(target)]) == 2
    assert "leaves no thm7 size to check" in capsys.readouterr().err
    assert not target.exists()


def test_exhaustive_without_n_runs_smallest_size_in_range():
    parser = cli.build_parser()
    args = parser.parse_args(["verify", "thm2", "--eps", "exhaustive", "--max-n", "6"])
    assert len(cli.build_jobs(cli._validated_config(parser, args))) == 1


def test_size_bound_accepts_largest_n():
    # Validation only: thm3 at n=8 and the other largest values are allowed
    # but not run here.
    parser = cli.build_parser()
    args = parser.parse_args(["verify", "thm3", "--n", "8"])
    cfg = cli._validated_config(parser, args)
    assert (cfg.target, cfg.n) == ("thm3", 8)
    for argv in (["magnus", "--n", str(SIZES["magnus"].high)],
                 ["thm2", "--n", str(SIZES["thm2"].high)],
                 ["trace", "--trials", str(cli.MAX_TRIALS)]):
        cfg = cli._validated_config(parser, parser.parse_args(["verify", *argv]))
        assert cfg.target == argv[0]


def test_exit_one_on_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_thm1", lambda n: verify_thm1(3, corrupt_sign=True))
    assert run(["verify", "thm1", "--n", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


# Each target's checker, named as cli binds it.
VERIFY_OF_TARGET = {
    "thm1": "verify_thm1",
    "thm3": "verify_thm3_family",
    "cor5": "verify_thm3_family",
    "cor6": "verify_thm3_family",
    "thm7": "verify_thm3_family",
    "magnus": "verify_magnus_numeric",
    "magnus-original": "verify_magnus_original",
    "thm2": "verify_thm2",
    "trace": "verify_trace_relation",
}


def test_every_target_is_listed():
    assert cli.TARGETS == (*VERIFY_OF_TARGET, "all")


@pytest.mark.parametrize("target", list(VERIFY_OF_TARGET))
def test_jobs_call_the_checker_bound_in_cli(monkeypatch, capsys, target):
    # The benchmark's tracer wraps these names in cli; a job that bound the
    # function when the module loaded would bypass the wrapper.
    calls = []

    def stub(*args):
        calls.append(args)
        return VerificationReport(target, None, {}, FAIL, witness={"stub": True})

    monkeypatch.setattr(cli, VERIFY_OF_TARGET[target], stub)
    assert run(["verify", target]) == 1
    assert calls
    assert "FAIL" in capsys.readouterr().out


def test_all_runs_every_sweep_in_order(monkeypatch, capsys):
    calls = []
    for name in set(VERIFY_OF_TARGET.values()):
        def record(*args, name=name):
            calls.append((name, *args))
            return VerificationReport(name, None, {}, PASS)
        monkeypatch.setattr(cli, name, record)
    assert run(["verify", "all", "--trials", "3", "--seed", "5"]) == 0
    families = (("thm3", range(1, 7)), ("cor5", range(2, 7)), ("cor6", (2, 4, 6)), ("thm7", (2, 4, 6)))
    assert calls == (
        [("verify_thm1", n) for n in range(7)]
        + [("verify_thm3_family", n, f) for f, sizes in families for n in sizes]
        + [("verify_magnus_numeric", n, 3, 5, g) for g in ("sl2z", "gaussian") for n in range(1, 7)]
        + [("verify_magnus_original", 3, 5)]
        + [("verify_thm2", n, 3, 5, "random") for n in (5, 6)]
        + [("verify_thm2", 5, 3, 5, "exhaustive")]
        + [("verify_trace_relation", 3, 5, g) for g in ("sl2z", "gaussian")]
    )


def test_benchmark_trace_hooks_exist():
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, names in tracing.WRAPPED.items():
        module = importlib.import_module(module_name)
        assert [name for name in names if not hasattr(module, name)] == []


def test_internal_error_exits_three(monkeypatch, capsys, tmp_path):
    def broken(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_thm1", broken)
    assert run(["verify", "thm1", "--n", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tracedet: internal error: RuntimeError: boom\n"
    # No --out file is left behind, not even an empty one.
    target = tmp_path / "r.json"
    assert run(["verify", "thm1", "--n", "1", "--out", str(target)]) == 3
    assert capsys.readouterr().err == "tracedet: internal error: RuntimeError: boom\n"
    assert not target.exists()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["verify", "cor5", "--n", "2", "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    reports = json.loads(target.read_text())
    assert reports[0]["identity"] == "cor5"


def test_out_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert run(["verify", "thm1", "--n", "1", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"tracedet: cannot write {target}: No such file or directory"
    assert not target.exists()


def _normalized_json(out: str) -> str:
    reports = json.loads(out)
    for r in reports:
        r["millis"] = 0.0
    return json.dumps(reports)


def test_json_determinism(capsys):
    args = ["verify", "magnus", "--n", "2", "--trials", "3", "--seed", "9", "--format", "json"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert _normalized_json(first) == _normalized_json(second)
    # Byte-identical once the timing field is zeroed.
    assert re.sub(r'"millis": [0-9.e-]+', '"millis": 0', first) == \
        re.sub(r'"millis": [0-9.e-]+', '"millis": 0', second)


GOLDEN_ALL = Path(__file__).parent / "golden" / "verify_all_n6.json"


def test_verify_all_matches_golden(capsys):
    # The golden is `verify all --max-n 6 --trials 10 --seed 42 --format json`
    # with every millis field removed; the reports must stay byte-identical.
    argv = ["verify", "all", "--max-n", "6", "--trials", "10", "--seed", "42", "--format", "json"]
    assert run(argv) == 0
    reports = json.loads(capsys.readouterr().out)
    for r in reports:
        del r["millis"]
    assert json.dumps(reports, indent=2) + "\n" == GOLDEN_ALL.read_text()


GOLDEN_SAMPLES = Path(__file__).parent / "golden" / "samples_seed42.json"


def test_samples_match_golden(capsys):
    # verify_all_n6.json pins verdicts only: every report in it passes, so
    # none carries a sample.  This pins what the samplers draw (trial 0 of
    # _trials(g, 42, 3, 1) for each generator) and the informational
    # det_sample of `verify thm2 --n 4 --trials 1 --seed 42`.
    samples = {}
    for gen in (SL2Z, GAUSSIAN):
        _, ms, big = next(_trials(gen, 42, 3, 1))
        samples[gen] = {"m": [mat2_to_json(x) for x in ms], "M": [mat2_to_json(x) for x in big]}
    assert run(["verify", "thm2", "--n", "4", "--trials", "1", "--seed", "42", "--format", "json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    pinned = {"trial0_n3": samples, "thm2_n4_det_sample": report["params"]["det_sample"]}
    assert json.dumps(pinned, indent=2) + "\n" == GOLDEN_SAMPLES.read_text()


def test_all_smoke(capsys):
    assert run(["verify", "all", "--max-n", "2", "--trials", "2", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    # Aggregation is ordered by (identity, n, params).
    identities = [l.split()[1] for l in lines]
    assert identities == sorted(identities)
    for expected in ("thm1", "thm3", "cor5", "cor6", "magnus", "magnus-original", "trace"):
        assert expected in identities


def test_generator_flag(capsys):
    assert run(["verify", "trace", "--trials", "5", "--generator", "gaussian"]) == 0
    assert "generator=gaussian" in capsys.readouterr().out
