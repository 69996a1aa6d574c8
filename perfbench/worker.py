"""One pass of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last stdout line.  A pass
runs every case of the workload through ``tracedet.cli.run`` (the mutation
case through the ``verify_thm1`` name the CLI binds), times the pass from
the first call to the last verdict, and only then checks every verdict and
exit code against the known answers in ``workloads.py``.

    python3 perfbench/worker.py --workload symbolic --seed 42 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import LAYER_OF, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Layers whose self time is reported, as "<layer>.ms".  Every span is
# charged to one of them, so their sum is the traced wall time.
TIMED_LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
# Layers whose call count is reported, as "<layer>.calls".
COUNTED_LAYERS = (
    "symmat.det_perm_oracle", "symmat.det_dp", "identbuild.build",
    "sl2exact.random_sl2z", "sl2exact.random_sl2_gaussian", "sl2exact.build",
    "sl2exact.exact_det", "sl2exact.left_kernel",
)


def _import_program():
    """Import tracedet from this checkout's ``src`` and refuse any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import tracedet.cli
    import tracedet.verify

    found = os.path.realpath(tracedet.cli.__file__)
    if not found.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"tracedet imported from {found}, not from {src}")
    return tracedet.cli, tracedet.verify


def _strip_millis(value):
    if isinstance(value, dict):
        return {k: _strip_millis(v) for k, v in value.items() if k != "millis"}
    if isinstance(value, list):
        return [_strip_millis(v) for v in value]
    return value


def _check_case(case: workloads.Case, code, text, error) -> tuple[list, list[str]]:
    """The parsed reports (empty where unusable) and one problem line per
    report that differs from the known answer."""
    n_expected = len(case.expect)
    if error is not None:
        return [], [f"{case.label}: raised {error}"] * n_expected
    try:
        reports = json.loads(text)
    except ValueError as exc:
        return [], [f"{case.label}: output is not JSON ({exc})"] * n_expected
    if not isinstance(reports, list) or len(reports) != n_expected:
        got = len(reports) if isinstance(reports, list) else type(reports).__name__
        return [], [f"{case.label}: {got} reports, expected {n_expected}"] * n_expected
    if case.exit_code is not None and code != case.exit_code:
        return reports, [f"{case.label}: exit code {code}, expected {case.exit_code}"] * n_expected
    problems = []
    for report, want in zip(reports, case.expect):
        where = f"{case.label}: {report.get('identity')} n={report.get('n')}"
        params = report.get("params", {})
        if (report.get("identity"), report.get("n")) != (want.identity, want.n):
            problems.append(f"{where}: expected {want.identity} n={want.n}")
        elif report.get("status") != want.status:
            problems.append(f"{where}: status {report.get('status')}, expected {want.status}")
        elif any(params.get(k) != v for k, v in want.params.items()):
            problems.append(f"{where}: params {params}, expected {want.params}")
        elif want.status == workloads.FAIL and "residual" not in report and "witness" not in report:
            problems.append(f"{where}: FAIL report carries no residual or witness")
    return reports, problems


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def run_pass(workload: str, seed: int, traced: bool, size: str = "full",
             spans_path: str | None = None) -> dict:
    cli, verify = _import_program()
    case_list = workloads.cases(workload, seed, size)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install({"tracedet.cli": cli, "tracedet.verify": verify})
    raw: list[tuple] = []

    def all_cases():
        for case in case_list:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    if case.argv is not None:
                        code = cli.run(list(case.argv))
                        text = buf.getvalue()
                    else:
                        # Called through the name the CLI binds, so that
                        # tracing sees it like the CLI's own calls.
                        report = cli.verify_thm1(4, corrupt_sign=True)
                        code, text = None, cli.render_report([report], "json")
            except Exception as exc:  # a raising case is a failed case
                raw.append((case, None, None, repr(exc)))
            else:
                raw.append((case, code, text, None))

    gc_before = _gc_collections()
    started = time.perf_counter()
    try:
        (tracer.span("bench.pass", all_cases) if tracer else all_cases)()
    finally:
        sweep_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    gc_collections = _gc_collections() - gc_before
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems: list[str] = []
    all_reports: list = []
    mutations_detected = 0
    for case, code, text, error in raw:
        reports, case_problems = _check_case(case, code, text, error)
        problems.extend(case_problems)
        all_reports.append(reports)
        if not case_problems:
            mutations_detected += sum(1 for e in case.expect if e.status == workloads.FAIL)
    flat = [r for reports in all_reports for r in reports]
    with_engines = [r for r in flat if "engines" in r.get("params", {})]
    dual = sum(1 for r in with_engines if r["params"]["engines"] == "dp+perm")
    digest = hashlib.sha256(
        json.dumps(_strip_millis(all_reports), sort_keys=True).encode()
    ).hexdigest()

    out = {
        "sweep_s": sweep_s,
        "peak_rss_kb": peak_rss_kb,
        "attempted": sum(len(case.expect) for case in case_list),
        "failed": len(problems),
        "problems": problems,
        "mutations_detected": mutations_detected,
        "reports_sha256": digest,
    }
    if tracer is not None:
        self_ms, calls, wall_ms = tracer.layer_totals()
        layers: dict[str, float] = {f"{name}.ms": self_ms.get(name, 0.0) for name in TIMED_LAYERS}
        layers.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED_LAYERS})
        det_calls = calls.get("sl2exact.exact_det", 0)
        layers.update({
            "symmat.det_dp.terms_out": tracer.counts["symmat.det_dp.terms_out"],
            "symmat.dual_engine_share": dual / len(with_engines) if with_engines else 0.0,
            "sl2exact.exact_det.zero_share":
                tracer.counts["sl2exact.exact_det.zeros"] / det_calls if det_calls else 0.0,
            "verify.cases": len(flat),
            "python.gc_collections": gc_collections,
            "trace.wall_ms": wall_ms,
        })
        out["layers"] = layers
        if spans_path is not None:
            tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.size, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
