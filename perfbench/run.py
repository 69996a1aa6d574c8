"""tracedet benchmark: sweep time, peak memory and set-up time per workload,
or per-layer self times and work counts from a traced run.

    python3 perfbench/run.py --workload symbolic --seed 42 --seconds 42 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each pass of the workload runs in a fresh interpreter (``worker.py``), so
its peak resident memory is its own.  Passes repeat until the next one
would end past ``--seconds``, with at least two, and the medians are
reported.  With ``--trace 1`` passes alternate untraced and traced, and the
traced ones give the per-layer numbers.  Spans of traced passes are written
to ``perfbench/traces/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the numbers
were measured; ``correct`` says whether every verdict matched its known
answer.  Any other exit code means nothing was measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import COUNTED_LAYERS, TIMED_LAYERS  # noqa: E402

DEFAULT_SEED = 42
MIN_PASSES = 2
# Set-up is timed in batches before each pass and after the last one, up
# to SETUP_SAMPLES in all. On a shared machine the speed can shift every few
# seconds, and samples spread over the run see more of those shifts than one
# batch does.
SETUP_BATCH = 3
SETUP_SAMPLES = 24
PASS_TIMEOUT_S = 170

END_TO_END = {"sweep_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _per_layer_units() -> dict[str, str]:
    units = {f"{name}.ms": "ms" for name in TIMED_LAYERS}
    units.update({f"{name}.calls": "count" for name in COUNTED_LAYERS})
    units.update({
        "symmat.det_dp.terms_out": "count",
        "symmat.dual_engine_share": "share",
        "sl2exact.exact_det.zero_share": "share",
        "verify.cases": "count",
        "python.gc_collections": "count",
        "trace.wall_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()
# Per-layer values that count work: they must repeat exactly between passes.
EXACT = {name for name, unit in PER_LAYER.items() if unit in ("count", "share")} - {"python.gc_collections"}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    """Where and on what the run happened; the load average is read again at
    the end so that runs made on a busy machine can be spotted."""
    digest = hashlib.sha256()
    src_pkg = os.path.join(SRC, "tracedet")
    for name in sorted(os.listdir(src_pkg)):
        if name.endswith(".py"):
            with open(os.path.join(src_pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def time_setup(count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters each importing tracedet.cli."""
    cmd = [sys.executable, "-c", "import tracedet.cli"]
    env = _env()
    times = []
    for _ in range(count):
        started = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"importing tracedet.cli failed:\n{proc.stderr}")
    return times


def run_worker(workload: str, seed: int, traced: bool, size: str, spans_path: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--size", size]
    if spans_path is not None:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Run passes for about ``seconds`` and return the result object and a
    detail record (environment, per-pass numbers, problems)."""
    env_record = environment()
    setup_times: list[float] = []
    if not trace:
        time_setup(1)  # untimed: writes the bytecode cache
    spans_dir = os.path.join(HERE, "traces")
    if trace:
        os.makedirs(spans_dir, exist_ok=True)

    passes: list[dict] = []
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        if not trace and len(setup_times) < SETUP_SAMPLES:
            setup_times += time_setup(SETUP_BATCH)
        traced = trace and len(passes) % 2 == 1
        spans_path = (os.path.join(spans_dir, f"{workload}-seed{seed}-pass{len(passes)}.jsonl")
                      if traced else None)
        t0 = time.perf_counter()
        result = run_worker(workload, seed, traced, size, spans_path)
        durations.append(time.perf_counter() - t0)
        result["traced"] = traced
        passes.append(result)
        print(f"pass {len(passes)}{' traced' if traced else ''}: sweep_s={result['sweep_s']:.4f} "
              f"peak_rss_mb={result['peak_rss_kb'] / 1024:.1f} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    if not trace:
        setup_times += time_setup(SETUP_BATCH)
    env_record["loadavg_end"] = os.getloadavg()

    problems = [p for r in passes for p in r["problems"]]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    # Same seed, same code: every pass must render the same reports.
    for k, r in enumerate(passes[1:], start=2):
        if r["reports_sha256"] != passes[0]["reports_sha256"]:
            problems.append(f"pass {k}: reports differ from pass 1 (millis removed)")
            failed += r["attempted"] - r["failed"]

    untraced = [r for r in passes if not r["traced"]]
    metrics: dict[str, dict] = {}
    if not trace:
        values = {
            "sweep_s": statistics.median(r["sweep_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in untraced),
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        traced_passes = [r for r in passes if r["traced"]]
        layers = [r["layers"] for r in traced_passes]
        values = {}
        for name in PER_LAYER:
            if name == "trace.overhead_ratio":
                values[name] = (statistics.median(r["sweep_s"] for r in traced_passes)
                                / statistics.median(r["sweep_s"] for r in untraced))
            elif name in EXACT:
                values[name] = layers[0][name]
                if any(layer[name] != values[name] for layer in layers):
                    problems.append(f"{name} differs between traced passes")
            else:
                values[name] = statistics.median(layer[name] for layer in layers)
        for layer in layers:
            self_sum = sum(layer[f"{name}.ms"] for name in TIMED_LAYERS)
            if abs(self_sum - layer["trace.wall_ms"]) > 1e-6 * layer["trace.wall_ms"]:
                problems.append(f"self times sum to {self_sum} ms, traced wall is {layer['trace.wall_ms']} ms")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "environment": env_record,
        "passes": passes,
        "setup_times": setup_times,
        "problems": problems,
        "failed_ratio": failed / attempted,
        "mutations_detected": sum(r["mutations_detected"] for r in passes),
    }
    return result, detail


def main(argv=None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tracedet", "cli.py")):
        print(f"error: {SRC}/tracedet/cli.py not found; run from a tracedet checkout",
              file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), size)
    print("environment: " + json.dumps(detail["environment"]))
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    print(f"failed_ratio: {detail['failed_ratio']} share "
          f"({result['failed']} of {result['attempted']} cases); "
          f"mutations detected: {detail['mutations_detected']}")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
