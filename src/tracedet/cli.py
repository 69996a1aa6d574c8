"""Command-line front end: run verification sweeps and emit reports.

Grammar:
    tracedet verify {thm1|thm3|cor5|cor6|thm7|magnus|magnus-original|thm2|trace|all}
        [--n N] [--max-n N] [--trials T] [--seed S]
        [--generator {sl2z,gaussian}] [--eps {random,exhaustive}]
        [--format {text,json}] [--out PATH]

Exit codes: 0 all checks pass, 1 some check failed, 2 usage error (including
a size range that leaves nothing to check and an option the target ignores),
3 internal error (a check raised an exception; no --out file is left).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .verify import (
    GAUSSIAN,
    SIZES,
    SL2Z,
    VerificationReport,
    check_size,
    verify_magnus_numeric,
    verify_magnus_original,
    verify_thm1,
    verify_thm2,
    verify_thm3_family,
    verify_trace_relation,
)

# Target -> its job at size n (None for the targets not in SIZES) with
# generator or sign mode v.  The key order is the order 'all' runs the
# targets in.  Each lambda looks its verify_* up in this module when the job
# runs, so a patched cli.verify_* sees every call.
JOBS: dict[str, Callable[[CliConfig, int | None, str], VerificationReport]] = {
    "thm1": lambda cfg, n, v: verify_thm1(n),
    "thm3": lambda cfg, n, v: verify_thm3_family(n, "thm3"),
    "cor5": lambda cfg, n, v: verify_thm3_family(n, "cor5"),
    "cor6": lambda cfg, n, v: verify_thm3_family(n, "cor6"),
    "thm7": lambda cfg, n, v: verify_thm3_family(n, "thm7"),
    "magnus": lambda cfg, n, v: verify_magnus_numeric(n, cfg.trials, cfg.master_seed, v),
    "magnus-original": lambda cfg, n, v: verify_magnus_original(cfg.trials, cfg.master_seed),
    "thm2": lambda cfg, n, v: verify_thm2(n, cfg.trials, cfg.master_seed, v),
    "trace": lambda cfg, n, v: verify_trace_relation(cfg.trials, cfg.master_seed, v),
}
TARGETS = (*JOBS, "all")
# The targets that sample with --generator; 'all' runs them with both.
PER_GENERATOR = ("magnus", "trace")
# The targets that run random trials; the symbolic ones take no --trials.
TRIALED = ("magnus", "magnus-original", "thm2", "trace")

DEFAULT_TRIALS = 100
DEFAULT_TRACE_TRIALS = 1000
DEFAULT_SEED = 42
DEFAULT_MAX_N = 6
# Upper bounds that keep one command line from running without bound.  The
# costs were measured on one 2.1 GHz Xeon core (Python 3.11).  --n is bounded
# by SIZES[target].high, except that thm2 --eps exhaustive runs 2^n sign
# vectors: n = 9 took 11 s and n = 10 took 32 s; each further n costs about
# 2.5 times more.
THM2_EXHAUSTIVE_MAX_N = 10
# Trials per check: 1000 trace trials took 4.7 s (sl2z) and 0.95 s
# (gaussian); 10^4 magnus trials at n = 24 would take about an hour.
MAX_TRIALS = 10_000


@dataclass
class CliConfig:
    """Fully validated run configuration; built before any computation."""

    target: str
    n: int | None
    max_n: int
    trials: int
    master_seed: int
    generator: str
    eps_mode: str
    out_format: str
    out_path: str | None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracedet",
        description="Exact verification of determinant/Pfaffian and SL(2) trace identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run one verification or a sweep")
    v.add_argument("target", choices=TARGETS)
    v.add_argument("--n", type=int, default=None, help="single size to check")
    v.add_argument("--max-n", type=int, default=None, dest="max_n",
                   help="upper end of the default size range")
    v.add_argument("--trials", type=int, default=None, help="random trials per check")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    v.add_argument("--generator", choices=(SL2Z, GAUSSIAN), default=None)
    v.add_argument("--eps", choices=("random", "exhaustive"), default=None,
                   help="thm2 sign vectors (default random)")
    v.add_argument("--format", choices=("text", "json"), default="text", dest="out_format")
    v.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def _validated_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> CliConfig:
    target = args.target
    if args.n is not None and args.max_n is not None:
        parser.error("--n and --max-n are mutually exclusive")
    if args.n is not None and target == "all":
        parser.error("--n is not valid with 'all'; use --max-n")
    if args.trials is not None and not 1 <= args.trials <= MAX_TRIALS:
        parser.error(f"--trials must be between 1 and {MAX_TRIALS}")
    if args.max_n is not None and args.max_n < 0:
        parser.error("--max-n must be >= 0")
    # An option the target would ignore is an error, not a silent no-op.
    if args.eps is not None and target != "thm2":
        parser.error(f"--eps is not valid for {target}")
    eps_mode = args.eps or "random"
    exhaustive = eps_mode == "exhaustive"
    what = "thm2 --eps exhaustive" if exhaustive else target
    if args.trials is not None and (target not in (*TRIALED, "all") or exhaustive):
        parser.error(f"--trials is not valid for {what}")
    if args.generator is not None and target not in (*PER_GENERATOR, "all"):
        parser.error(f"--generator is not valid for {target}")
    if args.n is not None:
        if target not in SIZES:
            parser.error(f"--n is not valid for {target}")
        try:
            check_size(target, args.n)
        except ValueError as exc:
            parser.error(str(exc))
        high = THM2_EXHAUSTIVE_MAX_N if exhaustive else SIZES[target].high
        if args.n > high:
            parser.error(f"--n must be <= {high} for {what}")
    trials = args.trials
    if trials is None:
        trials = DEFAULT_TRACE_TRIALS if target == "trace" else DEFAULT_TRIALS
    return CliConfig(
        target=target,
        n=args.n,
        max_n=args.max_n if args.max_n is not None else DEFAULT_MAX_N,
        trials=trials,
        master_seed=args.seed,
        generator=args.generator,
        eps_mode=eps_mode,
        out_format=args.out_format,
        out_path=args.out,
    )


def _sizes(cfg: CliConfig, target: str) -> tuple[int | None, ...]:
    if target not in SIZES:
        return (None,)
    if cfg.n is not None:
        return (cfg.n,)
    return tuple(n for n in SIZES[target].sweep if n <= cfg.max_n)


Job = Callable[[], VerificationReport]


def build_jobs(cfg: CliConfig) -> list[Job]:
    """One job per size in range of the target, or of every target for
    'all', and per generator for the targets in PER_GENERATOR."""
    everything = cfg.target == "all"
    gens = (cfg.generator,) if cfg.generator else (SL2Z, GAUSSIAN) if everything else (SL2Z,)
    jobs: list[Job] = []
    for target in JOBS if everything else (cfg.target,):
        sizes = _sizes(cfg, target)
        if target == "thm2":
            # Exhaustive mode runs 2^n sign vectors, so without --n it runs
            # the smallest size in range only; 'all' runs both sign modes.
            modes = ("random", "exhaustive") if everything else (cfg.eps_mode,)
            runs = [(m, sizes[:1] if m == "exhaustive" else sizes) for m in modes]
        else:
            runs = [(g, sizes) for g in (gens if target in PER_GENERATOR else gens[:1])]
        jobs += [functools.partial(JOBS[target], cfg, n, v) for v, ns in runs for n in ns]
    return jobs


def _sort_key(report: VerificationReport):
    return (
        report.identity,
        report.n if report.n is not None else -1,
        str(report.params.get("generator", "")),
        str(report.params.get("eps_mode", "")),
    )


def render_report(reports: Sequence[VerificationReport], out_format: str) -> str:
    """Deterministic rendering; json output follows the report schema."""
    ordered = sorted(reports, key=_sort_key)
    if out_format == "json":
        return json.dumps([r.to_json_dict() for r in ordered], indent=2)
    lines = []
    for r in ordered:
        bits = [r.status, r.identity]
        if r.n is not None:
            bits.append(f"n={r.n}")
        gen = r.params.get("generator")
        if gen:
            bits.append(f"generator={gen}")
        if r.params.get("eps_mode") == "exhaustive":
            bits.append("eps=exhaustive")
        lines.append(" ".join(bits) + f" ({r.millis:.1f} ms)")
        if r.residual is not None:
            lines.append(f"  residual: {r.residual}")
        if r.witness is not None:
            lines.append(f"  witness: {json.dumps(r.witness)}")
    return "\n".join(lines)


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _validated_config(parser, args)
        jobs = build_jobs(cfg)
        if not jobs:
            parser.error(f"--max-n {cfg.max_n} leaves no {cfg.target} size to check")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Open --out before any job runs, so an unwritable path is a usage error.
    out = contextlib.nullcontext(sys.stdout)
    if cfg.out_path:
        try:
            out = open(cfg.out_path, "w", encoding="utf-8")
        except OSError as exc:
            print(f"tracedet: cannot write {cfg.out_path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    with out as handle:
        try:
            reports = [job() for job in jobs]
        except Exception as exc:  # a bug, not a failed identity: exit 3
            print(f"tracedet: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            reports = None
        else:
            handle.write(render_report(reports, cfg.out_format) + "\n")
    if reports is None:
        # No report rather than an empty file that reads as a truncated one.
        if cfg.out_path:
            os.remove(cfg.out_path)
        return 3
    return 0 if all(r.passed for r in reports) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
