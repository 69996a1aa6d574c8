"""Command-line front end: run verification sweeps and emit reports.

Grammar:
    tracedet verify {thm1|thm3|cor5|cor6|thm7|magnus|magnus-original|thm2|trace|all}
        [--n N] [--max-n N] [--trials T] [--seed S]
        [--generator {sl2z,gaussian}] [--eps {random,exhaustive}]
        [--format {text,json}] [--out PATH]

Exit codes: 0 all checks pass, 1 some check failed, 2 usage error (including
a size range that leaves nothing to check and an option the target ignores)
or a report that cannot be written, 3 internal error (a check raised an
exception).  --out is checked before any job runs but emptied only when the
report is written, so on exit 3 a file that was there keeps its contents and
one the run created is removed; a report that cannot be written is removed
too.  Only a regular file is ever removed.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import sys
from argparse import ArgumentParser, Namespace
from typing import Callable, Sequence, TextIO

from .verify import (
    EPS_MODES,
    GENERATORS,
    IDENTITIES,
    VerificationReport,
    check_size,
    verify_magnus_numeric,
    verify_magnus_original,
    verify_thm1,
    verify_thm2,
    verify_thm3_family,
    verify_trace_relation,
)

# Target -> its job at size n (None without a sweep) with variant v of its
# IDENTITIES row.  Each lambda looks its verify_* up in this module when the
# job runs, so a patched cli.verify_* sees every call.
JOBS: dict[str, Callable[[Namespace, int | None, str | None], VerificationReport]] = {
    "thm1": lambda cfg, n, v: verify_thm1(n),
    "thm3": lambda cfg, n, v: verify_thm3_family(n, "thm3"),
    "cor5": lambda cfg, n, v: verify_thm3_family(n, "cor5"),
    "cor6": lambda cfg, n, v: verify_thm3_family(n, "cor6"),
    "thm7": lambda cfg, n, v: verify_thm3_family(n, "thm7"),
    "magnus": lambda cfg, n, v: verify_magnus_numeric(n, cfg.trials, cfg.seed, v),
    "magnus-original": lambda cfg, n, v: verify_magnus_original(cfg.trials, cfg.seed),
    "thm2": lambda cfg, n, v: verify_thm2(n, cfg.trials, cfg.seed, v),
    "trace": lambda cfg, n, v: verify_trace_relation(cfg.trials, cfg.seed, v),
}
TARGETS = (*IDENTITIES, "all")

# 'all' runs every trialed check with this many trials unless --trials is given.
DEFAULT_TRIALS = 100
DEFAULT_SEED = 42
DEFAULT_MAX_N = 6
# Upper bounds that keep one command line from running without bound.  The
# costs were measured on one core of a shared 2-vCPU Intel Xeon virtual
# machine (Python 3.11.7).  --n is bounded by the target's IDENTITIES row,
# except that thm2 --eps exhaustive runs 2^n sign vectors: n = 9 took
# 0.3-0.5 s and n = 10 took 1.0-1.25 s; each further n costs 2-3 times more.
THM2_EXHAUSTIVE_MAX_N = 10
# Trials per check: 1000 trace trials took 0.06-0.12 s (sl2z) and
# 0.07-0.12 s (gaussian); 10^4 magnus trials at n = 24 take about 2 minutes.
MAX_TRIALS = 10_000


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="tracedet",
        description="Exact verification of determinant/Pfaffian and SL(2) trace identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run one verification or a sweep")
    v.add_argument("target", choices=TARGETS)
    v.add_argument("--n", type=int, help="single size to check")
    v.add_argument("--max-n", type=int, help="upper end of the default size range")
    v.add_argument("--trials", type=int, help="random trials per check")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    v.add_argument("--generator", choices=GENERATORS)
    v.add_argument("--eps", choices=EPS_MODES, help="thm2 sign vectors (default random)")
    v.add_argument("--format", choices=("text", "json"), default="text", dest="out_format")
    v.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _validated_config(parser: ArgumentParser, args: Namespace) -> Namespace:
    """Check args against the target's IDENTITIES row, or every row for
    'all', and fill in the defaults that depend on it (trials, max_n); the
    namespace returned is the run's config."""
    target = args.target
    rows = list(IDENTITIES.values()) if target == "all" else [IDENTITIES[target]]
    if args.n is not None and args.max_n is not None:
        parser.error("--n and --max-n are mutually exclusive")
    if args.n is not None and target == "all":
        parser.error("--n is not valid with 'all'; use --max-n")
    if args.trials is not None and not 1 <= args.trials <= MAX_TRIALS:
        parser.error(f"--trials must be between 1 and {MAX_TRIALS}")
    if args.max_n is not None and args.max_n < 0:
        parser.error("--max-n must be >= 0")
    # An option the target would ignore is an error, not a silent no-op.
    # 'all' runs both sign modes, so it takes no --eps.
    if args.eps is not None and (target == "all" or args.eps not in rows[0].variants):
        parser.error(f"--eps is not valid for {target}")
    exhaustive = args.eps == "exhaustive"
    what = f"{target} --eps exhaustive" if exhaustive else target
    trialed = not exhaustive and any(r.trials is not None for r in rows)
    if target == "thm2" and args.n is not None and not rows[0].asserts(args.n):
        trialed, what = False, f"thm2 --n {args.n}"  # it computes one determinant
    if args.trials is not None and not trialed:
        parser.error(f"--trials is not valid for {what}")
    if args.generator is not None and all(args.generator not in r.variants for r in rows):
        parser.error(f"--generator is not valid for {target}")
    for flag, value in (("--n", args.n), ("--max-n", args.max_n)):
        if value is not None and not any(r.sweep for r in rows):
            parser.error(f"{flag} is not valid for {target}")
    if args.n is not None:
        try:
            check_size(target, args.n)
        except ValueError as exc:
            parser.error(str(exc))
        high = THM2_EXHAUSTIVE_MAX_N if exhaustive else rows[0].high
        if args.n > high:
            parser.error(f"--n must be <= {high} for {what}")
    if args.trials is None:
        args.trials = DEFAULT_TRIALS if target == "all" else rows[0].trials
    args.max_n = DEFAULT_MAX_N if args.max_n is None else args.max_n
    return args


Job = Callable[[], VerificationReport]


def build_jobs(cfg: Namespace) -> list[Job]:
    """One job per size in range and per variant of the target, or of every
    target for 'all'.  A target runs the variant chosen with --generator or
    --eps, else every variant under 'all' and its first one otherwise."""
    everything = cfg.target == "all"
    jobs: list[Job] = []
    for target in IDENTITIES if everything else (cfg.target,):
        row = IDENTITIES[target]
        if not row.sweep or cfg.n is not None:  # --n is None without a sweep
            sizes: tuple[int | None, ...] = (cfg.n,)
        else:
            sizes = tuple(n for n in row.sweep if n <= cfg.max_n)
        chosen = tuple(v for v in row.variants if v and v in (cfg.generator, cfg.eps))
        for v in chosen or (row.variants if everything else row.variants[:1]):
            # Exhaustive mode runs 2^n sign vectors, so without --n it runs
            # the smallest size in range only.
            ns = sizes[:1] if v == "exhaustive" else sizes
            jobs += [functools.partial(JOBS[target], cfg, n, v) for n in ns]
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


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"tracedet: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _discard(out: TextIO, path: str, remove: bool) -> None:
    """Close --out and, if ``remove``, remove the file it leads to, so that
    no file reads as a truncated report; only a regular file is removed,
    never a device or a symlink."""
    try:
        out.close()
    except OSError:  # closing flushes again what could not be written
        pass
    target = os.path.realpath(path)
    if remove and os.path.isfile(target):
        os.remove(target)


def run(argv: Sequence[str] | None = None) -> int:
    # Plan: a usage error or an unwritable --out exits 2 before any job runs.
    parser = build_parser()
    try:
        cfg = _validated_config(parser, parser.parse_args(argv))
        jobs = build_jobs(cfg)
        if not jobs:
            parser.error(f"--max-n {cfg.max_n} leaves no {cfg.target} size to check")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # Append mode checks that --out is writable without emptying it.  A
        # file is the run's to remove once the run has created or emptied it.
        disposable = bool(cfg.out) and not os.path.exists(cfg.out)
        out = open(cfg.out, "a", encoding="utf-8") if cfg.out else sys.stdout
        if out is None:  # file descriptor 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    except OSError as exc:
        return _cannot_write(cfg.out or "stdout", exc)
    # Run the jobs: an exception is a bug, not a failed identity, so exit 3.
    try:
        reports = [job() for job in jobs]
        text = render_report(reports, cfg.out_format) + "\n"
    except Exception as exc:
        print(f"tracedet: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if cfg.out:
            _discard(out, cfg.out, remove=disposable)
        return 3
    # Write: one guarded write, to stdout or to --out.
    try:
        if cfg.out and os.path.isfile(cfg.out):
            out.truncate(0)
            disposable = True
        out.write(text)
        out.flush()
        if cfg.out:
            out.close()
    except OSError as exc:
        if cfg.out:
            _discard(out, cfg.out, remove=disposable)
        else:  # what sys.stdout still buffers would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _cannot_write(cfg.out or "stdout", exc)
    return 0 if all(r.passed for r in reports) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
