"""Workload definitions: the cases each workload runs and their known answers.

A case is either one ``tracedet.cli.run(argv)`` call or one direct API call
(the mutation case, which the CLI cannot reach).  Every case carries the
reports it must produce, in the order the CLI renders them, and the exit
code it must return.  The answers are written out here rather than derived
from the program, so that a change to what the CLI schedules shows up as a
failed case instead of silently changing the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKLOADS = ("symbolic", "numeric-sl2z", "numeric-gaussian")

# Per-size knobs.  "full" is what the benchmark measures; "smallest" is the
# cheapest instance of the same case lists, used by the smoke test.
SIZES = {
    "full": {"max_n": 6, "trials": 10},
    "smallest": {"max_n": 2, "trials": 1},
}

PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True)
class Expect:
    """One report a case must produce; ``params`` must be a subset of the
    report's params."""

    identity: str
    n: int | None
    status: str = PASS
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Case:
    """A ``cli.run(argv)`` call; with ``argv`` None, the mutation case
    ``verify_thm1(4, corrupt_sign=True)``, which has no exit code."""

    label: str
    expect: tuple[Expect, ...]
    exit_code: int | None = 0
    argv: tuple[str, ...] | None = None


def _cli(seed: int, *args: str) -> tuple[str, ...]:
    return ("verify", *args, "--seed", str(seed), "--format", "json")


def _symbolic(seed: int, max_n: int) -> list[Case]:
    return [
        Case("thm1 sweep", tuple(Expect("thm1", n) for n in range(0, max_n + 1)),
             argv=_cli(seed, "thm1", "--max-n", str(max_n))),
        Case("thm3 sweep", tuple(Expect("thm3", n) for n in range(1, max_n + 1)),
             argv=_cli(seed, "thm3", "--max-n", str(max_n))),
        Case("cor5 sweep", tuple(Expect("cor5", n) for n in range(2, max_n + 1)),
             argv=_cli(seed, "cor5", "--max-n", str(max_n))),
        Case("cor6 sweep", tuple(Expect("cor6", n) for n in range(2, max_n + 1, 2)),
             argv=_cli(seed, "cor6", "--max-n", str(max_n))),
        Case("thm7 sweep", tuple(Expect("thm7", n) for n in range(2, max_n + 1, 2)),
             argv=_cli(seed, "thm7", "--max-n", str(max_n))),
        # One size past the sweep: at the full size (n=7, 8x8 matrices) only
        # det_dp runs, because the permutation oracle's bound is 7.
        Case(f"thm1 n={max_n + 1}", (Expect("thm1", max_n + 1),),
             argv=_cli(seed, "thm1", "--n", str(max_n + 1))),
        # Known-false input: a verifier that always passes fails this case.
        Case("thm1 n=4 corrupt_sign", (Expect("thm1", 4, FAIL, {"corrupt_sign": True}),),
             exit_code=None),
    ]


def _numeric_sl2z(seed: int, trials: int) -> list[Case]:
    t = str(trials)
    sl2z = {"generator": "sl2z"}
    return [
        Case("magnus sl2z", tuple(Expect("magnus", n, params=sl2z) for n in range(1, 7)),
             argv=_cli(seed, "magnus", "--generator", "sl2z", "--max-n", "6", "--trials", t)),
        Case("magnus-original", (Expect("magnus-original", 4),),
             argv=_cli(seed, "magnus-original", "--trials", t)),
        Case("thm2 random", tuple(Expect("thm2", n, params={"eps_mode": "random"}) for n in (5, 6)),
             argv=_cli(seed, "thm2", "--max-n", "6", "--trials", t)),
        Case("thm2 exhaustive", (Expect("thm2", 5, params={"eps_mode": "exhaustive", "cases": 32}),),
             argv=_cli(seed, "thm2", "--eps", "exhaustive", "--n", "5")),
        Case("trace sl2z", (Expect("trace", None, params=sl2z),),
             argv=_cli(seed, "trace", "--generator", "sl2z", "--trials", str(10 * trials))),
    ]


def _numeric_gaussian(seed: int, trials: int) -> list[Case]:
    # Twice the sl2z trial count: a gaussian trial costs about half as much.
    t = 2 * trials
    gaussian = {"generator": "gaussian"}
    return [
        Case("magnus gaussian", tuple(Expect("magnus", n, params=gaussian) for n in range(1, 7)),
             argv=_cli(seed, "magnus", "--generator", "gaussian", "--max-n", "6", "--trials", str(t))),
        Case("trace gaussian", (Expect("trace", None, params=gaussian),),
             argv=_cli(seed, "trace", "--generator", "gaussian", "--trials", str(10 * t))),
    ]


def cases(workload: str, seed: int, size: str = "full") -> list[Case]:
    knobs = SIZES[size]
    if workload == "symbolic":
        return _symbolic(seed, knobs["max_n"])
    if workload == "numeric-sl2z":
        return _numeric_sl2z(seed, knobs["trials"])
    if workload == "numeric-gaussian":
        return _numeric_gaussian(seed, knobs["trials"])
    raise ValueError(f"unknown workload {workload!r}")
