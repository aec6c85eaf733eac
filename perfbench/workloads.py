"""The benchmark's workloads: parameter set-up, one job each, and its oracle.

A job takes the loaded parameters and a job-local PRNG, runs one flow of
the public genjac API the way a CLI subcommand would, and checks the
outcome against an oracle the flow does not control.  It returns the
deterministic outputs as text, for the run digest, and the exact counts
that only its returned values carry (transcript leaves, check counts,
sampling skips, bench rows).

Library functions are looked up through their module at call time
(`jacobian.load_params`, `groups.element_order`, ...), never bound into
this module by name, so the tracer's run-time patches see every call.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from genjac import bench, dlp, groups, jacobian, numbertheory
from genjac.groups import ExtElement


@dataclass
class JobResult:
    ok: bool
    outputs: list[str]
    counts: Counter = field(default_factory=Counter)
    # wall-clock figures the library measured itself (bench row medians)
    times_ms: dict[str, float] = field(default_factory=dict)


def setup(p: int, seed: int, workdir: str):
    """What `gen-params` plus any CLI command pays: generate, write, load.

    Returns the loaded parameters and their text; the text must survive
    the round trip through the file unchanged.
    """
    text = jacobian.params_to_text(jacobian.make_toy_params(p, seed))
    path = os.path.join(workdir, "params.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    params = jacobian.load_params(path)
    if jacobian.params_to_text(params) != text:
        raise RuntimeError("parameter text does not round-trip through load_params")
    return params, text


def verify_job(params, rng) -> JobResult:
    """One pass of the `genjac verify` checks, one draw of each kind."""
    cocycle = params.modulus_cocycle(ext=True)
    triples, cocycle_skips = groups.sample_admissible_triples(cocycle, 1, rng)
    cocycle_report = groups.verify_cocycle(cocycle, triples)
    jac = params.jacobian(ext=True)
    triples, axiom_skips = groups.sample_operable_triples(jac, 1, rng)
    axiom_report = groups.verify_group_axioms(jac, triples)
    P = params.curve.random_point(rng)
    m = jacobian.pairing_order(P, params)
    lhs = jacobian.tate_from_group_law(P, params)
    rhs = jacobian.tate_by_miller(P, params.modulus.M, params.modulus.N, m)
    return JobResult(
        ok=cocycle_report.ok and axiom_report.ok and lhs == rhs,
        outputs=[
            f"cocycle relations: {cocycle_report.summary()} ({cocycle_skips} skipped)",
            f"group axioms: {axiom_report.summary()} ({axiom_skips} skipped)",
            f"pairing {P.serialize()} order {m}: {lhs.serialize()} / {rhs.serialize()}",
        ],
        counts=Counter({
            "groups.verify.checks": cocycle_report.checks + axiom_report.checks,
            "sample.accepted": 2,
            "sample.attempted": 2 + cocycle_skips + axiom_skips,
        }),
    )


BENCH_ROWS = ("jacobian", "product", "curve", "units")
BENCH_TRIALS = 5


def cost_job(params, rng) -> JobResult:
    """One strict `run_benchmark`: its per-trial invariants are the oracle."""
    report = bench.run_benchmark(
        params, trials=BENCH_TRIALS, scalar_bits=32, seed=rng.getrandbits(32), strict=True
    )
    rows = {row.label: row for row in report.rows}
    skipped = rows["jacobian"].skipped
    counts = Counter({
        "sample.accepted": report.trials,
        "sample.attempted": report.trials + skipped,
    })
    for label in BENCH_ROWS:
        counts[f"bench.{label}.muls_median"] = rows[label].muls_median
    return JobResult(
        ok=tuple(rows) == BENCH_ROWS and all(row.trials == BENCH_TRIALS for row in report.rows),
        outputs=[report.csv()],
        counts=counts,
        times_ms={f"bench.{label}.ms_median": rows[label].ms_median for label in BENCH_ROWS},
    )


def attack_job(params, rng) -> JobResult:
    """The `genjac attack` flow; the recovered exponent must be the secret."""
    jac = params.jacobian()
    gen = ExtElement(params.curve.random_point(rng), params.units().sample(rng))
    n = groups.element_order(jac, gen, params.jacobian_order())
    order = numbertheory.Factorization.from_int(n)
    secret = rng.randrange(n)
    target = jac.scalar_mul(secret, gen)
    solution = dlp.solve_extension_dlp(jac, gen, target, order)
    methods = solution.methods()
    baby_steps = sum(
        int(step.detail.split(", ")[1].split()[0])
        for step in solution.steps
        if step.method == "bsgs"
    )
    return JobResult(
        ok=solution.exponent == secret and solution.order == n,
        outputs=[
            f"generator {jac.serialize(gen)} order {order} secret {secret}",
            *(f"{step.method}: {step.detail}" for step in solution.steps),
            f"recovered {solution.exponent} mod {solution.order}",
        ],
        counts=Counter({
            "dlp.leaves.projected": methods.count("projected-to-A"),
            "dlp.leaves.pulled_back": methods.count("pulled-back-to-B"),
            "dlp.bsgs.baby_steps": baby_steps,
        }),
    )


# tracer labels every set-up must reach
SETUP_LABELS = frozenset({
    "jacobian.make_toy_params", "jacobian.load_params", "curve.enumerate_points", "field.sqrt",
})


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    job: Callable[..., JobResult]
    # set-ups per timed run; p = 10007 makes only two, because each takes
    # about 9 s and a third would push all the benchmark's runs past the
    # time they are given on a slow machine
    setup_repeats: int
    # the traced run replays this fixed job list so its counts are exact
    trace_jobs: int
    # tracer labels the jobs must reach; a wrapper that records nothing
    # here means a patch missed the name its callers look up
    expected: frozenset

    def job_rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}:{index}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-p103", 103, verify_job, setup_repeats=5, trace_jobs=40,
            expected=frozenset({
                "field.inverse", "field.sqrt", "curve.add", "curve.random_point",
                "curve.eval_line_fraction", "curve.element_order", "groups.ext_add",
                "groups.scalar_mul", "jacobian.cocycle", "jacobian.pairing_order",
                "jacobian.tate_from_group_law", "jacobian.tate_by_miller",
            }),
        ),
        Workload(
            "cost-p103", 103, cost_job, setup_repeats=5, trace_jobs=15,
            expected=frozenset({
                "field.inverse", "field.sqrt", "curve.add", "curve.random_point",
                "curve.eval_line_fraction", "groups.ext_add", "groups.scalar_mul",
                "jacobian.cocycle",
            }),
        ),
        Workload(
            "attack-p10007", 10007, attack_job, setup_repeats=2, trace_jobs=10,
            expected=frozenset({
                "field.inverse", "curve.add", "curve.random_point", "curve.eval_line_fraction",
                "groups.ext_add", "groups.scalar_mul", "groups.element_order",
                "jacobian.cocycle", "dlp.pohlig_hellman", "dlp.bsgs", "numbertheory.factorize",
            }),
        ),
    )
}
