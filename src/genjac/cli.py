"""Command line front end.

Subcommands:

    gen-params   sample a parameter file for the toy curve family
    verify       re-run the consistency checks against a parameter file
    pairing      evaluate the pairing two independent ways for one point
    attack       build a random extension DLP instance and solve it
    bench        multiplication-count comparison across the four groups

Exit codes: 0 on success, 1 on a usage error, 2 on a computational failure
(bad parameter file, failed check, unsolvable instance), 141 (128 + SIGPIPE)
when the reader of stdout closes it early.  All randomized commands take
their seed from --seed, else 0, so output is reproducible by default.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .bench import MIN_SCALAR_BITS, MIN_TRIALS, BenchInvariantError, run_benchmark
from .dlp import BSGS_ORDER_BOUND, NoSolutionError, solve_extension_dlp
from .groups import CheckReport, ExtElement, SupportCollisionError, element_order, \
    sample_admissible_triples, sample_operable_triples, verify_cocycle, verify_group_axioms
from .jacobian import PRNG_NAME, load_params, make_toy_params, pairing_order, params_to_text, \
    reduce_pairing_value, tate_by_miller, tate_from_group_law


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this interface reserves 2 for
    # computational failures, so route usage errors to 1
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low: int):
    """argparse type: an integer >= low, anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _cmd_gen_params(args: argparse.Namespace) -> int:
    params = make_toy_params(args.p, seed=args.seed)
    text = params_to_text(params)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


def _pairing_values(P, params, point_order=None):
    """The pairing order m of P and P's unreduced pairing value by the group law and by Miller."""
    m = pairing_order(P, params, point_order)
    return m, tate_from_group_law(P, params, m), tate_by_miller(P, params.modulus.M, params.modulus.N, m)


def _cmd_verify(args: argparse.Namespace) -> int:
    params = load_params(args.params)
    rng = random.Random(args.seed)
    named = "" if params.seed is None else f" seed={params.seed} prng={PRNG_NAME}"
    print(f"params: p={params.curve.field.p}{named}")
    print(f"orders: curve {params.curve_order}; extended {params.ext_curve_order}; "
          f"units {params.unit_order}")

    cocycle = params.modulus_cocycle(ext=True)
    triples, skipped = sample_admissible_triples(cocycle, args.checks, rng)
    cocycle_report = verify_cocycle(cocycle, triples)
    print(f"cocycle relations: {cocycle_report.summary()} ({skipped} draws skipped)")

    jac = params.jacobian(ext=True)
    triples, skipped = sample_operable_triples(jac, args.checks, rng)
    axiom_report = verify_group_axioms(jac, triples)
    print(f"group axioms: {axiom_report.summary()} ({skipped} draws skipped)")

    pairing_report = CheckReport()
    for _ in range(args.pairing_checks):
        P = params.curve.random_point(rng)
        _, lhs, rhs = _pairing_values(P, params)
        pairing_report.record(lhs == rhs, f"pairing agreement at {P.serialize()}")
    print(f"pairing cross-check: {pairing_report.summary()}")

    failures = cocycle_report.failures + axiom_report.failures + pairing_report.failures
    for label in failures[:3]:
        print(f"failed: {label}")
    print("CHECKS FAILED" if failures else "all checks passed")
    return 2 if failures else 0


def _cmd_pairing(args: argparse.Namespace) -> int:
    params = load_params(args.params)
    P = params.curve.parse_point(args.point)
    point_order = element_order(params.curve, P, params.curve_order)
    m, lhs, rhs = _pairing_values(P, params, point_order)
    print(f"point: {P.serialize()} (order {point_order})")
    print(f"pairing order: {m}")
    print(f"group-law value: {lhs.serialize()}")
    print(f"miller value: {rhs.serialize()}")
    print(f"agreement: {str(lhs == rhs).lower()}")
    try:
        reduced = reduce_pairing_value(lhs, m, params.unit_order.n)
    except ValueError as exc:
        # m does not divide p^2 - 1, so the value has no reduced representative
        print(f"reduced value: none ({exc})")
    else:
        print(f"reduced value: {reduced.serialize()} (exponent {params.unit_order.n // m})")
    return 0 if lhs == rhs else 2


def _cmd_attack(args: argparse.Namespace) -> int:
    params = load_params(args.params)
    rng = random.Random(args.seed)
    jac = params.jacobian()
    gen = ExtElement(params.curve.random_point(rng), params.units().sample(rng))
    n = element_order(jac, gen, params.jacobian_order())
    order = params.jacobian_order().divisor(n)
    # every prime of the order becomes one baby-step leaf; refuse before any output
    if (prime := max((l for l, _ in order.factors), default=1)) > BSGS_ORDER_BOUND:
        raise ValueError(f"generator order has prime {prime} above the baby-step bound {BSGS_ORDER_BOUND}")
    secret = rng.randrange(n) if args.secret is None else args.secret
    if not 0 <= secret < n:
        raise ValueError(f"secret must lie in [0, {n})")
    target = jac.scalar_mul(secret, gen)
    print(f"group: {jac.describe()}")
    print(f"generator: {jac.serialize(gen)} (order {order})")
    print(f"secret: {secret}")
    print(f"target: {jac.serialize(target)}")
    solution = solve_extension_dlp(jac, gen, target, order)
    print("transcript:")
    for step in solution.steps:
        print(f"  {step.method}: {step.detail}")
    print(f"recovered: {solution.exponent} mod {solution.order}")
    ok = solution.exponent == secret
    print(f"verified: {str(ok).lower()}")
    return 0 if ok else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    params = load_params(args.params)
    report = run_benchmark(
        params,
        trials=args.trials,
        scalar_bits=args.bits,
        seed=args.seed,
    )
    print(report.csv(include_time=args.time))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="genjac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-params", help="sample a parameter file")
    p.add_argument("--p", type=int, default=11, help="base field characteristic, 3 mod 4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=_cmd_gen_params)

    p = sub.add_parser("verify", help="re-run consistency checks")
    p.add_argument("--params", required=True)
    p.add_argument("--checks", type=_int_at_least(1), default=100)
    p.add_argument("--pairing-checks", type=_int_at_least(0), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pairing", help="evaluate the pairing both ways for one point")
    p.add_argument("--params", required=True)
    p.add_argument("--point", required=True, help='base curve point, "x;y" or "inf"')
    p.set_defaults(func=_cmd_pairing)

    p = sub.add_parser("attack", help="solve a random extension DLP instance")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--secret", type=int, default=None, help="use this exponent instead of a random one")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("bench", help="multiplication-count comparison, CSV on stdout")
    p.add_argument("--params", required=True)
    p.add_argument("--trials", type=_int_at_least(MIN_TRIALS), default=8)
    p.add_argument("--bits", type=_int_at_least(MIN_SCALAR_BITS), default=8, help="scalar width in bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time", action="store_true", help="fill the wall-clock column")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: drop the rest, as a SIGPIPE would, and keep
        # the flush at exit from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError, RuntimeError, NoSolutionError,
            SupportCollisionError, BenchInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
