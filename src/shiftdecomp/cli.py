"""Command-line driver.

Subcommands map one-to-one onto the audit and suite entry points; every task
produces one JSON object per line with deterministic field order.  Exit codes:
0 when all expectations hold, 1 for usage/configuration errors, 2 when a
theorem-level expectation fails (every record is still printed, and each
offending record is echoed on stderr).  Audit records are written as each
subgroup's task finishes, in canonical order.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .audits import AuditKind, audit_theorems, primes_in_range, reproduce_counterexamples
from .errors import BoundViolationError, TheoremViolation
from .field import MAX_PRIME
from .suites import (ADDITIVE_SAMPLES, DERIVATIVE_CASES, GF_CASES, HARMONIC_CASES, NEWTON_CASES,
                     run_identity_suite, run_stepanov_suite, run_unity_suite)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# the product claim at order m holds all m(m-1)/2 chord products in memory; a
# full `unity audit` at this bound takes 6-9 s and 25 MB (2-core x86 host)
MAX_CLAIM_ORDER = 300
# about 0.14 ms per instance: `stepanov audit` at this bound takes 12-15 s and 17 MB
# (2-core x86 host)
MAX_INSTANCES = 100_000
# every order past 5 is empty by pigeonhole: `unity audit` at this bound takes 1.0 s
MAX_PAIRS_ORDER = 1_000_000
SUITE_SEED = 20260815

# (command, subcommand) -> (audit, default smallest prime, default largest prime)
_AUDITS = {
    ("verify", "sarkozy"): (AuditKind.SARKOZY_PRODUCT, 3, 61),
    ("verify", "ratio"): (AuditKind.SHIFTED_RATIO, 3, 31),
    ("verify", "levsonn"): (AuditKind.LEV_SONN_DIFFERENCE, 3, 61),
    ("verify", "kalmynin-sum"): (AuditKind.KALMYNIN_SUM, 3, 61),
    ("verify", "clique"): (AuditKind.PALEY_CLIQUE, 17, 101),
    ("census", "lambda-not-in-g"): (AuditKind.LAMBDA_CENSUS, 3, 19),
}


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}") from exc
    if not orders or any(d < 1 for d in orders):
        raise argparse.ArgumentTypeError(f"bad order list {text!r}")
    return orders


def _add_range_flags(parser: argparse.ArgumentParser, p_min: int, p_max: int) -> None:
    parser.add_argument("--pmin", type=int, default=p_min,
                        help=f"smallest prime (default {p_min})")
    parser.add_argument("--pmax", type=int, default=p_max,
                        help=f"largest prime (default {p_max})")
    parser.add_argument("--orders", type=_parse_orders, default=None,
                        help="comma-separated subgroup orders (default: all proper)")
    parser.add_argument("--oracle", choices=("on", "off"), default="on",
                        help="cross-check against the brute-force oracle at small p")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes, at most the CPU count (default 1)")
    parser.add_argument("--out", default=None, help="write records here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftdecomp",
        description="Exhaustive audits of shifted-subgroup decomposition claims.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    audit_subs = {}
    for command, text in (("verify", "run a theorem audit with assertions"),
                          ("census", "report findings without assertions")):
        audit_subs[command] = commands.add_parser(command, help=text).add_subparsers(
            dest="which", required=True)
    for (command, which), (_, p_min, p_max) in _AUDITS.items():
        _add_range_flags(audit_subs[command].add_parser(which), p_min, p_max)

    reproduce = commands.add_parser("reproduce", help="re-derive the known witnesses")
    reproduce_sub = reproduce.add_subparsers(dest="which", required=True)
    reproduce_cmd = reproduce_sub.add_parser("counterexamples")
    reproduce_cmd.add_argument("--out", default=None)

    stepanov = commands.add_parser("stepanov", help="auxiliary-polynomial suite")
    stepanov_sub = stepanov.add_subparsers(dest="which", required=True)
    stepanov_cmd = stepanov_sub.add_parser("audit")
    stepanov_cmd.add_argument("--instances", type=int, default=1000,
                              help="random instances "
                                   f"(default %(default)s, at most {MAX_INSTANCES})")
    stepanov_cmd.add_argument("--seed", type=int, default=SUITE_SEED)
    stepanov_cmd.add_argument("--out", default=None)

    identities = commands.add_parser("identities", help="exact identity fuzzing")
    identities_sub = identities.add_subparsers(dest="which", required=True)
    identities_cmd = identities_sub.add_parser("fuzz")
    identities_cmd.add_argument("--seed", type=int, default=SUITE_SEED)
    identities_cmd.add_argument("--out", default=None)

    unity = commands.add_parser("unity", help="roots-of-unity suite")
    unity_sub = unity.add_subparsers(dest="which", required=True)
    unity_cmd = unity_sub.add_parser("audit")
    unity_cmd.add_argument("--mmax-claim", dest="mmax_claim", type=int, default=100,
                           help="largest order for the chord-product claim "
                                f"(default %(default)s, at most {MAX_CLAIM_ORDER})")
    unity_cmd.add_argument("--mmax-pairs", dest="mmax_pairs", type=int, default=50,
                           help="largest order for the 2x2 decomposition search "
                                f"(default %(default)s, at most {MAX_PAIRS_ORDER})")
    unity_cmd.add_argument("--mmax-maps", dest="mmax_maps", type=int, default=8)
    unity_cmd.add_argument("--out", default=None)

    return parser


def _emit(records, handle) -> int:
    """Write each record as one sorted-key JSON line as soon as it is serialized;
    returns how many lines were written."""
    encode = json.JSONEncoder(sort_keys=True).encode
    written = 0
    for record in records:
        handle.write(encode(record) + "\n")
        written += 1
    return written


def _violation(exc: Exception) -> int:
    print(f"VIOLATION: {exc}", file=sys.stderr)
    for record in getattr(exc, "violations", ()):
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return EXIT_VIOLATION


def _usage_error(args) -> str | None:
    """Why the parsed arguments cannot run, or None when they can."""
    if (args.command, args.which) in _AUDITS:
        if args.pmax > MAX_PRIME:
            return f"--pmax must be at most {MAX_PRIME}"
        if args.pmin > args.pmax or not primes_in_range(args.pmin, args.pmax):
            return f"no odd primes in [{args.pmin}, {args.pmax}]"
        if args.workers < 1:
            return "--workers must be positive"
    elif args.command == "stepanov" and args.instances < 1:
        return "--instances must be positive"
    elif args.command == "stepanov" and args.instances > MAX_INSTANCES:
        return f"--instances must be at most {MAX_INSTANCES}"
    elif args.command == "unity" and (args.mmax_claim < 3 or args.mmax_pairs < 3
                                      or not 3 <= args.mmax_maps <= 12):
        return "unity bounds need mmax >= 3 (maps <= 12)"
    elif args.command == "unity" and args.mmax_claim > MAX_CLAIM_ORDER:
        return f"--mmax-claim must be at most {MAX_CLAIM_ORDER}"
    elif args.command == "unity" and args.mmax_pairs > MAX_PAIRS_ORDER:
        return f"--mmax-pairs must be at most {MAX_PAIRS_ORDER}"
    return None


def _run_audit(args, kind: AuditKind, out) -> int:
    """Stream the audit's records to ``out`` as each task finishes.

    A TheoremViolation arrives after the last record, so every record is out
    before it is reported; any other error leaves the records of the tasks
    before it on ``out``.
    """
    records = audit_theorems(args.pmin, args.pmax, kind, orders=args.orders,
                             oracle=args.oracle == "on", workers=args.workers)
    try:
        written = _emit(records, out)
    except TheoremViolation as exc:
        return _violation(exc)
    if not written:
        print("error: no audit tasks for the selected primes and --orders", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _run_reproduce(out) -> int:
    try:
        records = reproduce_counterexamples()
    except TheoremViolation as exc:
        return _violation(exc)
    _emit(records, out)
    return EXIT_OK


def _run_suite(args, out) -> int:
    """Run one suite and write its record: the settings it ran with, then what it
    measured, with each list of failure records written as its count (the
    failing unity orders are written out).

    The suites are looked up in this module at call time, so that a patched
    ``run_*_suite`` here is the one that runs.
    """
    try:
        if args.command == "stepanov":
            name = "stepanov"
            result = run_stepanov_suite(instances=args.instances, seed=args.seed)
            record = {"instances": args.instances, "additive_checked": ADDITIVE_SAMPLES,
                      "lam_in_g_instances": result.lam_in_g_instances,
                      "general_equalities": result.general_equalities,
                      "shifted_equalities": result.shifted_equalities,
                      "anomalies": len(result.anomalies),
                      "additive_failures": len(result.additive_failures),
                      "flagship_degree": result.flagship_degree}
        elif args.command == "identities":
            name = "identity"
            result = run_identity_suite(seed=args.seed)
            record = {"gf_checked": GF_CASES, "newton_checked": NEWTON_CASES,
                      "derivative_checked": DERIVATIVE_CASES,
                      "harmonic_checked": HARMONIC_CASES,
                      "failures": len(result.failures)}
        else:
            name = "unity"
            result = run_unity_suite(claim_max=args.mmax_claim,
                                     decomposition_max=args.mmax_pairs,
                                     classify_max=args.mmax_maps)
            record = {"claim_orders_checked": args.mmax_claim - 2,
                      "decomposition_orders_checked": args.mmax_pairs - 2,
                      "classified_orders": list(range(3, args.mmax_maps + 1)),
                      "claim_failures": result.claim_failures,
                      "decomposition_witnesses": len(result.decomposition_witnesses),
                      "max_quadruple_class": result.max_quadruple_class}
    except (BoundViolationError, TheoremViolation) as exc:
        return _violation(exc)
    _emit([{"task": f"{name}-suite", "passed": result.passed, **record}], out)
    if not result.passed:
        print(f"VIOLATION: {name} suite failed: {result}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    error = _usage_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    # open the sink before any work, so an unwritable --out costs nothing
    try:
        sink = nullcontext(sys.stdout) if args.out is None else open(args.out, "w",
                                                                     encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    with sink as out:
        audit = _AUDITS.get((args.command, args.which))
        if audit is not None:
            return _run_audit(args, audit[0], out)
        if args.command == "reproduce":
            return _run_reproduce(out)
        return _run_suite(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
