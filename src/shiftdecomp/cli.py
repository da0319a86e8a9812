"""Command-line driver.

Subcommands map one-to-one onto the audit and suite entry points; every task
produces one JSON object per line with deterministic field order.  Exit codes:
0 when all expectations hold, 1 for usage/configuration errors, 2 when a
theorem-level expectation fails (every record is still printed, and each
offending record is echoed on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import fields
from functools import partial
from typing import get_type_hints

from .audits import AuditKind, audit_theorems, primes_in_range, reproduce_counterexamples
from .errors import BoundViolationError, TheoremViolation
from .field import MAX_PRIME
from .suites import run_identity_suite, run_stepanov_suite, run_unity_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_VERIFY_KINDS = {
    "sarkozy": AuditKind.SARKOZY_PRODUCT,
    "ratio": AuditKind.SHIFTED_RATIO,
    "levsonn": AuditKind.LEV_SONN_DIFFERENCE,
    "kalmynin-sum": AuditKind.KALMYNIN_SUM,
    "clique": AuditKind.PALEY_CLIQUE,
}

_VERIFY_DEFAULTS = {
    "sarkozy": (3, 61),
    "ratio": (3, 31),
    "levsonn": (3, 61),
    "kalmynin-sum": (3, 61),
    "clique": (17, 101),
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

    verify = commands.add_parser("verify", help="run a theorem audit with assertions")
    verify_sub = verify.add_subparsers(dest="which", required=True)
    for name, (p_min, p_max) in _VERIFY_DEFAULTS.items():
        sub = verify_sub.add_parser(name)
        _add_range_flags(sub, p_min, p_max)
        if name == "sarkozy":
            sub.add_argument("--lambda-scope", dest="lambda_scope",
                             choices=("in-g", "not-in-g", "all"), default="in-g",
                             help="which shifts to audit (default in-g)")

    census = commands.add_parser("census", help="report findings without assertions")
    census_sub = census.add_subparsers(dest="which", required=True)
    census_cmd = census_sub.add_parser("lambda-not-in-g")
    _add_range_flags(census_cmd, 3, 19)

    reproduce = commands.add_parser("reproduce", help="re-derive the known witnesses")
    reproduce_sub = reproduce.add_subparsers(dest="which", required=True)
    reproduce_cmd = reproduce_sub.add_parser("counterexamples")
    reproduce_cmd.add_argument("--out", default=None)

    stepanov = commands.add_parser("stepanov", help="auxiliary-polynomial suite")
    stepanov_sub = stepanov.add_subparsers(dest="which", required=True)
    stepanov_cmd = stepanov_sub.add_parser("audit")
    stepanov_cmd.add_argument("--instances", type=int, default=1000)
    stepanov_cmd.add_argument("--seed", type=int, default=20260815)
    stepanov_cmd.add_argument("--out", default=None)

    identities = commands.add_parser("identities", help="exact identity fuzzing")
    identities_sub = identities.add_subparsers(dest="which", required=True)
    identities_cmd = identities_sub.add_parser("fuzz")
    identities_cmd.add_argument("--seed", type=int, default=20260815)
    identities_cmd.add_argument("--out", default=None)

    unity = commands.add_parser("unity", help="roots-of-unity suite")
    unity_sub = unity.add_subparsers(dest="which", required=True)
    unity_cmd = unity_sub.add_parser("audit")
    unity_cmd.add_argument("--mmax-claim", dest="mmax_claim", type=int, default=100)
    unity_cmd.add_argument("--mmax-pairs", dest="mmax_pairs", type=int, default=50)
    unity_cmd.add_argument("--mmax-maps", dest="mmax_maps", type=int, default=8)
    unity_cmd.add_argument("--out", default=None)

    return parser


def _emit(records, out_path: str | None) -> None:
    """Write each record as one sorted-key JSON line as soon as it is serialized."""
    sink = nullcontext(sys.stdout) if out_path is None else open(out_path, "w", encoding="utf-8")
    with sink as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _violation(exc: Exception) -> int:
    print(f"VIOLATION: {exc}", file=sys.stderr)
    for record in getattr(exc, "violations", ()):
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return EXIT_VIOLATION


def _run_audit(args, kind: AuditKind) -> int:
    if args.pmax > MAX_PRIME:
        print(f"error: --pmax must be at most {MAX_PRIME}", file=sys.stderr)
        return EXIT_USAGE
    if args.pmin > args.pmax or not primes_in_range(args.pmin, args.pmax):
        print(f"error: no odd primes in [{args.pmin}, {args.pmax}]", file=sys.stderr)
        return EXIT_USAGE
    if args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return EXIT_USAGE
    kinds = [kind]
    if kind is AuditKind.SARKOZY_PRODUCT:
        scope = getattr(args, "lambda_scope", "in-g")
        if scope == "not-in-g":
            kinds = [AuditKind.LAMBDA_CENSUS]
        elif scope == "all":
            kinds = [AuditKind.SARKOZY_PRODUCT, AuditKind.LAMBDA_CENSUS]
    records = []
    violations = []
    for k in kinds:
        try:
            records.extend(
                audit_theorems(
                    args.pmin,
                    args.pmax,
                    k,
                    orders=args.orders,
                    oracle=args.oracle == "on",
                    workers=args.workers,
                )
            )
        except TheoremViolation as exc:
            records.extend(exc.records)
            violations.append(exc)
    if not records:
        print("error: no audit tasks for the selected primes and --orders", file=sys.stderr)
        return EXIT_USAGE
    _emit(records, args.out)
    for exc in violations:
        _violation(exc)
    return EXIT_VIOLATION if violations else EXIT_OK


def _run_reproduce(args) -> int:
    try:
        records = reproduce_counterexamples()
    except TheoremViolation as exc:
        return _violation(exc)
    _emit(records, args.out)
    return EXIT_OK


# a suite result field the summary leaves out, since ``passed`` already covers it
_UNREPORTED = frozenset({"flagship_tight"})


def _summary(task: str, result) -> dict:
    """Every field of a suite result plus ``passed``; a bare ``tuple`` field
    holds failure records and is written as their count."""
    hints = get_type_hints(type(result))
    summary = {"task": task, "passed": result.passed}
    for field in fields(result):
        if field.name not in _UNREPORTED:
            value = getattr(result, field.name)
            summary[field.name] = len(value) if hints[field.name] is tuple else value
    return summary


def _run_suite(args) -> int:
    if args.command == "stepanov":
        if args.instances < 1:
            print("error: --instances must be positive", file=sys.stderr)
            return EXIT_USAGE
        name, run = "stepanov", partial(run_stepanov_suite, instances=args.instances,
                                        seed=args.seed)
    elif args.command == "identities":
        name, run = "identity", partial(run_identity_suite, seed=args.seed)
    else:
        if args.mmax_claim < 3 or args.mmax_pairs < 3 or not 3 <= args.mmax_maps <= 12:
            print("error: unity bounds need mmax >= 3 (maps <= 12)", file=sys.stderr)
            return EXIT_USAGE
        name, run = "unity", partial(run_unity_suite, claim_max=args.mmax_claim,
                                     decomposition_max=args.mmax_pairs,
                                     classify_max=args.mmax_maps)
    try:
        result = run()
    except (BoundViolationError, TheoremViolation) as exc:
        return _violation(exc)
    _emit([_summary(f"{name}-suite", result)], args.out)
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

    if args.command == "verify":
        return _run_audit(args, _VERIFY_KINDS[args.which])
    if args.command == "census":
        return _run_audit(args, AuditKind.LAMBDA_CENSUS)
    if args.command == "reproduce":
        return _run_reproduce(args)
    return _run_suite(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
