"""Command-line interface.

    superbracket run <suite-file> [--format json|text] [--seed N] [--out PATH] [--timing]
    superbracket list-checks
    superbracket explain <check>

Exit codes: 0 all pass, 1 any non-expected failure, 2 parse error, an
unreadable suite file, an unwritable --out or a seed that is not a
non-negative integer, 3 internal error.  SUPERBRACKET_SEED
overrides the suite file's seed.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .runner import CHECK_DESCRIPTIONS, emit_report, run_suite, suite_failed
from .suite import KNOWN_CHECKS, SuiteParseError, parse_suite


def _seed(text: str) -> int:
    """A seed as ``--seed`` and SUPERBRACKET_SEED take it: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative; a seed is a non-negative integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superbracket",
        description="Consistency checks for two-momentum su(1|1)^2 boost algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a check-suite file")
    run.add_argument("suite", type=Path, help="path to the suite file")
    run.add_argument("--format", choices=("json", "text"), default="json")
    run.add_argument("--seed", type=_seed, default=None, help="override the suite seed")
    run.add_argument("--out", type=Path, default=None, help="write the report to a file")
    run.add_argument("--timing", action="store_true",
                     help="include wall-clock timing in JSON output (breaks byte-stability)")

    sub.add_parser("list-checks", help="list the available checks")

    explain = sub.add_parser("explain", help="describe what a check verifies")
    explain.add_argument("check", choices=sorted(KNOWN_CHECKS))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-checks":
        for name in KNOWN_CHECKS:
            print(name)
        return 0

    if args.command == "explain":
        print(f"{args.check}:")
        print("  " + CHECK_DESCRIPTIONS[args.check])
        return 0

    try:
        text = args.suite.read_text()
    except OSError as err:
        print(f"error: cannot read {args.suite}: {err}", file=sys.stderr)
        return 2
    try:
        cfg = parse_suite(text)
    except SuiteParseError as err:
        print(f"{args.suite}:{err}", file=sys.stderr)
        return 2

    seed = args.seed
    env_seed = os.environ.get("SUPERBRACKET_SEED")
    if seed is None and env_seed is not None:
        try:
            seed = _seed(env_seed)
        except argparse.ArgumentTypeError as err:
            print(f"error: SUPERBRACKET_SEED: {err}", file=sys.stderr)
            return 2

    try:
        records = run_suite(cfg, seed_override=seed)
        payload = emit_report(records, format=args.format, include_timing=args.timing)
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3

    if args.out is not None:
        try:
            args.out.write_bytes(payload)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload.decode())
    return 1 if suite_failed(records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
