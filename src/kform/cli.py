"""Command-line front end: run scenario files or the canned suite.

Exit codes: 0 all checks PASS, 1 at least one FAIL, 2 usage or parse error.
All numeric work lives in the library modules; this layer only parses
arguments, dispatches, prints, and serializes.
"""

from __future__ import annotations

import argparse
import sys

from .errors import KformError, ScenarioError
from .scenarios import Report, report_to_json, run_scenario
from .suite import run_paper_suite


# how the optional fields of a check's JSON form print, in print order
_FIELD_FORMATS = (
    ("lambdaHat", lambda v: f"lambdaHat={v:.12g}"),
    ("residual", lambda v: f"residual={v:.3e}"),
    ("signature", lambda v: f"signature={tuple(v)}"),
    ("rankTable", lambda v: "ranks=" + ",".join(f"{n}:{r}" for n, r in v)),
    ("skipped", lambda v: f"skipped={v}"),
)


def _print_report(report: Report) -> None:
    for rec in report.checks:
        fields = rec.to_json_dict()
        parts = [f"{rec.name}: {rec.verdict}"]
        parts += [fmt(fields[key]) for key, fmt in _FIELD_FORMATS if key in fields]
        print("  ".join(parts))
    print(f"overall: {report.overall}")


def _emit(report: Report, json_path: str | None) -> int:
    _print_report(report)
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    return 0 if report.overall == "PASS" else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kform",
        description="Verification checks for form-preserving holomorphic maps between space forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario JSON file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--json", dest="json_path", help="write the canonical JSON report here")
    run_p.add_argument("--seed", type=int, default=None, help="override sampling.seed")
    run_p.add_argument(
        "--samples", type=int, default=None, help="override sampling.count"
    )

    suite_p = sub.add_parser("suite", help="run the canned verification battery")
    suite_p.add_argument("--json", dest="json_path", help="write the canonical JSON report here")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)

    try:
        if args.command == "run":
            report = run_scenario(args.scenario, seed=args.seed, samples=args.samples)
        else:
            report = run_paper_suite()
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except KformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args.json_path)


if __name__ == "__main__":
    sys.exit(main())
