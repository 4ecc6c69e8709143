"""Command-line front end: run scenario files or the canned suite.

Exit codes: 0 all checks PASS, 1 at least one FAIL, 2 usage or parse error
or a JSON report that cannot be written.
All numeric work lives in the library modules; this layer only parses
arguments, dispatches, prints, and serializes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import KformError, ScenarioError
from .scenarios import CHECK_FIELDS, Report, report_to_json, run_scenario
from .suite import run_paper_suite


# the stderr prefix of an error that exits 2: the first class it is an instance of
_ERROR_PREFIXES = ((ScenarioError, "scenario error"), (OSError, "cannot read scenario"), (KformError, "error"))


def _print_report(report: Report) -> None:
    for rec in report.checks:
        fields = rec.to_json_dict()
        parts = [f"{rec.name}: {rec.verdict}"]
        parts += [fmt(fields[key]) for key, _, fmt in CHECK_FIELDS if key in fields]
        print("  ".join(parts))
    print(f"overall: {report.overall}", flush=True)


def _emit(report: Report, json_path: str | None) -> int:
    """Write the JSON report, then print; the verdict's exit code, or 2 if the report cannot be written.

    A reader that closes stdout early (``kform suite | head -1``) ends the
    printing, not the run: stdout is pointed at the null device, so the
    interpreter's last flush has nowhere to fail.
    """
    if json_path is not None:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(report_to_json(report))
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    try:
        _print_report(report)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
    if args.json_path is not None:
        # a --json path whose directory is missing fails here, before the run, with the
        # error open() would raise after it; the trailing separator fails a file there too
        try:
            os.stat(os.path.join(os.path.dirname(args.json_path) or ".", ""))
        except OSError as exc:
            print(f"cannot write report: {OSError(exc.errno, exc.strerror, args.json_path)}", file=sys.stderr)
            return 2

    try:
        if args.command == "run":
            report = run_scenario(args.scenario, seed=args.seed, samples=args.samples)
        else:
            report = run_paper_suite()
    except (OSError, KformError) as exc:
        prefix = next(text for kind, text in _ERROR_PREFIXES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args.json_path)


if __name__ == "__main__":
    sys.exit(main())
