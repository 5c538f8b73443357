"""Command line for the static analyzer: ``python -m tussle.lint``.

Exit codes follow the usual linter convention: 0 clean, 1 findings,
2 usage or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from ..errors import LintError
from . import api, conformance, determinism  # noqa: F401  (register rules)
from .baseline import load_baseline, update_baseline
from .engine import LintReport, find_repo_root, run_lint
from .findings import RULE_REGISTRY, rule_ids

__all__ = ["main", "build_parser"]

_DEFAULT_BASELINE_NAME = "lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tussle-lint",
        description=("Determinism, simulation-invariant and whole-program "
                     "flow analyzer for the tussle package."),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to scan (default: the installed "
             "tussle package source)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every rule id with its summary and exit")
    parser.add_argument("--select", metavar="PREFIXES",
                        help="comma-separated rule-id prefixes to keep "
                             "(e.g. 'D' or 'D106,X')")
    parser.add_argument("--baseline", metavar="FILE", type=Path, default=None,
                        help="baseline file of grandfathered findings "
                             f"(default: {_DEFAULT_BASELINE_NAME} at the "
                             "repo root, when present)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from current findings, "
                             "pruning entries for findings that no longer "
                             "exist, and exit 0")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print suppressed/baselined findings")
    parser.add_argument("--kernel-candidates", action="store_true",
                        help="also print the pure, vectorization-eligible "
                             "netsim/routing functions with their inferred "
                             "side-effect summaries (always in JSON output)")
    return parser


def _default_paths() -> List[Path]:
    package_dir = Path(__file__).resolve().parent.parent
    return [package_dir]


def _resolve_baseline_path(args: argparse.Namespace,
                           scan_paths: Sequence[Path]) -> Optional[Path]:
    if args.baseline is not None:
        return args.baseline
    repo_root = find_repo_root(Path(scan_paths[0]))
    if repo_root is None:
        return None
    candidate = repo_root / _DEFAULT_BASELINE_NAME
    return candidate if (candidate.is_file() or args.update_baseline) else None


def _list_rules(fmt: str) -> int:
    if fmt == "json":
        payload = [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "summary": rule.summary,
                "rationale": rule.rationale,
            }
            for rule in (RULE_REGISTRY[i] for i in rule_ids())
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for identifier in rule_ids():
        rule = RULE_REGISTRY[identifier]
        print(f"{rule.rule_id}  {rule.name}")
        print(f"      {rule.summary}")
    print(f"\n{len(RULE_REGISTRY)} rules "
          "(D: determinism, E: experiment conformance, F: flow analysis, "
          "X: API surface)")
    return 0


def _print_text_report(report: LintReport, show_suppressed: bool) -> None:
    for finding in report.active:
        print(finding.format())
    if show_suppressed:
        for finding in report.suppressed:
            print(f"{finding.format()} (suppressed: "
                  f"{finding.suppression_source})")
    for entry in report.stale_baseline:
        print(f"stale baseline entry: {entry['rule']} x{entry['count']} "
              f"in {entry['path']} no longer matches any finding "
              "(run --update-baseline)")
    suppressed_note = (
        f", {len(report.suppressed)} suppressed" if report.suppressed else ""
    )
    print(f"{report.files_scanned} files scanned, "
          f"{len(report.active)} findings{suppressed_note}")


def _print_kernel_candidates(report: LintReport) -> None:
    pure = [c for c in report.kernel_candidates if c["pure"]]
    print(f"\n{len(pure)} kernel-eligible pure functions:")
    for entry in report.kernel_candidates:
        marker = "pure" if entry["pure"] else "pure*"
        print(f"  [{marker}] {entry['function']} "
              f"({entry['path']}:{entry['line']}) — {entry['effects']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        return _list_rules(args.format)

    scan_paths = [Path(p) for p in args.paths] or _default_paths()
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select else None
    )
    baseline_path = _resolve_baseline_path(args, scan_paths)

    try:
        baseline = None
        if baseline_path is not None and baseline_path.is_file() \
                and not args.update_baseline:
            baseline = load_baseline(baseline_path)
        report = run_lint(scan_paths, select=select, baseline=baseline)
        if args.update_baseline:
            if baseline_path is None:
                raise LintError(
                    "cannot locate a repo root for the baseline; pass "
                    "--baseline FILE explicitly"
                )
            written = update_baseline(baseline_path, report.findings)
            print(f"wrote {sum(written.budgets.values())} grandfathered "
                  f"findings to {baseline_path}")
            return 0
    except LintError as exc:
        print(f"tussle-lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        _print_text_report(report, args.show_suppressed)
        if args.kernel_candidates:
            _print_kernel_candidates(report)

    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
