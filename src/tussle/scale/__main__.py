"""CLI for the scale subsystem: the parity gate as a shell command.

``python -m tussle.scale parity`` runs every backend pair in
:mod:`tussle.scale.parity` — ``market``, ``netsim`` and ``routing`` —
over all its cases and seeds, prints one line per report, and exits
non-zero on any mismatch, so CI uses it as a gate.  ``--json`` emits a
machine-readable report instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..obs.diff import format_divergence
from .parity import PARITY_SEEDS, run_parity

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tussle.scale",
        description="Vectorized backend tools (markets, forwarding, routing).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gate = sub.add_parser(
        "parity",
        help="verify every fast backend reproduces its scalar reference")
    gate.add_argument(
        "--seeds", type=int, nargs="+", default=list(PARITY_SEEDS),
        help=f"seeds to check each configuration under "
             f"(default: {' '.join(map(str, PARITY_SEEDS))})",
    )
    gate.add_argument("--json", action="store_true",
                      help="emit one JSON object per report")
    args = parser.parse_args(argv)

    reports = run_parity(seeds=args.seeds)
    failures = [r for r in reports if not r.ok]
    if args.json:
        print(json.dumps({"seeds": args.seeds,
                          "reports": [r.to_dict() for r in reports],
                          "ok": not failures}, indent=2))
        return 1 if failures else 0
    for report in reports:
        status = "ok" if report.ok else "FAIL"
        print(f"[{status}] {report.pair} {report.label} seed={report.seed} "
              f"rounds={report.rounds} n={report.n}")
        for line in report.mismatches:
            print(f"       {line}")
        if report.divergence is not None:
            for line in format_divergence(report.divergence, "scalar",
                                          "fast").splitlines():
                print(f"       {line}")
    print(f"parity: {len(reports) - len(failures)}/{len(reports)} "
          f"report(s) clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
