"""Regenerate ``pins.json``: the sha256 of every workload output per seed.

    python3 perfbench/pin.py

For each size and seeded workload it pins workload seeds
``0 .. SEEDS_PER_WORKLOAD[size] - 1`` with the digest of each canonical
output, and fails if any of them fails a shape check.  The sweep's base
seeds are fixed by the CLI, so it gets one pin under ``"any"``.  Rerun
only when a change is meant to alter results; a performance change must
leave the pins alone.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SEEDS_PER_WORKLOAD = {"full": 16, "smoke": 4}


def pins_for(size: str, workload: str) -> dict:
    if workload == layers.SWEEP:
        output = workloads.run_pass(workload, size, None)
        return {"any": {name: workloads.digest(text)
                        for name, (text, _) in output.outputs.items()}}
    table = {}
    for seed in range(SEEDS_PER_WORKLOAD[size]):
        output = workloads.run_pass(workload, size, seed)
        if not all(ok for _, ok in output.outputs.values()):
            raise SystemExit(f"{size} {workload} seed {seed}: "
                             "a shape check fails")
        print(f"{size} {workload} seed {seed}: pinned", file=sys.stderr,
              flush=True)
        table[str(seed)] = {name: workloads.digest(text)
                            for name, (text, _) in output.outputs.items()}
    return table


def main() -> int:
    pins = {size: {workload: pins_for(size, workload)
                   for workload in layers.WORKLOADS}
            for size in ("smoke", "full")}
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
