"""The three benchmark workloads, their input sizes and the output gate.

Each workload is one closed-loop pass of the simulator: the next pass
starts when the previous one returns.  A pass times only the call into
the program; its canonical outputs are then digested and compared with
the sha256 pins in ``pins.json``, so a change that alters any result
fails the benchmark.

* ``peering-war`` — ``run_p02`` on a generated 10^3-AS internet: the
  bargain/route/reprice fixed point, a depeering war and the peace.
  Reconvergence, volume measurement and bargaining dominate.
* ``population`` — ``run_l01`` + ``run_l02`` at 10^5 consumers: nine
  vector markets, 2.45e7 consumer-rounds.  Market kernels only; routing
  and peering are never called.
* ``registry-sweep`` — the CLI ``sweep --seeds 3 --jobs 2 --json`` over
  the whole registry (84 cells): sweep dispatch, merge and aggregation,
  one-shot convergences (T01/T02) and the scalar market.  The CLI fixes
  its base seeds at 0..2, so ``--seed`` does not apply to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from layers import PEERING, POPULATION, SWEEP

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

#: The registry the serial traced pass times, one ``exp.<ID>_s`` each.
REGISTRY_IDS = ("E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08",
                "E09", "E10", "E11", "E12", "L01", "L02", "N01", "P01",
                "P02", "R01", "R02", "T01", "T02", "X01", "X02", "X03",
                "X04", "X05", "X06", "X07")
SMOKE_IDS = ("E05", "P01", "T02")

#: Imported during set-up, before the first pass, so ``setup_s`` covers them.
ENTRY_MODULES = {PEERING: "tussle.experiments.p02_depeering_war",
                 POPULATION: "tussle.scale.large",
                 SWEEP: "tussle.__main__"}

L01_ROUNDS = 30
L02_ROUNDS = 25

SIZES = {
    "full": {
        "n_ases": 1000,
        "consumers": 100_000,
        "sweep_argv": ("sweep", "--seeds", "3", "--jobs", "2", "--json"),
        "registry": REGISTRY_IDS,
    },
    "smoke": {
        "n_ases": 60,
        "consumers": 1000,
        "sweep_argv": ("sweep", *SMOKE_IDS, "--seeds", "1", "--jobs", "2",
                       "--json"),
        "registry": SMOKE_IDS,
    },
}


@dataclass
class PassOutput:
    """One pass: wall seconds of the program call, outputs, work done.

    ``outputs`` maps an output name to ``(canonical text, shape holds)``;
    ``cells``/``failed_cells`` are the sweep's own per-cell verdicts.
    """

    wall: float
    outputs: Dict[str, Tuple[str, bool]]
    items: int
    cells: int = 0
    failed_cells: int = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peering_war(size: dict, seed: int) -> PassOutput:
    from tussle.experiments.p02_depeering_war import run_p02

    start = time.perf_counter()
    result = run_p02(n_ases=size["n_ases"], seed=seed)
    wall = time.perf_counter() - start
    shock = {row["metric"]: row["value"] for row in result.tables[2].rows}
    steps = sum(int(shock[key]) for key in
                ("initial_iterations", "war_iterations", "peace_iterations"))
    return PassOutput(wall, {"P02": (result.to_json(), result.shape_holds)},
                      items=steps)


def population(size: dict, seed: int) -> PassOutput:
    from tussle.scale.large import run_l01, run_l02

    n = size["consumers"]
    start = time.perf_counter()
    l01 = run_l01(tiers=(n,), rounds=L01_ROUNDS, seed=seed)
    l02 = run_l02(tiers=(n,), rounds=L02_ROUNDS, seed=seed)
    wall = time.perf_counter() - start
    # One table row per market: consumers x rounds is the work done.
    items = n * (L01_ROUNDS * len(l01.tables[0].rows)
                 + L02_ROUNDS * len(l02.tables[0].rows))
    return PassOutput(wall, {"L01": (l01.to_json(), l01.shape_holds),
                             "L02": (l02.to_json(), l02.shape_holds)},
                      items=items)


def registry_sweep(size: dict, seed: Optional[int]) -> PassOutput:
    from tussle.__main__ import main

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(size["sweep_argv"]))
    wall = time.perf_counter() - start
    document = out.getvalue()
    stats = json.loads(document)["stats"]
    return PassOutput(wall, {"sweep": (document, code == 0)},
                      items=stats["cells_total"], cells=stats["cells_total"],
                      failed_cells=stats["cells_failed"])


PASSES = {PEERING: peering_war, POPULATION: population, SWEEP: registry_sweep}


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def resolve(pins: dict, size: str, workload: str,
            seed: int) -> Tuple[Optional[int], Dict[str, str]]:
    """Map ``--seed`` onto a pinned workload seed and its output digests.

    Workload seeds ``0 .. n-1`` are pinned (see ``pin.py``); benchmark
    seed ``s`` runs workload seed ``s mod n``, so every run is gated.
    """
    table = pins[size][workload]
    if "any" in table:  # the sweep's base seeds are fixed by the CLI
        return None, table["any"]
    chosen = seed % len(table)
    return chosen, table[str(chosen)]


def run_pass(workload: str, size: str, seed: Optional[int]) -> PassOutput:
    return PASSES[workload](SIZES[size], seed)


def check(output: PassOutput, pins: Dict[str, str]) -> Tuple[int, int]:
    """(attempted, failed): one operation per output plus one per sweep cell.

    An output fails on a failed shape check or a digest that differs
    from its pin; a cell fails when the sweep reports it failed.
    """
    attempted = len(output.outputs) + output.cells
    failed = output.failed_cells
    for name, (text, shape_holds) in output.outputs.items():
        if not shape_holds or digest(text) != pins.get(name):
            failed += 1
    return attempted, failed


def checked_pass(workload: str, size: str, seed: Optional[int],
                 pins: Dict[str, str]) -> Tuple[Optional[PassOutput], int, int]:
    """Run and gate one pass; an exception counts as one failed operation."""
    try:
        output = run_pass(workload, size, seed)
    except Exception:  # a crashing pass is reported, not fatal to the run
        traceback.print_exc()
        return None, 1, 1
    attempted, failed = check(output, pins)
    return output, attempted, failed
