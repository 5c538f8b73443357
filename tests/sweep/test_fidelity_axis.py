"""Fidelity is a sweepable axis: N01 across the whole substrate ladder.

The sweep machinery treats the substrate backend like any other grid
parameter — ``grid={"fidelity": [...]}`` fans N01 out across
packet-scalar, packet-vector and flow-level cells, every cell's shape
checks hold, and the aggregate groups by fidelity with full agreement
across seeds.  This is the operational form of the DESIGN.md rule that
experiments *declare* their fidelity rather than inherit one silently.
"""

from tussle.experiments.n01_substrate import FIDELITIES
from tussle.sweep import SweepSpec, run_sweep
from tussle.sweep.aggregate import aggregate


class TestFidelityAxis:
    def test_n01_sweeps_across_the_fidelity_ladder(self):
        spec = SweepSpec(
            experiment_ids=["N01"],
            seeds=[0, 1],
            grid={"fidelity": list(FIDELITIES)},
        )
        report = run_sweep(spec)

        assert len(report.cells) == len(FIDELITIES) * 2
        swept = {cell["params"]["fidelity"] for cell in report.cells}
        assert swept == set(FIDELITIES)
        for cell in report.cells:
            assert cell["status"] == "ok", cell["error"]
            assert cell["result"]["shape_holds"], (
                f"fidelity {cell['params']['fidelity']} failed its "
                f"checks at seed {cell['base_seed']}")

    def test_aggregate_groups_one_row_per_fidelity(self):
        spec = SweepSpec(
            experiment_ids=["N01"],
            seeds=[0, 1, 2],
            grid={"fidelity": list(FIDELITIES)},
        )
        summary = aggregate(run_sweep(spec).cells)
        groups = summary["groups"]
        assert len(groups) == len(FIDELITIES)
        for group in groups:
            assert group["cells"] == 3
            assert group["robust"], group["verdict"]
