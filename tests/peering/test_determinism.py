"""Determinism and stream-coupling contracts of the peering loop.

The coupled bargaining/routing fixed point is only a usable experiment
substrate if it is a *pure function* of ``(network, seed, economics)``.
This suite asserts the contract at full strength:

* P01 and P02 are byte-identical across two independent runs at the
  same seed (canonical JSON, the same bytes the sweep cache hashes);
* the fixed point does not depend on the order ASes were inserted into
  the :class:`~tussle.netsim.topology.Network` (the sorted-total-order
  contract);
* the traffic-matrix and bargaining RNG streams are distinct, labelled
  substreams of the master seed, so drawing more from one can never
  shift the other; and
* the new subsystem is flow-lint clean for seed provenance (F201) and
  stream sharing (F202) with zero suppressions.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tussle.experiments import run_p01, run_p02
from tussle.lint import run_lint
from tussle.netsim.topology import Network, Relationship
from tussle.peering import PeeringDynamics
from tussle.resil.workerchaos import digest63
from tussle.scale.tmatrix import stub_content, stub_populations

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "tussle"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _perfbench_pin(size: str, seed: int) -> str:
    """The P02 digest ``perfbench/pins.json`` pins (read, never written)."""
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    return pins[size]["peering-war"][str(seed)]["P02"]


def _mesh_network(order: str) -> Network:
    """The same little internet, assembled in two different orders."""
    ases = [(100, 1, {}), (10, 2, {"ixps": ["ix-west"]}),
            (20, 2, {"ixps": ["ix-west"]}),
            (1, 3, {}), (2, 3, {}), (3, 3, {}), (4, 3, {})]
    rels = [(10, 100, Relationship.CUSTOMER_PROVIDER),
            (20, 100, Relationship.CUSTOMER_PROVIDER),
            (1, 10, Relationship.CUSTOMER_PROVIDER),
            (2, 10, Relationship.CUSTOMER_PROVIDER),
            (3, 20, Relationship.CUSTOMER_PROVIDER),
            (4, 20, Relationship.CUSTOMER_PROVIDER)]
    if order == "reversed":
        ases = list(reversed(ases))
        rels = list(reversed(rels))
    network = Network()
    for asn, tier, metadata in ases:
        network.add_as(asn, tier=tier, **metadata)
    for a, b, rel in rels:
        network.add_as_relationship(a, b, rel)
    return network


class TestDoubleRunByteIdentity:
    def test_p01_is_byte_identical_across_runs(self):
        first = run_p01(seed=3)
        second = run_p01(seed=3)
        assert first.to_json() == second.to_json()

    @pytest.mark.slow
    def test_p02_is_byte_identical_across_runs(self):
        """The full 10^3-AS war, twice, and the benchmark's pinned bytes."""
        first = run_p02(seed=0)
        second = run_p02(seed=0)
        assert first.to_json() == second.to_json()
        assert all(c["holds"] for c in first.to_dict()["checks"])
        assert _sha256(first.to_json()) == _perfbench_pin("full", 0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_full_size_p02_matches_the_benchmark_pin(self, seed):
        """10^3-AS bytes, which the smoke-size benchmark tests never reach."""
        assert _sha256(run_p02(n_ases=1000, seed=seed).to_json()) \
            == _perfbench_pin("full", seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_smoke_p02_matches_the_benchmark_pin(self, seed):
        """A float summation-order change shows here, not only in perfbench."""
        assert _sha256(run_p02(n_ases=60, seed=seed).to_json()) \
            == _perfbench_pin("smoke", seed)

    def test_fixed_point_result_is_byte_identical(self):
        results = []
        for _ in range(2):
            dyn = PeeringDynamics(_mesh_network("forward"), seed=5)
            results.append(json.dumps(dyn.run().to_dict(), sort_keys=True))
        assert results[0] == results[1]


class TestIterationOrderIndependence:
    def test_fixed_point_ignores_as_insertion_order(self):
        """Sorted total order: the graph, not its build history, decides."""
        forward = PeeringDynamics(_mesh_network("forward"), seed=9)
        backward = PeeringDynamics(_mesh_network("reversed"), seed=9)
        result_f = forward.run()
        result_b = backward.run()
        assert result_f.to_dict() == result_b.to_dict()
        accounts_f = forward.accounts()
        accounts_b = backward.accounts()
        assert sorted(accounts_f) == sorted(accounts_b)
        for asn in accounts_f:
            assert accounts_f[asn] == accounts_b[asn]

    def test_the_mesh_actually_bargains(self):
        """Guard against vacuity: the order test must cover a real deal."""
        dyn = PeeringDynamics(_mesh_network("forward"), seed=9)
        result = dyn.run()
        assert result.converged
        assert (10, 20) in result.agreements


class TestSubstreamIsolation:
    def test_streams_are_distinct_substreams_of_the_master_seed(self):
        seed = 13
        population_stream = digest63(seed, "tmatrix", "population")
        content_stream = digest63(seed, "tmatrix", "content")
        bargain_stream = digest63(seed, "peering", "bargain")
        assert len({population_stream, content_stream, bargain_stream}) == 3

    def test_dynamics_exposes_the_bargain_substream(self):
        dyn = PeeringDynamics(_mesh_network("forward"), seed=13)
        assert dyn.bargain_seed == digest63(13, "peering", "bargain")

    def test_traffic_attributes_are_label_isolated(self):
        """Same seed, different labels: independent assignments, and a
        change of one stream's knobs never touches the other stream."""
        population = stub_populations(64, seed=13)
        content = stub_content(64, seed=13)
        assert list(population) != list(content)
        # Re-drawing content with a different tail leaves population
        # byte-identical: the streams do not share state.
        stub_content(64, seed=13, content_tail=2.5)
        again = stub_populations(64, seed=13)
        assert population.tobytes() == again.tobytes()


class TestFlowLintClean:
    @pytest.fixture(scope="class")
    def report(self):
        return run_lint([
            SRC / "peering",
            SRC / "scale" / "tmatrix.py",
            SRC / "experiments" / "p01_paid_peering.py",
            SRC / "experiments" / "p02_depeering_war.py",
        ])

    def test_seed_provenance_and_stream_sharing_clean(self, report):
        findings = [f for f in report.active
                    if f.rule_id in ("F201", "F202")]
        formatted = "\n".join(f.format() for f in findings)
        assert not findings, f"flow findings in peering code:\n{formatted}"

    def test_zero_suppressions(self, report):
        assert not report.suppressed, \
            "the peering subsystem must need no flow-lint suppressions"
