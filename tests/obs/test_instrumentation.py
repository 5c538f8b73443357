"""Instrumented subsystems: coverage, reproducibility, non-interference."""

import numpy as np

from tussle.core.mechanisms import Mechanism
from tussle.core.simulator import TussleSimulator
from tussle.core.stakeholders import Stakeholder, StakeholderKind
from tussle.core.tussle import TussleSpace
from tussle.experiments import run_e01
from tussle.gametheory.games import NormalFormGame
from tussle.gametheory.learning import fictitious_play
from tussle.netsim.addressing import AddressRegistry
from tussle.netsim.topology import Network, Relationship
from tussle.obs import Metrics, Tracer, observe
from tussle.routing.pathvector import PathVectorRouting


def contested_space():
    space = TussleSpace("arena", initial_state={"x": 0.5})
    space.add_mechanism(Mechanism(name="knob", variable="x",
                                  allowed_range=(0.0, 1.0)))
    users = Stakeholder("users", StakeholderKind.USER)
    users.add_interest("x", target=1.0)
    providers = Stakeholder("providers", StakeholderKind.COMMERCIAL_ISP)
    providers.add_interest("x", target=0.0)
    space.add_stakeholder(providers)
    space.add_stakeholder(users)
    return space


def as_chain():
    net = Network()
    for asn in (1, 2, 3):
        net.add_as(asn)
    net.add_as_relationship(1, 2, Relationship.CUSTOMER_PROVIDER)
    net.add_as_relationship(2, 3, Relationship.CUSTOMER_PROVIDER)
    return net


class TestSubsystemCoverage:
    def test_core_simulator_rounds_and_moves(self):
        tracer, metrics = Tracer(), Metrics()
        with observe(tracer=tracer, metrics=metrics):
            TussleSimulator(contested_space()).run(5)
        assert "core.simulator" in tracer.scopes()
        counters = metrics.snapshot()["core.simulator"]["counters"]
        assert counters["rounds"] == 5
        assert counters["moves"] > 0

    def test_routing_pathvector_convergence(self):
        tracer, metrics = Tracer(), Metrics()
        with observe(tracer=tracer, metrics=metrics):
            iterations = PathVectorRouting(as_chain()).converge()
        spans = [r for r in tracer.records() if r["kind"] == "span"
                 and r["scope"] == "routing.pathvector"]
        assert spans and spans[0]["fields"]["iterations"] == iterations
        counters = metrics.snapshot()["routing.pathvector"]["counters"]
        assert counters["iterations"] == iterations
        assert counters["announcements"] > 0

    def test_gametheory_learning_run_span(self):
        tracer, metrics = Tracer(), Metrics()
        payoffs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with observe(tracer=tracer, metrics=metrics):
            result = fictitious_play(NormalFormGame([payoffs, -payoffs]),
                                     iterations=300)
        (span,) = [r for r in tracer.records()
                   if r["scope"] == "gametheory.learning"]
        assert span["name"] == "fictitious_play"
        assert span["t1"] == float(result.iterations)
        counters = metrics.snapshot()["gametheory.learning"]["counters"]
        assert counters["runs"] == 1
        assert counters["iterations"] == result.iterations

    def test_addressing_logical_clock(self):
        tracer, metrics = Tracer(), Metrics()
        with observe(tracer=tracer, metrics=metrics):
            registry = AddressRegistry()
            registry.allocate_aggregate(1)
            registry.assign_customer_block("site", 1)
            registry.assign_provider_independent("indie")
        events = [r for r in tracer.records()
                  if r["scope"] == "netsim.addressing"]
        assert [e["t"] for e in events] == [1.0, 2.0, 3.0]
        counters = metrics.snapshot()["netsim.addressing"]["counters"]
        assert counters == {"assignments": 3, "pi_assignments": 1}


class TestReproducibility:
    def test_e01_double_trace_is_byte_identical(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            tracer = Tracer()
            with observe(tracer=tracer):
                run_e01()
            paths.append(tracer.write_jsonl(tmp_path / f"{run}.jsonl"))
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first  # non-empty: the instrumentation actually fired

    def test_e01_trace_covers_econ_and_netsim(self):
        tracer = Tracer()
        with observe(tracer=tracer):
            run_e01()
        assert "econ.market" in tracer.scopes()
        assert "netsim.addressing" in tracer.scopes()

    def test_observation_does_not_change_results(self):
        baseline = run_e01()
        tracer, metrics = Tracer(), Metrics()
        with observe(tracer=tracer, metrics=metrics):
            observed = run_e01()
        assert observed.format() == baseline.format()
        assert len(tracer) > 0
