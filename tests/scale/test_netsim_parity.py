"""The netsim parity gate, and the meta-test that proves it has teeth.

The gate itself (every topology configuration x every seed, byte
identity between scalar and vector round records) runs as a blocking
test.  The meta-tests then sabotage one kernel constant at a time and
assert the gate *catches* it with a localized first divergence — a gate
that cannot fail is not a gate.
"""

import numpy as np
import pytest

from tussle.netsim.decision import MAX_TTL
from tussle.obs.diff import format_divergence
from tussle.scale import nkernels
from tussle.scale.parity import NETSIM, PARITY_SEEDS, run_parity, verify


def _fail_message(report):
    lines = [f"{report.label} seed={report.seed}:"] + report.mismatches
    if report.divergence is not None:
        lines.append(format_divergence(report.divergence, "scalar",
                                       "fast"))
    return "\n".join(lines)


class TestNetsimParityGate:
    def test_gate_covers_enough_configurations(self):
        cases = NETSIM.cases()
        assert len(cases) >= 10
        assert len(PARITY_SEEDS) >= 5
        assert len({case.label for case in cases}) == len(cases)

    def test_vector_backend_is_byte_identical_everywhere(self):
        reports = run_parity([NETSIM])
        failures = [r for r in reports if not r.ok]
        assert not failures, "\n\n".join(
            _fail_message(report) for report in failures)
        assert len(reports) == len(NETSIM.cases()) * len(PARITY_SEEDS)

    def test_adversarial_shapes_actually_exercise_failure_lanes(self):
        """The gate must compare failures, not only happy deliveries."""
        by_label = {case.label: case for case in NETSIM.cases()}
        for label in ("partitioned", "star-14-failed-links",
                      "dumbbell-zero-capacity", "loop-tables"):
            report = verify(NETSIM, by_label[label], seed=7)
            assert report.ok, _fail_message(report)
        # The looping tables must drive packets all the way to the TTL
        # bound, so the TTL-exceeded lane is genuinely compared.
        report = verify(NETSIM, by_label["loop-tables"], seed=7)
        assert report.rounds == MAX_TTL + 1


def _qos_case():
    """The smallest QoS-billing case: divergences land in round 0."""
    return NETSIM.cases()[0]  # line-8, billed at 0.75 per priority packet


class TestGateHasTeeth:
    def test_perturbed_priority_threshold_is_caught_in_round_zero(
            self, monkeypatch):
        real = nkernels.priority_mask

        def perturbed(tos, threshold):
            return real(tos, threshold + 1)

        monkeypatch.setattr(nkernels, "priority_mask", perturbed)
        report = verify(NETSIM, _qos_case(), seed=7)
        assert not report.ok
        assert any("prioritized" in line or "revenue" in line
                   for line in report.mismatches)
        assert report.divergence is not None
        assert report.divergence.index == 0
        assert {"prioritized", "revenue"} & set(
            report.divergence.changed_fields)

    def test_perturbed_latency_kernel_is_caught_and_localized(
            self, monkeypatch):
        real = nkernels.hop_latency_deltas

        def perturbed(latency, current, hop, moving):
            return real(latency, current, hop, moving) + np.where(
                moving, 1e-9, 0.0)

        monkeypatch.setattr(nkernels, "hop_latency_deltas", perturbed)
        report = verify(NETSIM, _qos_case(), seed=7)
        assert not report.ok
        assert any("latency" in line for line in report.mismatches)
        assert report.divergence is not None
        # Latency kernels only run from round 1 on; round 0 must agree.
        assert report.divergence.index >= 1
        assert "latency" in report.divergence.changed_fields

    def test_perturbed_ttl_bound_is_caught(self, monkeypatch):
        real = nkernels.no_route_mask

        def perturbed(active, hop):
            # Misroute: claim the first active packet has no route.
            mask = real(active, hop)
            out = mask.copy()
            active_idx = np.flatnonzero(active)
            if active_idx.size:
                out[active_idx[0]] = True
            return out

        monkeypatch.setattr(nkernels, "no_route_mask", perturbed)
        report = verify(NETSIM, _qos_case(), seed=7)
        assert not report.ok
        assert report.divergence is not None

    def test_unperturbed_rerun_is_clean(self):
        """Monkeypatches must not leak across tests."""
        report = verify(NETSIM, _qos_case(), seed=7)
        assert report.ok, _fail_message(report)


class TestOracleRefusesUnvectorizedSemantics:
    def test_middlebox_attachment_is_rejected(self):
        from tussle.errors import ScaleError
        from tussle.netsim.topology import line_topology
        from tussle.scale.vforwarding import VectorForwardingEngine

        engine = VectorForwardingEngine(line_topology(3))
        with pytest.raises(ScaleError):
            engine.attach_middlebox("n1", object())
