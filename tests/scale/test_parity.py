"""Blocking scalar-vs-vector parity gate for the market pair.

Every experiment-derived market configuration must produce *identical*
round records and final per-consumer state from ``Market`` and
``VectorMarket`` — across all parity seeds.  A single mismatch here
means the vector backend has diverged and L01/L02 results can no longer
be trusted as restatements of E01/E02.  The CLI tests cover the one
gate that runs every backend pair.
"""

import json
from dataclasses import replace

import pytest

from tussle.scale import __main__ as scale_cli
from tussle.scale import kernels
from tussle.scale.parity import MARKET, PAIRS, PARITY_SEEDS, run_parity, verify


def test_case_catalog_covers_e01_e02_e03():
    labels = [case.label for case in MARKET.cases()]
    assert len(labels) == len(set(labels))
    assert sum(label.startswith("e01") for label in labels) == 4
    assert sum(label.startswith("e02") for label in labels) == 5
    assert sum(label.startswith("e03") for label in labels) == 6


def test_parity_holds_across_all_cases_and_seeds():
    reports = run_parity([MARKET])
    assert len(reports) == len(MARKET.cases()) * len(PARITY_SEEDS)
    failures = [r for r in reports if not r.ok]
    assert not failures, "\n".join(
        f"{r.label} seed={r.seed}: {r.mismatches[:2]}" for r in failures)


def test_verify_case_reports_rounds_and_population():
    case = MARKET.cases()[0]
    report = verify(MARKET, case, seed=PARITY_SEEDS[0])
    rounds, _ = case.spec(PARITY_SEEDS[0])
    assert report.ok
    assert report.rounds == rounds
    assert report.n > 0
    # No divergence to localize on a clean case.
    assert report.divergence is None


def test_mismatch_is_localized_to_first_divergent_round():
    """A sabotaged vector history pinpoints the first bad round record."""
    def perturbed(spec):
        rounds, finals = MARKET.fast(spec)
        rounds[5]["switches"] += 1
        return rounds, finals

    report = verify(replace(MARKET, fast=perturbed), MARKET.cases()[0],
                    seed=PARITY_SEEDS[0])
    # The perturbation shows up exactly at round 5 with the changed
    # field named.
    divergence = report.divergence
    assert divergence is not None and divergence.index == 5
    assert "switches" in divergence.changed_fields


class TestGateHasTeeth:
    def test_perturbed_reduction_is_caught_in_round_zero(self, monkeypatch):
        real = kernels.ordered_total
        monkeypatch.setattr(kernels, "ordered_total",
                            lambda deltas: real(deltas) + 1e-9)
        report = verify(MARKET, MARKET.cases()[0], seed=PARITY_SEEDS[0])
        assert not report.ok
        assert any("consumer_surplus" in line for line in report.mismatches)
        assert report.divergence is not None
        assert report.divergence.index == 0
        assert "consumer_surplus" in report.divergence.changed_fields


class TestCli:
    def test_parity_subcommand_exits_clean(self, capsys):
        assert scale_cli.main(["parity", "--seeds", "7"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "report(s) clean" in out
        for pair in PAIRS:
            assert f"[ok] {pair.name} " in out

    def test_json_output(self, capsys):
        assert scale_cli.main(["parity", "--seeds", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["seeds"] == [7]
        assert all(r["ok"] for r in payload["reports"])
        assert {r["pair"] for r in payload["reports"]} == {
            pair.name for pair in PAIRS}
        assert all(r["n"] > 0 for r in payload["reports"])

    def test_netsim_parity_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            scale_cli.main(["netsim-parity"])
