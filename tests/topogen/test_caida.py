"""Tests for the CAIDA as-rel loader."""

import pytest

from tussle.errors import TopogenError
from tussle.netsim.topology import Network
from tussle.topogen import (
    TopogenConfig,
    generate_internet,
    infer_tiers,
    parse_caida,
    load_caida,
)

SAMPLE = """\
# comment line
1|2|-1
1|3|-1

2|3|0
2|4|-1
3|5|-1
"""


class TestParse:
    def test_orientation_provider_first(self):
        net = parse_caida(SAMPLE.splitlines())
        assert net.providers_of(2) == {1}
        assert net.customers_of(1) == {2, 3}
        assert net.peers_of(2) == {3}

    def test_tiers_inferred(self):
        net = parse_caida(SAMPLE.splitlines())
        assert net.autonomous_system(1).tier == 1  # no providers, customers
        assert net.autonomous_system(2).tier == 2  # both
        assert net.autonomous_system(4).tier == 3  # pure stub

    def test_duplicates_tolerated_conflicts_rejected(self):
        parse_caida(["1|2|-1", "1|2|-1"])
        with pytest.raises(TopogenError):
            parse_caida(["1|2|-1", "1|2|0"])
        with pytest.raises(TopogenError):
            parse_caida(["1|2|-1", "2|1|-1"])

    @pytest.mark.parametrize("line", ["1|2", "a|2|-1", "1|1|-1", "1|2|7"])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(TopogenError):
            parse_caida([line])


class TestRoundTrip:
    def test_generated_internet_round_trips(self):
        net = generate_internet(TopogenConfig(n_ases=60), seed=4)
        lines = []
        for a in net.ases:
            lines += [f"{a.asn}|{c}|-1" for c in sorted(net.customers_of(a.asn))]
            lines += [f"{a.asn}|{p}|0" for p in sorted(net.peers_of(a.asn))
                      if a.asn < p]
        restored = parse_caida(lines)
        for a in net.ases:
            assert restored.providers_of(a.asn) == net.providers_of(a.asn)
            assert restored.peers_of(a.asn) == net.peers_of(a.asn)
            # generator tiers and inferred tiers agree on this shape
            assert restored.autonomous_system(a.asn).tier == a.tier


class TestFiles:
    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "asrel.txt"
        path.write_text(SAMPLE, encoding="utf-8")
        net = load_caida(path)
        assert net.providers_of(5) == {3}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TopogenError):
            load_caida(tmp_path / "missing.txt")


class TestInferTiers:
    def test_island_as_is_a_stub(self):
        net = Network()
        net.add_as(9)
        infer_tiers(net)
        assert net.autonomous_system(9).tier == 3
