"""Tracer: spans, events, and the byte-reproducible JSONL contract."""

import json

from tussle.obs import NullTracer, Tracer


def make_trace():
    tracer = Tracer()
    span = tracer.begin("econ.market", "round", 0.0, seed=7)
    tracer.event("netsim.engine", "schedule", 0.0, at=1.5, priority=0)
    tracer.event("netsim.engine", "fire", 1.5, priority=0, queue_depth=0)
    span.end(1.0, switches=3)
    return tracer


class TestTracer:
    def test_event_record_shape(self):
        tracer = Tracer()
        tracer.event("scope", "name", 2.5, value=1)
        (record,) = tracer.records()
        assert record == {"kind": "event", "seq": 0, "scope": "scope",
                          "name": "name", "t": 2.5, "fields": {"value": 1}}

    def test_span_record_appended_on_end(self):
        tracer = Tracer()
        span = tracer.begin("scope", "work", 1.0, a=1)
        assert len(tracer) == 0  # nothing until the span closes
        span.end(4.0, b=2)
        (record,) = tracer.records()
        assert record["kind"] == "span"
        assert record["t0"] == 1.0 and record["t1"] == 4.0
        assert record["fields"] == {"a": 1, "b": 2}

    def test_span_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("scope", "work", 0.0)
        span.end(1.0)
        span.end(2.0)
        assert len(tracer) == 1
        assert tracer.records()[0]["t1"] == 1.0

    def test_span_context_manager_closes_at_t0(self):
        tracer = Tracer()
        with tracer.begin("scope", "group", 3.0):
            pass
        assert tracer.records()[0]["t1"] == 3.0

    def test_seq_is_emission_order_across_kinds(self):
        tracer = make_trace()
        seqs = [r["seq"] for r in tracer.records()]
        # The span got seq 0 at begin() even though it serialized last.
        assert sorted(seqs) == [0, 1, 2]

    def test_scopes_sorted(self):
        assert make_trace().scopes() == ["econ.market", "netsim.engine"]

    def test_jsonl_is_deterministic(self):
        a, b = make_trace().to_jsonl(), make_trace().to_jsonl()
        assert a == b
        for line in a.strip().splitlines():
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))

    def test_write_jsonl_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "trace.jsonl"
        written = make_trace().write_jsonl(target)
        assert written == target
        assert len(target.read_text().splitlines()) == 3

    def test_empty_tracer_writes_empty_file(self, tmp_path):
        target = Tracer().write_jsonl(tmp_path / "empty.jsonl")
        assert target.read_text() == ""


class TestNullTracer:
    def test_disabled_flag(self):
        assert NullTracer().enabled is False
        assert Tracer().enabled is True

    def test_records_nothing(self):
        tracer = NullTracer()
        tracer.event("scope", "name", 0.0, x=1)
        span = tracer.begin("scope", "work", 0.0)
        span.end(1.0, y=2)
        with tracer.begin("scope", "group", 0.0):
            pass
        assert len(tracer) == 0
        assert tracer.to_jsonl() == ""
