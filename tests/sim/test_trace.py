"""Tracer: counters, accumulators, stats, histograms, spans."""

import pytest

from repro.sim import LatencyStat, SimError, Simulator, Span, Tracer


def test_counters_always_on():
    t = Tracer()
    t.count("cat.a")
    t.count("cat.a")
    t.count("cat.b", 3)
    assert t.counters["cat.a"] == 2
    assert t.counters["cat.b"] == 3


def test_clock_binding():
    sim = Simulator()
    t = Tracer()
    t.bind_clock(lambda: sim.now)
    spans = []

    def proc():
        yield sim.timeout(2.5)
        spans.append(t.new_span("send"))

    sim.spawn(proc())
    sim.run()
    assert spans[0].start == pytest.approx(2.5)


def test_accumulate_and_observe():
    t = Tracer()
    t.accumulate("bytes", 100)
    t.accumulate("bytes", 50)
    assert t.accumulators["bytes"] == 150
    for v in (1.0, 3.0, 2.0):
        t.observe("lat", v)
    stat = t.stats["lat"]
    assert stat.count == 3
    assert stat.mean == pytest.approx(2.0)
    assert stat.min == 1.0
    assert stat.max == 3.0


def test_latency_stat_empty_mean():
    assert LatencyStat("x").mean == 0.0


def test_latency_stat_empty_renders_dashes():
    s = LatencyStat("empty")
    text = repr(s)
    assert "n=0" in text
    assert "inf" not in text  # never leak min=inf / max=-inf
    assert "mean=-" in text and "min=-" in text and "max=-" in text
    assert s.percentile(99) == 0.0


def test_latency_stat_percentiles():
    s = LatencyStat("lat")
    for v in range(1, 101):  # 1..100 us
        s.add(v * 1e-6)
    assert s.p50 == pytest.approx(50e-6, rel=0.30)
    assert s.p95 == pytest.approx(95e-6, rel=0.30)
    assert s.p99 == pytest.approx(99e-6, rel=0.30)
    # percentiles clamp to the exact observed extremes
    assert s.min <= s.percentile(0.1) <= s.percentile(99.9) <= s.max
    assert s.percentile(100) == s.max
    with pytest.raises(ValueError):
        s.percentile(101)


def test_latency_stat_percentile_single_value():
    s = LatencyStat("one")
    s.add(7e-6)
    for q in (1, 50, 99):
        assert s.percentile(q) == pytest.approx(7e-6)


def test_latency_stat_zero_values_bucketed():
    s = LatencyStat("z")
    s.add(0.0)
    s.add(0.0)
    s.add(1e-3)
    assert s.zeros == 2
    assert s.percentile(50) == 0.0
    assert s.percentile(99) == pytest.approx(1e-3)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _clocked_tracer():
    sim = Simulator()
    t = Tracer()
    t.bind_clock(lambda: sim.now)
    return sim, t


def test_span_phase_durations_telescope():
    span = Span("send", start=1.0)
    span.mark("a", 1.5)
    span.mark("b", 1.5)   # zero-duration phases are fine
    span.mark("c", 2.25)
    assert span.elapsed == pytest.approx(1.25)
    d = span.phase_durations()
    assert d == {"a": 0.5, "b": 0.0, "c": 0.75}
    assert sum(d.values()) == span.elapsed  # exact, not approx


def test_span_repeated_phase_accumulates():
    span = Span("rma", start=0.0)
    span.mark("retry", 1.0)
    span.mark("post", 1.5)
    span.mark("retry", 3.0)
    assert span.phase_durations()["retry"] == pytest.approx(2.5)


def test_span_marks_must_be_monotone():
    span = Span("send", start=5.0)
    span.mark("a", 6.0)
    with pytest.raises(SimError):
        span.mark("b", 5.5)
    with pytest.raises(SimError):
        Span("x", start=2.0).mark("a", 1.0)


def test_tracer_span_lifecycle_and_tag_binding():
    sim, t = _clocked_tracer()
    span = t.new_span("send", vm="vm0")
    t.bind_span(7, span)
    assert t.span_for(7) is span
    t.mark_tag(7, "posted")
    t.mark_tag(99, "nobody")  # unknown tags are ignored
    # a retry renews the tag; both correlate to the same span
    t.bind_span(8, span)
    assert span.tags == [7, 8]
    assert t.span_for(8) is span
    t.end_span(span, "ok")
    assert span.closed and span.status == "ok"
    assert t.span_for(7) is None and t.span_for(8) is None
    assert list(t.spans) == [span]
    # ending twice keeps the first status and does not double-store
    t.end_span(span, "error")
    assert span.status == "ok" and len(t.spans) == 1


def test_tracer_mark_skips_closed_spans():
    sim, t = _clocked_tracer()
    span = t.new_span("send")
    t.end_span(span, "ok")
    t.mark(span, "late")
    assert span.marks == []


def test_tracer_spans_disabled_is_nullop():
    """A caller with spans off (``VPhiConfig(trace_spans=False)``) passes
    ``None`` for its span; every span method takes it as a no-op."""
    t = Tracer()
    t.bind_span(1, None)
    t.mark(None, "x")
    t.end_span(None)
    assert len(t.spans) == 0 and not t.active_spans


def test_tracer_span_buffer_caps_and_counts_drops():
    sim, t = _clocked_tracer()
    t.spans = type(t.spans)(maxlen=2)
    for i in range(5):
        t.end_span(t.new_span(f"op{i}"), "ok")
    assert [s.op for s in t.spans] == ["op3", "op4"]
    assert t.dropped_spans == 3
    assert not t.counters  # the drop count is an attribute, not a key


def test_export_chrome_trace_shape():
    sim, t = _clocked_tracer()

    def work():
        span = t.new_span("send", vm="vm0")
        t.bind_span(1, span)
        yield sim.timeout(1e-6)
        t.mark(span, "post")
        yield sim.timeout(2e-6)
        t.mark(span, "wait")
        t.end_span(span, "ok")

    sim.spawn(work())
    sim.run()
    doc = t.export_chrome_trace()
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    xs = [e for e in events if e["ph"] == "X"]
    assert meta[0]["args"]["name"] == "vm0"
    # one enclosing event + one per phase segment
    assert len(xs) == 3
    enclosing = xs[0]
    assert enclosing["name"] == "send"
    assert enclosing["dur"] == pytest.approx(3.0)  # microseconds
    assert sum(e["dur"] for e in xs[1:]) == pytest.approx(enclosing["dur"])
    # every X event is well-formed
    for e in xs:
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)


def test_export_chrome_trace_include_open():
    sim, t = _clocked_tracer()
    span = t.new_span("poll", vm="vm1")
    t.bind_span(3, span)
    assert all(e["ph"] == "M" or e["args"].get("status") != "open"
               for e in t.export_chrome_trace()["traceEvents"])
    doc = t.export_chrome_trace(include_open=True)
    open_events = [e for e in doc["traceEvents"]
                   if e["ph"] == "X" and e["args"].get("status") == "open"]
    assert len(open_events) == 1


def test_reset_clears_spans():
    sim, t = _clocked_tracer()
    t.count("ops")
    t.accumulate("bytes", 1.0)
    t.observe("lat", 1.0)
    t.bind_span(1, t.new_span("send"))
    t.end_span(t.new_span("recv"), "ok")
    t.reset()
    assert not t.counters and not t.accumulators and not t.stats
    assert not t.active_spans and len(t.spans) == 0
    assert t.dropped_spans == 0


def test_replacing_a_ring_rebinds_its_drop_bookkeeping():
    """The bound check is hoisted to a precomputed cap; swapping in a
    replacement deque (as soak harnesses do) must rebind it — drops
    keep being counted against the *new* cap, and an uncapped
    replacement stops counting drops entirely."""
    from collections import deque

    sim, t = _clocked_tracer()
    t.spans = deque(maxlen=2)
    for i in range(5):
        t.end_span(t.new_span(f"m{i}"), "ok")
    assert [s.op for s in t.spans] == ["m3", "m4"]
    assert t.dropped_spans == 3

    t.spans = deque()  # uncapped: nothing further drops
    for i in range(10):
        t.end_span(t.new_span(f"n{i}"), "ok")
    assert len(t.spans) == 10
    assert t.dropped_spans == 3
