"""Telemetry-plane unit tests: metrics, tracer, process-global hooks.

The contracts pinned here (see ``docs/observability.md``):

* **Exact instruments** — counters/gauges hold exact values;
  ``Histogram.percentile`` matches ``numpy.percentile``'s linear
  interpolation bit-for-bit, so registry numbers agree with the
  numpy-computed report numbers elsewhere in the repo.
* **Typed registry** — re-registering a name as a different instrument
  kind raises; same (name, labels) returns the same object.
* **Deterministic traces** — sequential ids plus an injected clock make
  two identical recordings export byte-identical JSONL.
* **Bounded buffer** — the tracer ring drops the *oldest* records past
  capacity and counts the drops.
* **Schema round-trip** — ``export_jsonl`` -> ``parse_jsonl`` is
  lossless (NaN/inf/quote/backslash/numpy-scalar attrs included), and
  ``parse_prometheus`` reads back every rendered snapshot.
* **No-op-fast globals** — with no bundle installed, the module hooks
  return immediately (shared ``NULL_SPAN``); ``active()`` restores the
  previously installed bundle on exit.
"""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
    Tracer,
)


class FakeClock:
    """Deterministic monotonic clock: every call advances ``dt``."""

    def __init__(self, dt=1e-3):
        self.now = 0.0
        self.dt = dt

    def __call__(self):
        self.now += self.dt
        return self.now


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestInstruments:
    def test_counter_counts_and_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_tracks_running_max(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.max == 4.0
        gauge.set_max(0.5)  # keeps the current value, not the candidate
        assert gauge.value == 1.0

    def test_histogram_percentile_matches_numpy(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(5.0, size=137)
        histogram = MetricsRegistry().histogram("h")
        for sample in samples:
            histogram.observe(sample)
        for p in (0, 25, 50, 90, 95, 99, 100):
            assert histogram.percentile(p) == pytest.approx(
                np.percentile(samples, p), rel=1e-12)
        # The start= window reads only samples added after the snapshot.
        start = histogram.count
        histogram.observe(1e9)
        assert histogram.percentile(50, start=start) == 1e9

    def test_histogram_percentile_is_bitwise_numpy(self):
        # Exact equality, not approx: the report's percentiles must be the
        # very numbers numpy.percentile gives for the same window.
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 250))
            samples = (rng.exponential(rng.uniform(0.1, 50.0), size=n)
                       * 10.0 ** int(rng.integers(-3, 4)))
            histogram = MetricsRegistry().histogram("h")
            for sample in samples:
                histogram.observe(sample)
            assert histogram.count == n
            assert histogram.samples == tuple(samples.tolist())
            for start in (0, int(rng.integers(0, n)), n - 1):
                for p in (0, 1, 25, 50, 90, 95, 99, 99.9, 100,
                          float(rng.uniform(0.0, 100.0))):
                    got = histogram.percentile(p, start=start)
                    assert got == float(np.percentile(samples[start:], p))
            assert histogram.percentile(50, start=n) is None

    def test_histogram_empty_and_buckets(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        assert histogram.percentile(95) is None
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(55.5)


class TestRegistry:
    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("serve.ticks") \
            is registry.counter("serve.ticks")
        assert registry.counter("pool.respawns", worker=1) \
            is not registry.counter("pool.respawns", worker=2)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_value_and_labelled_views(self):
        registry = MetricsRegistry()
        registry.counter("pool.respawns", worker=0).inc(2)
        registry.counter("pool.respawns", worker=1).inc()
        assert registry.value("pool.respawns", worker=0) == 2
        assert registry.value("missing", default=-1.0) == -1.0
        assert len(registry.labelled("pool.respawns")) == 2

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("serve.completed", help="done").inc(7)
        registry.gauge("serve.max_tick_batch").set(3)
        histogram = registry.histogram("serve.queue_wait_ms",
                                       buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.render_prometheus()
        samples = obs.parse_prometheus(text)
        assert samples["repro_serve_completed"] == 7
        assert samples["repro_serve_max_tick_batch"] == 3
        assert samples['repro_serve_queue_wait_ms_bucket{le="1"}'] == 1
        assert samples['repro_serve_queue_wait_ms_bucket{le="+Inf"}'] == 2
        assert samples["repro_serve_queue_wait_ms_count"] == 2
        assert "# TYPE repro_serve_completed counter" in text
        assert "# HELP repro_serve_completed done" in text

    def test_prometheus_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="not 'name value'"):
            obs.parse_prometheus("just-a-name\n")
        with pytest.raises(ValueError, match="repeats sample"):
            obs.parse_prometheus("repro_x 1\nrepro_x 2\n")

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) \
            == sorted(DEFAULT_LATENCY_BUCKETS_MS)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nesting_parents_and_sequential_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            tracer.event("mark")
            with tracer.span("inner"):
                pass
        records = tracer.records
        assert [r["name"] for r in records] == ["mark", "inner", "outer"]
        mark, inner, closed_outer = records
        assert mark["parent"] == outer.span_id
        assert inner["parent"] == outer.span_id
        assert closed_outer["parent"] is None
        assert {r["trace"] for r in records} == {outer.trace_id}
        assert closed_outer["duration"] > 0
        assert mark["duration"] is None

    def test_ring_drops_oldest(self):
        tracer = Tracer(clock=FakeClock(), capacity=3)
        for index in range(5):
            tracer.event(f"e{index}")
        assert [r["name"] for r in tracer.records] == ["e2", "e3", "e4"]
        assert tracer.dropped == 2
        assert len(tracer) == 3

    def test_export_round_trip_with_hostile_attrs(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("nasty", text='say "hi"\\now', nan=float("nan"),
                     inf=float("inf"), neg=-0.0, npf=np.float64(2.5),
                     npi=np.int64(7), arr=np.arange(2), none=None,
                     flag=True)
        exported = tracer.export_jsonl()
        for line in exported.splitlines():
            json.loads(line)  # every line is standalone-valid JSON
        (record,) = obs.parse_jsonl(exported)
        attrs = record["attrs"]
        assert attrs["text"] == 'say "hi"\\now'
        assert math.isnan(attrs["nan"])
        assert attrs["inf"] == float("inf")
        assert attrs["npf"] == 2.5 and isinstance(attrs["npf"], float)
        assert attrs["npi"] == 7 and isinstance(attrs["npi"], int)
        assert attrs["arr"] == "[0 1]"  # arrays stringify, never nest
        assert attrs["none"] is None and attrs["flag"] is True

    def test_exports_are_deterministic_under_fake_clock(self):
        def record(tracer):
            with tracer.span("tick", batch=2):
                tracer.event("ticket.completed", request=0, ok=True)
            return tracer.export_jsonl()

        assert record(Tracer(clock=FakeClock())) \
            == record(Tracer(clock=FakeClock()))

    def test_span_error_exit_is_recorded(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.records
        assert record["attrs"]["error"] == "RuntimeError"

    def test_validate_record_rejects_schema_drift(self):
        good = obs.parse_jsonl(
            '{"type":"event","trace":"tr0001","span":"sp000001",'
            '"parent":null,"name":"x","start":0.0,"duration":null,'
            '"attrs":{}}\n')[0]
        assert obs.validate_record(good) is good
        for mutation, match in (
                ({"type": "blip"}, "span|event"),
                ({"duration": 1.0}, "duration null"),
                ({"name": ""}, "non-empty"),
                ({"attrs": {"k": [1]}}, "JSON scalar"),
        ):
            with pytest.raises(ValueError, match=match):
                obs.validate_record({**good, **mutation})
        with pytest.raises(ValueError, match="missing fields"):
            obs.validate_record({"type": "event"})

    def test_clear_resets_buffer(self):
        tracer = Tracer(clock=FakeClock(), capacity=1)
        tracer.event("a")
        tracer.event("b")
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)


# ---------------------------------------------------------------------------
# Process-global installation
# ---------------------------------------------------------------------------
class TestGlobals:
    def test_hooks_are_noop_without_bundle(self):
        assert obs.active_telemetry() is None
        assert obs.span("x") is obs.NULL_SPAN
        assert obs.timed_span("x", metric="m") is obs.NULL_SPAN
        obs.event("x")  # must not raise, must not record anywhere

    def test_active_scopes_and_restores(self):
        outer = obs.Telemetry(clock=FakeClock())
        inner = obs.Telemetry(clock=FakeClock())
        with obs.active(outer):
            with obs.active(inner):
                obs.event("seen")
                assert obs.active_telemetry() is inner
            assert obs.active_telemetry() is outer
        assert obs.active_telemetry() is None
        assert [r["name"] for r in inner.tracer.records] == ["seen"]
        assert len(outer.tracer) == 0

    def test_active_none_is_passthrough(self):
        with obs.active(None) as bundle:
            assert bundle is None
            assert obs.active_telemetry() is None

    def test_timed_decorator_records_span_and_histogram(self):
        telemetry = obs.Telemetry(clock=FakeClock(dt=0.5))

        @obs.timed("engine.run", metric="engine.run_ms", engine="fused")
        def work():
            return 42

        assert work() == 42  # no bundle installed: plain call
        with obs.active(telemetry):
            assert work() == 42
        (record,) = telemetry.tracer.records
        assert record["name"] == "engine.run"
        assert record["attrs"]["engine"] == "fused"
        histogram = telemetry.metrics.histogram("engine.run_ms")
        assert histogram.count == 1
        # FakeClock(dt=0.5): one clock tick between enter and exit.
        assert histogram.samples[0] == pytest.approx(500.0)

    def test_timed_span_observes_duration_ms(self):
        telemetry = obs.Telemetry(clock=FakeClock(dt=2.0))
        with telemetry.timed_span("tick", metric="tick_ms", batch=4) as span:
            pass
        assert span.attrs == {"batch": 4}
        assert telemetry.metrics.histogram("tick_ms").samples[0] \
            == pytest.approx(2000.0)
