"""Tests for the time-series metrics layer (repro.obs.metrics)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    JobObservability,
    LiveGauge,
    MetricsRegistry,
    MetricsTicker,
    ensure_parent,
    load_metrics,
    write_metrics,
)


class TestTimeSeries:
    def test_sample_and_summary(self):
        metrics = MetricsRegistry(clock=lambda: 0.0)
        for t, value in [(0.0, 2.0), (1.0, 6.0), (2.0, 4.0)]:
            metrics.sample("depth", value, t=t, unit="records")
        series = metrics.series("depth")
        assert series.points() == [(0.0, 2.0), (1.0, 6.0), (2.0, 4.0)]
        assert series.unit == "records"
        assert series.summary() == {
            "n": 3, "min": 2.0, "max": 6.0, "mean": 4.0, "last": 4.0,
        }

    def test_empty_summary_is_zeros(self):
        metrics = MetricsRegistry()
        metrics.sample("s", 1.0)
        assert metrics.series("missing") is None
        from repro.obs.metrics import TimeSeries

        assert TimeSeries("empty").summary()["n"] == 0

    def test_clock_default_used_when_t_omitted(self):
        ticks = iter([1.5, 2.5])
        metrics = MetricsRegistry(clock=lambda: next(ticks))
        metrics.sample("s", 10.0)
        metrics.sample("s", 20.0)
        assert [t for t, _v in metrics.series("s").points()] == [1.5, 2.5]


class TestMaximaAndGauges:
    def test_observe_max_keeps_high_water_mark(self):
        metrics = MetricsRegistry()
        for value in (3.0, 9.0, 5.0):
            metrics.observe_max("hwm", value)
        assert metrics.maxima() == {"hwm": 9.0}

    def test_gauge_sampled_per_tick(self):
        clock = iter([0.0, 1.0, 2.0]).__next__
        metrics = MetricsRegistry(clock=clock)
        depth = LiveGauge()
        metrics.register_gauge("depth", depth.value, unit="records")
        depth.add(4)
        metrics.sample_gauges(t=1.0)
        depth.add(-3)
        metrics.sample_gauges(t=2.0)
        assert metrics.series("depth").points() == [(1.0, 4.0), (2.0, 1.0)]

    def test_rate_is_delta_over_dt(self):
        metrics = MetricsRegistry(clock=lambda: 0.0)
        total = {"v": 0}
        metrics.register_rate("rate", lambda: total["v"], unit="records/s")
        total["v"] = 100
        metrics.sample_gauges(t=2.0)
        total["v"] = 100  # no progress
        metrics.sample_gauges(t=4.0)
        assert metrics.series("rate").values() == [50.0, 0.0]

    def test_failing_gauge_skipped_not_fatal(self):
        metrics = MetricsRegistry()

        def boom():
            raise RuntimeError("gone")

        metrics.register_gauge("bad", boom)
        metrics.register_gauge("good", lambda: 7.0)
        metrics.sample_gauges(t=1.0)
        assert metrics.series("bad") is None
        assert metrics.series("good").values() == [7.0]

    def test_unregister_stops_ticking_keeps_samples(self):
        metrics = MetricsRegistry()
        metrics.register_gauge("g", lambda: 1.0)
        metrics.sample_gauges(t=1.0)
        metrics.unregister("g")
        metrics.sample_gauges(t=2.0)
        assert len(metrics.series("g")) == 1

    def test_disabled_registry_is_a_noop(self):
        metrics = MetricsRegistry(enabled=False)
        metrics.sample("s", 1.0, t=0.0)
        metrics.observe_max("m", 1.0)
        metrics.register_gauge("g", lambda: 1.0)
        metrics.sample_gauges(t=1.0)
        assert len(metrics) == 0
        assert metrics.maxima() == {}


class TestLiveGauge:
    def test_concurrent_adds_balance(self):
        gauge = LiveGauge()

        def work():
            for _ in range(1000):
                gauge.add(1)
                gauge.add(-1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gauge.value() == 0


class TestTicker:
    def test_ticker_samples_and_final_sample_on_stop(self):
        metrics = MetricsRegistry()
        metrics.register_gauge("g", lambda: 42.0)
        ticker = MetricsTicker(metrics, interval_s=0.005)
        ticker.start()
        ticker.stop()
        # stop() always takes a final sample, so even an instant run
        # records at least one point.
        assert len(metrics.series("g")) >= 1
        assert metrics.series("g").values()[-1] == 42.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MetricsTicker(MetricsRegistry(), interval_s=0.0)

    def test_disabled_registry_never_starts_thread(self):
        metrics = MetricsRegistry(enabled=False)
        ticker = MetricsTicker(metrics, interval_s=0.005)
        ticker.start()
        assert ticker._thread is None
        ticker.stop()


class TestPersistence:
    def test_roundtrip_into_missing_directory(self, tmp_path):
        metrics = MetricsRegistry(clock=lambda: 0.0)
        metrics.sample("depth", 3.0, t=1.0, unit="records")
        metrics.observe_max("hwm", 9.0)
        path = tmp_path / "deep" / "nested" / "metrics.json"
        write_metrics(str(path), metrics)
        loaded = load_metrics(str(path))
        assert loaded["schema"] == 1
        assert loaded["series"]["depth"]["points"] == [[1.0, 3.0]]
        assert loaded["maxima"] == {"hwm": 9.0}

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_metrics(str(path))

    def test_ensure_parent_handles_bare_filename(self):
        assert ensure_parent("metrics.json") == "metrics.json"


class TestBundleIntegration:
    def test_metrics_share_tracer_clock(self):
        obs = JobObservability()
        assert obs.metrics.enabled
        obs.metrics.sample("s", 1.0)
        t = obs.metrics.series("s").points()[0][0]
        assert t >= 0.0

    def test_disabled_bundle_disables_metrics(self):
        obs = JobObservability.disabled()
        obs.metrics.sample("s", 1.0, t=0.0)
        assert len(obs.metrics) == 0
