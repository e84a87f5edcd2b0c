"""The metrics registry: percentiles, metric types, no-op discipline."""

import math

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    active_registry,
    observe,
    percentile_nearest_rank,
    set_active_registry,
)


class TestPercentile:
    def test_p99_of_100_distinct_samples_is_the_100th_value(self):
        # the regression the shared helper exists for: round-based
        # indexing (int(round(0.99 * 99)) == 98) reported the 99th value
        samples = list(range(1, 101))
        assert percentile_nearest_rank(samples, 0.99) == 100

    def test_order_independent(self):
        samples = [5, 1, 4, 2, 3]
        assert percentile_nearest_rank(samples, 0.5) == 3

    def test_extremes(self):
        samples = [10, 20, 30]
        assert percentile_nearest_rank(samples, 0.0) == 10
        assert percentile_nearest_rank(samples, 1.0) == 30

    def test_single_sample(self):
        assert percentile_nearest_rank([42], 0.99) == 42

    def test_never_under_reports_the_tail(self):
        # any non-zero fraction of two samples must report the larger one
        assert percentile_nearest_rank([1, 1000], 0.01) == 1000

    def test_empty_is_nan(self):
        assert math.isnan(percentile_nearest_rank([], 0.5))

    def test_fraction_out_of_range(self):
        with pytest.raises(MetricsError):
            percentile_nearest_rank([1], 1.5)
        with pytest.raises(MetricsError):
            percentile_nearest_rank([1], -0.1)

    def test_accepts_generators(self):
        assert percentile_nearest_rank((v for v in (3, 1, 2)), 1.0) == 3


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(MetricsError):
            Counter("c").inc(-1)


class TestGauge:
    def test_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(9.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.max_value == 9.0

    def test_negative_first_value_is_its_own_maximum(self):
        gauge = Gauge("g")
        gauge.set(-5.0)
        assert gauge.max_value == -5.0


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.count == 100
        assert histogram.min == 1
        assert histogram.max == 100
        assert histogram.mean() == 50.5
        assert histogram.percentile(0.99) == 100


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_cross_type_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")
        with pytest.raises(MetricsError):
            registry.histogram("x")

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("")
        with pytest.raises(MetricsError):
            registry.counter(None)

    def test_as_dict_is_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(7)
        snapshot = registry.as_dict()
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["p99"] == 7
        json.dumps(snapshot)  # must not choke on NaN or exotic types

    def test_names_and_len(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ("a", "b")
        assert len(registry) == 2

    def test_render_table_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.histogram("lat").observe(5)
        table = registry.render_table()
        assert "hits" in table and "lat" in table
        assert MetricsRegistry().render_table() == "(no metrics recorded)"


class TestActiveRegistry:
    def test_disabled_by_default(self):
        assert active_registry() is None

    def test_observe_installs_and_restores(self):
        assert active_registry() is None
        with observe() as registry:
            assert active_registry() is registry
            with observe() as inner:
                assert active_registry() is inner
            assert active_registry() is registry
        assert active_registry() is None

    def test_observe_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with observe():
                raise RuntimeError("boom")
        assert active_registry() is None

    def test_set_active_registry_returns_previous(self):
        registry = MetricsRegistry()
        assert set_active_registry(registry) is None
        assert set_active_registry(None) is registry
        assert active_registry() is None
