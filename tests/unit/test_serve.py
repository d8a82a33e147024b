"""Unit tests for the serving subsystem (metrics, caches, sessions, protocol)."""

import threading

import pytest

from repro.serve import (
    GenerationalCache,
    MetricsRegistry,
    ProtocolError,
    SayRequest,
    SearchRequest,
    ServeConfig,
    ServingCache,
    SessionStore,
    SessionStoreFull,
    error_payload,
    percentile,
)


class TestPercentile:
    def test_nearest_rank_on_1_to_100(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 95.0) == 95.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.5], 1.0) == 7.5
        assert percentile([7.5], 99.0) == 7.5

    def test_zeroth_percentile_is_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0, 3.0], 50.0) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_hundredth_percentile_is_maximum(self):
        assert percentile([3.0, 9.0, 1.0], 100.0) == 9.0

    def test_error_messages_carry_the_metric_label(self):
        with pytest.raises(ValueError, match="stage.serve.batch_seconds"):
            percentile([], 50.0, label="stage.serve.batch_seconds")
        with pytest.raises(ValueError, match="stage.serve.batch_seconds"):
            percentile([1.0], 150.0, label="stage.serve.batch_seconds")

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.incr("requests")
        metrics.incr("requests", 4)
        assert metrics.counter("requests") == 5
        assert metrics.counter("never_touched") == 0

    def test_histogram_snapshot(self):
        metrics = MetricsRegistry()
        for value in range(1, 101):
            metrics.observe("latency", float(value))
        snap = metrics.snapshot()["histograms"]["latency"]
        assert snap["count"] == 100
        assert snap["mean"] == pytest.approx(50.5)
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        assert snap["p50"] == 50.0
        assert snap["p95"] == 95.0
        assert snap["p99"] == 99.0

    def test_window_bounds_percentiles_but_not_count(self):
        metrics = MetricsRegistry(window_size=10)
        for value in range(100):
            metrics.observe("latency", float(value))
        snap = metrics.snapshot()["histograms"]["latency"]
        assert snap["count"] == 100  # lifetime
        assert snap["p50"] >= 90.0  # window holds the last 10 only

    def test_time_context_manager_uses_injected_clock(self):
        clock = FakeClock()
        metrics = MetricsRegistry(clock=clock)
        with metrics.time("op"):
            clock.advance(1.5)
        snap = metrics.snapshot()["histograms"]["op"]
        assert snap["max"] == pytest.approx(1.5)

    def test_hit_miss_ratio_rollup(self):
        metrics = MetricsRegistry()
        metrics.incr("cache.ranking.hit", 3)
        metrics.incr("cache.ranking.miss", 1)
        assert metrics.snapshot()["ratios"]["cache.ranking"] == pytest.approx(0.75)

    def test_empty_histogram_snapshot_is_all_zeros(self):
        from repro.serve.metrics import _Histogram

        snap = _Histogram(window_size=16).snapshot()
        assert snap == {
            "count": 0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_snapshot_is_json_clean(self):
        import json

        metrics = MetricsRegistry()
        metrics.incr("a")
        metrics.observe("b", 1.0)
        json.dumps(metrics.snapshot())  # should not raise

    def test_thread_safety_of_counters(self):
        metrics = MetricsRegistry()

        def spin():
            for _ in range(1000):
                metrics.incr("n")

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("n") == 8000

    def test_uptime_uses_injected_wall_clock(self):
        # Regression: uptime_seconds was pinned to time.time() even though
        # every duration already used the injected clock — an uptime of
        # exactly 42s was untestable.
        wall = FakeClock()
        wall.now = 1_000.0
        metrics = MetricsRegistry(wall_clock=wall)
        assert metrics.snapshot()["uptime_seconds"] == 0.0
        wall.advance(42.0)
        assert metrics.snapshot()["uptime_seconds"] == pytest.approx(42.0)

    def test_collect_returns_counters_and_window_samples(self):
        metrics = MetricsRegistry(window_size=2)
        metrics.incr("requests", 3)
        for value in (1.0, 2.0, 3.0):
            metrics.observe("latency", value)
        collected = metrics.collect()
        assert collected["counters"] == {"requests": 3}
        count, samples = collected["windows"]["latency"]
        assert count == 3  # cumulative, beyond the window
        assert samples == (2.0, 3.0)  # the retained window only

    def test_collect_is_a_snapshot_not_a_view(self):
        metrics = MetricsRegistry()
        metrics.incr("requests")
        collected = metrics.collect()
        metrics.incr("requests")
        assert collected["counters"]["requests"] == 1


class TestGenerationalCache:
    def test_put_get_same_generation(self):
        cache = GenerationalCache()
        cache.put("k", 1, "value")
        assert cache.get("k", 1) == "value"

    def test_generation_mismatch_misses_and_evicts(self):
        cache = GenerationalCache()
        cache.put("k", 1, "stale")
        assert cache.get("k", 2) is None
        assert len(cache) == 0  # the stale entry is gone
        assert cache.get("k", 1) is None  # even asking for the old generation

    def test_lru_bound(self):
        cache = GenerationalCache(max_size=2)
        cache.put("a", 1, 1)
        cache.put("b", 1, 2)
        cache.get("a", 1)  # refresh a
        cache.put("c", 1, 3)  # evicts b
        assert cache.get("a", 1) == 1
        assert cache.get("b", 1) is None
        assert cache.get("c", 1) == 3

    def test_zero_size_disables(self):
        cache = GenerationalCache(max_size=0)
        cache.put("k", 1, "v")
        assert cache.get("k", 1) is None
        assert len(cache) == 0

    def test_purge_older_than(self):
        cache = GenerationalCache()
        cache.put("old", 1, 1)
        cache.put("new", 2, 2)
        assert cache.purge_older_than(2) == 1
        assert cache.get("new", 2) == 2
        assert len(cache) == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            GenerationalCache(max_size=-1)


class TestServingCache:
    def test_ranking_roundtrip_and_metrics(self):
        metrics = MetricsRegistry()
        cache = ServingCache(16, metrics)
        assert cache.ranking_for(("delicious food",), 5, 1) is None
        cache.put_ranking(("delicious food",), 5, 1, (("e1", 0.9),))
        assert cache.ranking_for(("delicious food",), 5, 1) == (("e1", 0.9),)
        assert metrics.counter("cache.ranking.miss") == 1
        assert metrics.counter("cache.ranking.hit") == 1

    def test_top_k_is_part_of_the_key(self):
        cache = ServingCache(16)
        cache.put_ranking(("t",), 5, 1, "five")
        assert cache.ranking_for(("t",), 10, 1) is None
        assert cache.ranking_for(("t",), 5, 1) == "five"

    def test_utterance_normalisation(self):
        cache = ServingCache(16)
        cache.put_tags("Delicious   Food", 1, "tags")
        assert cache.tags_for("delicious food", 1) == "tags"

    def test_invalidate_before_sweeps_both_levels(self):
        cache = ServingCache(16)
        cache.put_tags("hello", 1, "t")
        cache.put_ranking(("a",), None, 1, "r")
        assert cache.invalidate_before(2) == 2
        assert cache.tags_for("hello", 1) is None


class TestSessionStore:
    @staticmethod
    def store(clock, **kwargs):
        counter = iter(range(10_000))
        return SessionStore(
            factory=lambda: f"session-{next(counter)}", clock=clock, **kwargs
        )

    def test_checkout_creates_once(self):
        clock = FakeClock()
        store = self.store(clock)
        with store.checkout("alice") as first:
            pass
        with store.checkout("alice") as second:
            pass
        assert first is second
        assert len(store) == 1

    def test_ttl_eviction(self):
        clock = FakeClock()
        store = self.store(clock, ttl_seconds=60.0)
        with store.checkout("alice"):
            pass
        clock.advance(61.0)
        assert store.evict_expired() == ["alice"]
        assert "alice" not in store

    def test_access_refreshes_ttl(self):
        clock = FakeClock()
        store = self.store(clock, ttl_seconds=60.0)
        with store.checkout("alice"):
            pass
        clock.advance(50.0)
        with store.checkout("alice"):
            pass
        clock.advance(50.0)
        assert store.evict_expired() == []  # only 50s idle since last touch

    def test_expired_session_replaced_on_access(self):
        clock = FakeClock()
        store = self.store(clock, ttl_seconds=60.0)
        with store.checkout("alice") as before:
            pass
        clock.advance(120.0)
        with store.checkout("alice") as after:
            pass
        assert before is not after  # a fresh conversation, not the stale one

    def test_lru_eviction_at_capacity(self):
        clock = FakeClock()
        store = self.store(clock, max_sessions=2)
        with store.checkout("a"):
            pass
        clock.advance(1.0)
        with store.checkout("b"):
            pass
        clock.advance(1.0)
        with store.checkout("c"):
            pass
        assert "a" not in store  # least recently used went first
        assert "b" in store and "c" in store

    def test_busy_sessions_survive_capacity_eviction(self):
        clock = FakeClock()
        store = self.store(clock, max_sessions=1)
        with store.checkout("busy"):
            with pytest.raises(SessionStoreFull):
                store._acquire_entry("newcomer")

    def test_drop(self):
        store = self.store(FakeClock())
        with store.checkout("alice"):
            pass
        assert store.drop("alice") is True
        assert store.drop("alice") is False

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SessionStore(factory=object, ttl_seconds=0)
        with pytest.raises(ValueError):
            SessionStore(factory=object, max_sessions=0)


class TestProtocol:
    def test_search_request_with_tags(self):
        request = SearchRequest.parse({"tags": ["delicious food"], "top_k": 3})
        assert request.tags[0].text == "delicious food"
        assert request.utterance is None
        assert request.top_k == 3

    def test_search_request_with_utterance(self):
        request = SearchRequest.parse({"utterance": "cheap italian place"})
        assert request.utterance == "cheap italian place"
        assert request.tags == ()

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # neither tags nor utterance
            {"tags": []},  # empty tags
            {"tags": "delicious food"},  # not a list
            {"tags": [42]},  # non-string tag
            {"tags": ["delicious food"], "utterance": "x"},  # both
            {"utterance": "   "},  # blank utterance
            {"tags": ["food"] * 17},  # over the per-query ceiling
            {"tags": ["delicious food"], "top_k": 0},
            {"tags": ["delicious food"], "top_k": True},
            {"tags": ["delicious food"], "top_k": "many"},
            "not a mapping",
        ],
    )
    def test_invalid_search_requests(self, payload):
        with pytest.raises(ProtocolError):
            SearchRequest.parse(payload)

    def test_unparseable_tag_mentions_it(self):
        with pytest.raises(ProtocolError, match="unparseable tag"):
            SearchRequest.parse({"tags": ["food"]})  # no opinion part

    def test_say_request(self):
        assert SayRequest.parse({"utterance": "hi"}).utterance == "hi"
        with pytest.raises(ProtocolError):
            SayRequest.parse({})

    def test_error_payload_shape(self):
        assert error_payload("code", "msg") == {
            "error": {"code": "code", "message": "msg"}
        }

    def test_protocol_error_carries_status(self):
        error = ProtocolError("nope", status=413, code="too_large")
        assert error.status == 413
        assert error.code == "too_large"


class TestServeConfig:
    def test_defaults_are_sane(self):
        config = ServeConfig()
        assert config.max_batch_size >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"cache_size": -1},
            {"request_timeout_seconds": 0.0},
            {"rebuild_pace_seconds": -0.001},
            {"collector_interval_seconds": 0.0},
            {"collector_retention": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


class _StubExtractionEngine:
    def __init__(self):
        from repro.core.extraction_engine import ExtractionEngineConfig

        self.config = ExtractionEngineConfig()

    def bind_metrics(self, metrics):
        self.metrics = metrics


class _StubSaccs:
    """Just enough facade surface for SaccsRuntime's lifecycle paths."""

    def __init__(self):
        self.extraction_engine = _StubExtractionEngine()
        self.index_generation = 0
        self.index = {}
        self.entities = []


def _scheduler_threads():
    return [
        thread for thread in threading.enumerate() if thread.name == "saccs-worker"
    ]


class TestRuntimeLifecycle:
    """Regression tests for the lock-discipline fixes in SaccsRuntime.

    start()/stop() used to test-and-set self._running and replace the
    scheduler threads without a lock (flagged by `unguarded-attr-write` and
    `check-then-act`); racing callers could double-spawn the scheduler or
    drop live threads.  Both now serialise on the lifecycle lock.
    """

    def test_concurrent_start_spawns_exactly_one_scheduler(self):
        from repro.serve import SaccsRuntime

        runtime = SaccsRuntime(_StubSaccs(), ServeConfig())
        before = len(_scheduler_threads())
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            runtime.start()

        racers = [threading.Thread(target=racer, daemon=True) for _ in range(8)]
        for thread in racers:
            thread.start()
        for thread in racers:
            thread.join(timeout=5.0)
        try:
            # One worker, regardless of racing callers.
            assert runtime._worker is not None and runtime._worker.is_alive()
            assert len(_scheduler_threads()) - before == 1
        finally:
            runtime.stop()

    def test_concurrent_stop_is_idempotent_and_drains(self):
        from repro.serve import SaccsRuntime

        before = len(_scheduler_threads())
        runtime = SaccsRuntime(_StubSaccs(), ServeConfig()).start()
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            runtime.stop()

        racers = [threading.Thread(target=racer, daemon=True) for _ in range(8)]
        for thread in racers:
            thread.start()
        for thread in racers:
            thread.join(timeout=5.0)
        assert runtime._worker is None
        assert len(_scheduler_threads()) == before

    def test_restart_after_stop(self):
        from repro.serve import SaccsRuntime

        runtime = SaccsRuntime(_StubSaccs(), ServeConfig())
        runtime.start()
        first = runtime._worker
        runtime.stop()
        assert not first.is_alive()
        runtime.start()
        try:
            assert runtime.health()["status"] == "ok"
            assert runtime._worker is not first and runtime._worker.is_alive()
            assert runtime._worker.name == "saccs-worker"
        finally:
            runtime.stop()
        assert runtime.health()["status"] == "stopped"


class TestRuntimeTelemetry:
    """Collector/SLO wiring on the runtime, driven through the stub facade."""

    def make_runtime(self, **config_kwargs):
        from repro.serve import SaccsRuntime

        return SaccsRuntime(_StubSaccs(), ServeConfig(**config_kwargs))

    def test_collector_thread_follows_the_lifecycle(self):
        runtime = self.make_runtime(collector_interval_seconds=60.0)
        assert runtime.collector is not None
        assert runtime.collector.running is False
        runtime.start()
        try:
            assert runtime.collector.running is True
        finally:
            runtime.stop()
        assert runtime.collector.running is False

    def test_no_collector_config_disables_sampling(self):
        runtime = self.make_runtime(collector_enabled=False)
        assert runtime.collector is None
        with runtime:
            payload = runtime.timeseries_snapshot()
        assert payload["enabled"] is False
        assert payload["points"] == []
        assert runtime.slo_snapshot()["collector_enabled"] is False

    def test_timeseries_snapshot_shape(self):
        runtime = self.make_runtime(
            collector_retention=7, collector_interval_seconds=60.0
        )
        payload = runtime.timeseries_snapshot()
        assert payload["enabled"] is True
        assert payload["retention"] == 7
        assert payload["interval_seconds"] == 60.0

    def test_slo_snapshot_carries_default_specs(self):
        runtime = self.make_runtime()
        names = [slo["name"] for slo in runtime.slo_snapshot()["slos"]]
        assert names == ["search-latency", "availability"]

    def test_custom_slo_specs_replace_the_defaults(self):
        from repro.obs import SLOSpec
        from repro.serve import SaccsRuntime

        spec = SLOSpec(
            name="say-latency",
            objective="latency",
            target=0.95,
            histogram="latency.say_seconds",
            threshold_ms=250.0,
        )
        runtime = SaccsRuntime(_StubSaccs(), ServeConfig(), slos=[spec])
        (slo,) = runtime.slo_snapshot()["slos"]
        assert slo["name"] == "say-latency"
        assert slo["threshold_ms"] == 250.0

    def test_profile_payload_requires_tracing(self):
        runtime = self.make_runtime()  # default tracer has no store
        with pytest.raises(ProtocolError) as excinfo:
            runtime.profile_payload()
        assert excinfo.value.status == 404
        assert excinfo.value.code == "tracing_disabled"

    def test_traces_snapshot_slow_only_drops_recent(self):
        from repro.obs import TraceStore, Tracer
        from repro.serve import SaccsRuntime

        store = TraceStore(slow_threshold_seconds=0.0)  # everything is slow
        runtime = SaccsRuntime(
            _StubSaccs(), ServeConfig(), tracer=Tracer(store=store)
        )
        with runtime.tracer.trace("serve.search"):
            pass
        full = runtime.traces_snapshot()
        assert len(full["recent"]) == 1 and len(full["slow"]) == 1
        slow = runtime.traces_snapshot(slow_only=True)
        assert slow["recent"] == [] and len(slow["slow"]) == 1


class _Entity:
    def __init__(self, entity_id):
        self.entity_id = entity_id


class _AnswerableStubSaccs(_StubSaccs):
    """Stub facade that can answer tag queries through the batched path.

    ``_tag_sets_many`` returns no subjective signal, so ``filter_and_rank``
    keeps the API order — enough to drive the full queue → worker → resolve
    pipeline (and its tracing) without the neural stack.
    """

    class _Config:
        @staticmethod
        def filter_config():
            return None

    def __init__(self):
        super().__init__()
        self.config = self._Config()
        self.entities = [_Entity("e1"), _Entity("e2")]

    def _tag_sets_many(self, tag_lists):
        return [[] for _ in tag_lists]


class TestRuntimeTracing:
    """The serve-side tracing surface, driven through a stub facade."""

    @staticmethod
    def _runtime():
        from repro.core.tags import SubjectiveTag
        from repro.obs import TraceStore, Tracer
        from repro.serve import SaccsRuntime

        tracer = Tracer(store=TraceStore(slow_threshold_seconds=0.0))
        runtime = SaccsRuntime(
            _AnswerableStubSaccs(), ServeConfig(), tracer=tracer
        )
        return runtime, SubjectiveTag("food", "delicious")

    def test_search_produces_span_tree_and_stage_histograms(self):
        runtime, tag = self._runtime()
        with runtime:
            response = runtime.search([tag])
            assert [entity_id for entity_id, _ in response.results] == ["e1", "e2"]
            assert response.cached is False

            listing = runtime.traces_snapshot()
            assert listing["enabled"] is True
            assert listing["recorded"] == 1
            trace_id = listing["recent"][0]["trace_id"]
            payload = runtime.trace_payload(trace_id)
            spans = {
                item["name"]: item for item in payload["trace"]["spans"]
            }
            root = spans["serve.search"]
            assert root["parent_id"] is None
            assert root["attributes"] == {
                "kind": "tags",
                "tags": 1,
                "cache.ranking": "miss",
            }
            assert spans["serve.enqueue_wait"]["parent_id"] == root["span_id"]
            batch = spans["serve.batch"]
            assert batch["parent_id"] == root["span_id"]
            assert batch["attributes"] == {"batch_size": 1}
            rank = spans["rank.filter_and_rank"]
            assert rank["parent_id"] == batch["span_id"]
            assert rank["attributes"] == {"queries": 1}
            assert payload["tree"]["name"] == "serve.search"

            snapshot = runtime.metrics_snapshot()
            histograms = snapshot["histograms"]
            for name in (
                "stage.serve.search_seconds",
                "stage.serve.enqueue_wait_seconds",
                "stage.serve.batch_seconds",
                "stage.rank.filter_and_rank_seconds",
                "latency.search_seconds",
                "batch.size",
            ):
                stage = histograms[name]
                assert set(stage) == {
                    "count", "mean", "min", "max", "p50", "p95", "p99"
                }
                assert stage["count"] >= 1

    def test_cache_hit_annotates_the_trace_and_rolls_up_ratio(self):
        runtime, tag = self._runtime()
        with runtime:
            assert runtime.search([tag]).cached is False
            assert runtime.search([tag]).cached is True
            snapshot = runtime.metrics_snapshot()
            assert snapshot["ratios"]["cache.ranking"] == pytest.approx(0.5)
            hit_trace = runtime.tracer.store.recent(1)[0]
            root = hit_trace["spans"][0]
            assert root["attributes"]["cache.ranking"] == "hit"
            # The cached path never reached the batch pipeline.
            assert [item["name"] for item in hit_trace["spans"]] == ["serve.search"]

    def test_untraced_runtime_exposes_disabled_debug_surface(self):
        from repro.serve import SaccsRuntime

        runtime = SaccsRuntime(_AnswerableStubSaccs(), ServeConfig())
        assert runtime.tracer.enabled is False
        assert runtime.traces_snapshot() == {
            "enabled": False,
            "recent": [],
            "slow": [],
        }
        with pytest.raises(ProtocolError) as excinfo:
            runtime.trace_payload("t000001")
        assert excinfo.value.code == "tracing_disabled"
        assert excinfo.value.status == 404

    def test_missing_trace_id_is_a_404_with_code(self):
        runtime, _ = self._runtime()
        with pytest.raises(ProtocolError) as excinfo:
            runtime.trace_payload("t999999")
        assert excinfo.value.code == "trace_not_found"
        assert excinfo.value.status == 404


class TestBackgroundReindex:
    """The zero-downtime rebuild protocol: atomic swap, sweep after, paced."""

    @staticmethod
    def _real_runtime(shards=4, cache_size=64, pace_seconds=0.0005):
        from repro.core.extractor import OracleExtractor
        from repro.core.saccs import Saccs, SaccsConfig
        from repro.core.tags import SubjectiveTag
        from repro.data import WorldConfig, build_world
        from repro.serve import SaccsRuntime
        from repro.text import ConceptualSimilarity, restaurant_lexicon

        world = build_world(
            WorldConfig.small(seed=5, num_entities=20, mean_reviews=4.0)
        )
        saccs = Saccs(
            world.entities,
            world.reviews,
            OracleExtractor(),
            ConceptualSimilarity(restaurant_lexicon()),
            SaccsConfig(index_shards=shards),
        )
        dims = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
        saccs.build_index(dims)
        config = ServeConfig(
            max_batch_size=1,
            cache_size=cache_size,
            rebuild_pace_seconds=pace_seconds,
        )
        return SaccsRuntime(saccs, config), dims

    def test_background_reindex_bumps_generation_and_flags_response(self):
        runtime, _ = self._real_runtime(pace_seconds=0.0)
        with runtime:
            start = runtime.generation
            response = runtime.reindex(background=True)
            assert response.background is True
            assert response.full is True
            assert response.generation == start + 1
            assert runtime.generation == start + 1
            payload = response.to_payload()
            assert payload["background"] is True
            assert runtime.metrics.counter("index.swap") == 1

    def test_sweep_runs_strictly_after_the_swap(self):
        """Regression: sweeping before the pointer swap leaks cache entries
        written by searches racing the gap between sweep and swap."""
        runtime, dims = self._real_runtime(pace_seconds=0.0)
        events = []
        original_commit = runtime.saccs.commit_rebuild
        original_sweep = runtime.cache.sweep

        def commit(prepared):
            events.append("commit")
            return original_commit(prepared)

        def sweep(generation):
            events.append(("sweep", generation))
            return original_sweep(generation)

        runtime.saccs.commit_rebuild = commit
        runtime.cache.sweep = sweep
        with runtime:
            runtime.search([dims[0]])  # seed the old-generation cache
            response = runtime.reindex(background=True)
        assert "commit" in events
        marker = ("sweep", response.generation)
        assert marker in events
        assert events.index("commit") < events.index(marker)

    def test_racing_searches_never_mix_generations(self):
        """Every response carries either the old index's ranking under the
        old generation or the new index's under the new — never a blend."""
        runtime, dims = self._real_runtime()
        query = [dims[0], dims[1]]
        with runtime:
            before = runtime.search(query)
            assert before.results, "need a non-empty ranking to race against"
            # Mutate the corpus so the rebuilt index must rank differently:
            # the top entity loses every review, and with it its degrees.
            top_entity = before.results[0][0]
            reviews = {
                entity_id: list(entity_reviews)
                for entity_id, entity_reviews in runtime.saccs.reviews.items()
            }
            reviews[top_entity] = []
            runtime.saccs.reviews = reviews

            observed = []
            done = threading.Event()
            failures = []

            def rebuild():
                try:
                    runtime.reindex(background=True)
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)
                finally:
                    done.set()

            thread = threading.Thread(target=rebuild, daemon=True)
            thread.start()
            while not done.is_set():
                response = runtime.search(query)
                observed.append((response.generation, tuple(response.results)))
            thread.join()
            assert not failures, failures
            after = runtime.search(query)

        assert tuple(after.results) != tuple(before.results)
        assert after.generation == before.generation + 1
        generations = [generation for generation, _ in observed]
        assert generations == sorted(generations), "generation went backwards"
        for generation, ranking in observed:
            if generation == before.generation:
                assert ranking == tuple(before.results)
            else:
                assert generation == after.generation
                assert ranking == tuple(after.results)

    def test_rebuild_pacing_yields_are_optional(self):
        # pace 0 must mean "flat out": same result, no sleeps required
        runtime, dims = self._real_runtime(pace_seconds=0.0)
        with runtime:
            first = runtime.search([dims[0]])
            runtime.reindex(background=True)
            second = runtime.search([dims[0]])
            assert second.generation == first.generation + 1
            assert tuple(second.results) == tuple(first.results)
