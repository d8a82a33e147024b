"""Integration tests for the serving runtime and its HTTP frontend.

The load-bearing property: rankings served through the concurrent,
batching worker are **byte-identical** to what a single-threaded
:class:`~repro.core.saccs.Saccs` oracle computes for the same queries —
including across an ``/admin/reindex`` generation bump (no stale cache may
survive the index moving).
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import (
    ConversationSession,
    HeuristicPairer,
    OracleExtractor,
    Saccs,
    SaccsConfig,
    SequenceTagger,
    SubjectiveTag,
    TagExtractor,
    TaggerTrainer,
    TaggerTrainingConfig,
    TreePairingHeuristic,
)
from repro.bert import PretrainPlan, pretrained_encoder
from repro.data import WorldConfig, build_tagging_dataset, build_world
from repro.serve import SaccsHttpServer, SaccsRuntime, ServeConfig
from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon


def _post(url: str, payload) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.small(num_entities=30, mean_reviews=8))


def _oracle_saccs(world):
    system = Saccs(
        world.entities, world.reviews, OracleExtractor(),
        ConceptualSimilarity(restaurant_lexicon()), SaccsConfig(),
    )
    system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    return system


QUERIES = [
    ["delicious food"],
    ["really delicious food", "friendly staff"],
    ["truly cheap price"],
    ["delicious food", "quick service"],
    ["really quiet atmosphere"],
]


class TestConcurrentEquivalence:
    def test_concurrent_clients_match_sequential_oracle(self, world):
        """8 client threads through HTTP == the single-threaded facade, byte for byte."""
        oracle = _oracle_saccs(world)
        expected = {
            tuple(q): oracle.answer_tags([SubjectiveTag.from_text(t) for t in q])
            for q in QUERIES
        }

        runtime = SaccsRuntime(
            _oracle_saccs(world),
            ServeConfig(max_batch_size=8, cache_size=64),
        )
        with SaccsHttpServer(runtime) as server:
            per_thread = [None] * 8
            def client(thread_id):
                out = []
                for repeat in range(3):
                    for q in QUERIES:
                        out.append((tuple(q), _post(f"{server.url}/search", {"tags": q})))
                per_thread[thread_id] = out
            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            batch_hist = runtime.metrics_snapshot()["histograms"].get("batch.size")

        for out in per_thread:
            assert out is not None, "a client thread died"
            for key, response in out:
                want = [[entity_id, score] for entity_id, score in expected[key]]
                # json round-trips floats exactly (shortest-repr), so this
                # equality is bitwise on every score.
                assert response["results"] == want
        # concurrency actually exercised the worker's batches
        assert batch_hist is None or batch_hist["max"] >= 1

    def test_requests_queued_behind_a_busy_worker_run_as_one_batch(self, world):
        """While the worker waits on the facade lock, new requests queue up;
        it then runs all of them as one batch, with no straggler timer."""
        queries = QUERIES + [["quick service"], ["friendly staff"], ["cheap price"]]
        oracle = _oracle_saccs(world)
        expected = [
            oracle.answer_tags([SubjectiveTag.from_text(t) for t in q]) for q in queries
        ]
        runtime = SaccsRuntime(
            _oracle_saccs(world), ServeConfig(cache_size=0, collector_enabled=False)
        )
        in_batch = threading.Event()
        execute_batch = runtime._execute_batch

        def observed_execute_batch(batch):
            in_batch.set()
            execute_batch(batch)

        runtime._execute_batch = observed_execute_batch
        responses = [None] * len(queries)

        def search(i):
            tags = [SubjectiveTag.from_text(t) for t in queries[i]]
            responses[i] = runtime.search(tags)

        threads = [threading.Thread(target=search, args=(i,)) for i in range(len(queries))]
        with runtime:
            with runtime._facade_lock:
                # The first request becomes a batch of one; the worker then
                # blocks on the facade lock while the rest queue behind it.
                threads[0].start()
                assert in_batch.wait(5.0)
                for thread in threads[1:]:
                    thread.start()
                deadline = time.monotonic() + 5.0
                while runtime.health()["queue_depth"] < len(queries) - 1:
                    assert time.monotonic() < deadline, "requests never queued up"
                    time.sleep(0.001)
            for thread in threads:
                thread.join(timeout=10.0)
            batch_hist = runtime.metrics_snapshot()["histograms"]["batch.size"]

        assert batch_hist["count"] == 2
        assert batch_hist["max"] == len(queries) - 1
        assert [r.batch_size for r in responses] == [1] + [len(queries) - 1] * (
            len(queries) - 1
        )
        for response, want in zip(responses, expected):
            assert list(response.results) == list(want)

    def test_rankings_stay_exact_across_reindex(self, world):
        """The generation bump invalidates caches: no pre-reindex ranking leaks."""
        oracle = _oracle_saccs(world)
        served = _oracle_saccs(world)
        runtime = SaccsRuntime(
            served, ServeConfig(max_batch_size=4, cache_size=64)
        )
        unknown = ["really delicious food"]
        with SaccsHttpServer(runtime) as server:
            # phase 1: unknown tag answered by similar-tag combination, cached
            first = _post(f"{server.url}/search", {"tags": unknown})
            again = _post(f"{server.url}/search", {"tags": unknown})
            assert again["cached"] is True
            assert again["results"] == first["results"]
            expected_before = oracle.answer_tags([SubjectiveTag.from_text(unknown[0])])
            assert first["results"] == [[e, s] for e, s in expected_before]

            # phase 2: fold the history on both sides
            reindex = _post(f"{server.url}/admin/reindex", {})
            oracle_round = oracle.run_indexing_round()
            assert reindex["adopted"] == [t.text for t in oracle_round.added]
            assert reindex["generation"] == served.index_generation

            # phase 3: post-reindex answers must match the post-fold oracle
            # (and must NOT be served from the stale cache)
            after = _post(f"{server.url}/search", {"tags": unknown})
            assert after["cached"] is False
            assert after["generation"] > first["generation"]
            expected_after = oracle.answer_tags([SubjectiveTag.from_text(unknown[0])])
            assert after["results"] == [[e, s] for e, s in expected_after]
            # the indexed tag now answers exactly; the combined answer differed
            assert unknown[0] in [t.text for t in served.index.tags]

    def test_concurrent_searches_racing_a_reindex_stay_coherent(self, world):
        """Every response's generation matches a ranking valid at that generation."""
        served = _oracle_saccs(world)
        before_oracle = _oracle_saccs(world)
        runtime = SaccsRuntime(
            served, ServeConfig(max_batch_size=4, cache_size=64)
        )
        query = ["really delicious food"]
        tag = SubjectiveTag.from_text(query[0])
        expected_before = before_oracle.answer_tags([tag])
        with SaccsHttpServer(runtime) as server:
            _post(f"{server.url}/search", {"tags": query})  # seed the history
            responses = []
            lock = threading.Lock()

            def searcher():
                for _ in range(10):
                    response = _post(f"{server.url}/search", {"tags": query})
                    with lock:
                        responses.append(response)

            def reindexer():
                _post(f"{server.url}/admin/reindex", {})

            threads = [threading.Thread(target=searcher) for _ in range(4)]
            threads.append(threading.Thread(target=reindexer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        before_oracle.run_indexing_round()
        expected_after = before_oracle.answer_tags([tag])
        valid = {
            json.dumps([[e, s] for e, s in expected_before]),
            json.dumps([[e, s] for e, s in expected_after]),
        }
        for response in responses:
            assert json.dumps(response["results"]) in valid


class TestHttpSurface:
    @pytest.fixture(scope="class")
    def server(self, world):
        runtime = SaccsRuntime(_oracle_saccs(world), ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            yield server

    def test_healthz(self, server):
        health = _get(f"{server.url}/healthz")
        assert health["status"] == "ok"
        assert health["index_tags"] > 0

    def test_metrics_shape_and_ratio(self, server):
        _post(f"{server.url}/search", {"tags": ["delicious food"]})
        _post(f"{server.url}/search", {"tags": ["delicious food"]})
        snapshot = _get(f"{server.url}/metrics")
        assert snapshot["counters"]["requests.search"] >= 2
        assert "latency.search_seconds" in snapshot["histograms"]
        assert 0.0 < snapshot["ratios"]["cache.ranking"] <= 1.0

    def test_top_k_slices(self, server):
        response = _post(f"{server.url}/search", {"tags": ["delicious food"], "top_k": 3})
        assert len(response["results"]) == 3

    def test_validation_error_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server.url}/search", {"tags": []})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "bad_request"

    def test_malformed_json_is_a_client_error(self, server):
        request = urllib.request.Request(
            f"{server.url}/search", data=b"{not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    @staticmethod
    def _assert_bad_content_length_rejected(server, path, content_length, body):
        request = (
            f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {content_length}\r\n\r\n{body}"
        ).encode("ascii")
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(4096):  # the server closes after replying
                response += chunk
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert json.loads(payload)["error"]["code"] == "bad_request"
        # The handler thread is free again: the server answers the next request.
        assert _get(f"{server.url}/healthz")["status"] == "ok"

    @pytest.mark.parametrize("content_length", ["abc", "-1"])
    def test_bad_content_length_is_a_client_error(self, server, content_length):
        self._assert_bad_content_length_rejected(
            server, "/search", content_length, '{"tags": ["delicious food"]}'
        )

    @pytest.mark.parametrize("content_length", ["abc", "-1"])
    def test_bad_content_length_on_reindex_is_a_client_error(self, server, content_length):
        generation = _get(f"{server.url}/healthz")["generation"]
        self._assert_bad_content_length_rejected(
            server, "/admin/reindex", content_length, "{}"
        )
        assert _get(f"{server.url}/healthz")["generation"] == generation

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/nope")
        assert excinfo.value.code == 404

    def test_sessions_unavailable_with_oracle_extractor(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server.url}/session/s1/say", {"utterance": "delicious food please"})
        assert excinfo.value.code == 501
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "sessions_unavailable"

    def test_utterance_search_unavailable_with_oracle_extractor(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server.url}/search", {"utterance": "a place with delicious food"})
        assert excinfo.value.code == 501


class TestSessionsOverHttp:
    @pytest.fixture(scope="class")
    def neural_saccs(self, world):
        encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=31))
        tagger = SequenceTagger(encoder, np.random.default_rng(0))
        TaggerTrainer(tagger, TaggerTrainingConfig(epochs=8)).fit(
            build_tagging_dataset("S1", scale=0.06, seed=6).train
        )
        parser = ChunkParser(PosLexicon(restaurant_lexicon()))
        extractor = TagExtractor(
            tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
        )
        system = Saccs(
            world.entities, world.reviews, extractor,
            ConceptualSimilarity(restaurant_lexicon()), SaccsConfig(),
        )
        system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        return system

    UTTERANCES = [
        "I want a restaurant in montreal with delicious food",
        "it should also have a nice staff",
        "actually the staff doesn't matter",
    ]

    def test_http_session_matches_sequential_session(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            served_turns = [
                _post(f"{server.url}/session/alice/say", {"utterance": utterance})
                for utterance in self.UTTERANCES
            ]
        oracle = ConversationSession(neural_saccs, top_k=runtime.config.session_top_k)
        for served, utterance in zip(served_turns, self.UTTERANCES):
            turn = oracle.say(utterance)
            assert served["added_tags"] == [t.text for t in turn.added_tags]
            assert served["removed_tags"] == [t.text for t in turn.removed_tags]
            assert served["results"] == [[e, s] for e, s in turn.results]
            assert served["slots"] == turn.slots
        assert served_turns[-1]["state"] == oracle.state_summary()

    def test_sessions_are_isolated(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            _post(f"{server.url}/session/a/say", {"utterance": self.UTTERANCES[0]})
            fresh = _post(f"{server.url}/session/b/say", {"utterance": "start over"})
            assert fresh["added_tags"] == []
            assert len(runtime.sessions) == 2

    def test_say_payload_exposes_route_and_resolution(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            opener = _post(
                f"{server.url}/session/carol/say", {"utterance": self.UTTERANCES[0]}
            )
            pronoun = _post(
                f"{server.url}/session/carol/say", {"utterance": "it should be quiet"}
            )
            chitchat = _post(
                f"{server.url}/session/carol/say", {"utterance": "thanks, goodbye"}
            )
        assert opener["route"] == "subjective" and opener["shift"] is False
        assert opener["resolved"] == self.UTTERANCES[0].lower()
        assert pronoun["route"] == "subjective"
        assert pronoun["resolved"] == "the restaurant should be quiet"
        assert chitchat["route"] == "chitchat" and chitchat["added_tags"] == []
        assert "route=chitchat" in chitchat["state"]

    def test_metrics_expose_conv_route_counters(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            _post(f"{server.url}/session/dave/say", {"utterance": self.UTTERANCES[0]})
            _post(f"{server.url}/session/dave/say", {"utterance": "hello there"})
            _post(
                f"{server.url}/session/dave/say",
                {"utterance": "a table for two in montreal"},
            )
            snapshot = _get(f"{server.url}/metrics")
        counters = snapshot["counters"]
        assert counters["conv.route.subjective"] >= 1
        assert counters["conv.route.chitchat"] >= 1
        assert counters["conv.route.objective"] >= 1

    def test_objective_utterance_search_bypasses_extraction(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            response = _post(
                f"{server.url}/search", {"utterance": "a table in montreal", "top_k": 3}
            )
            snapshot = _get(f"{server.url}/metrics")
        assert response["tags"] == []
        assert all(score == 0.0 for _, score in response["results"])
        assert len(response["results"]) == 3
        assert snapshot["counters"]["conv.route.objective"] == 1
        # the extractor never ran, so no extraction latency was recorded.
        assert "latency.extract_seconds" not in snapshot["histograms"]

    def test_utterance_search_matches_answer(self, neural_saccs):
        utterance = "find me a restaurant in montreal with delicious food"
        expected = neural_saccs.answer(utterance)
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            first = _post(f"{server.url}/search", {"utterance": utterance})
            second = _post(f"{server.url}/search", {"utterance": utterance})
        assert first["results"] == [[e, s] for e, s in expected]
        assert second["results"] == first["results"]
        assert second["cached"] is True  # level-2 hit via the cached tag extraction


class TestTelemetryEndpoints:
    """`/debug/timeseries`, `/debug/profile`, `/debug/slo` and query params."""

    @pytest.fixture(scope="class")
    def server(self, world):
        from repro.obs import TraceStore, Tracer

        tracer = Tracer(store=TraceStore(slow_threshold_seconds=0.0))
        runtime = SaccsRuntime(
            _oracle_saccs(world),
            ServeConfig(cache_size=64, collector_interval_seconds=0.02),
            tracer=tracer,
        )
        with SaccsHttpServer(runtime) as server:
            for query in QUERIES[:3]:
                _post(f"{server.url}/search", {"tags": query})
            yield server

    @staticmethod
    def _envelope(excinfo):
        return json.loads(excinfo.value.read())["error"]

    def _wait_for_points(self, server, minimum=1, deadline=10.0):
        import time

        end = time.monotonic() + deadline
        while time.monotonic() < end:
            payload = _get(f"{server.url}/debug/timeseries")
            if len(payload["points"]) >= minimum:
                return payload
            time.sleep(0.02)
        raise AssertionError(f"collector produced < {minimum} points in {deadline}s")

    def test_timeseries_points_carry_rates_and_slo_states(self, server):
        payload = self._wait_for_points(server)
        assert payload["enabled"] is True
        assert payload["retention"] == 512
        point = payload["points"][-1]
        assert set(point) >= {
            "t", "interval_seconds", "counters", "rates", "ratios",
            "histograms", "slo",
        }
        assert point["counters"]["requests.search"] >= 3
        assert sorted(point["slo"]) == ["availability", "search-latency"]
        assert point["slo"]["availability"]["state"] == "ok"

    def test_timeseries_limit_keeps_newest(self, server):
        self._wait_for_points(server, minimum=2)
        payload = _get(f"{server.url}/debug/timeseries?limit=1")
        assert len(payload["points"]) == 1
        assert payload["appended"] >= 2

    @pytest.mark.parametrize("query", ["limit=0", "limit=abc", "limit=999999999"])
    def test_bad_limit_rejected_with_envelope(self, server, query):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/debug/timeseries?{query}")
        assert excinfo.value.code == 400
        error = self._envelope(excinfo)
        assert error["code"] == "bad_query"
        assert "limit" in error["message"]

    def test_bad_flag_rejected_with_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/debug/traces?slow_only=maybe")
        assert excinfo.value.code == 400
        assert self._envelope(excinfo)["code"] == "bad_query"

    def test_traces_limit_and_slow_only_filters(self, server):
        full = _get(f"{server.url}/debug/traces")
        assert len(full["recent"]) >= 3
        limited = _get(f"{server.url}/debug/traces?limit=1")
        assert len(limited["recent"]) == 1
        # threshold 0 marks every trace slow; slow_only drops the recent ring
        slow = _get(f"{server.url}/debug/traces?slow_only=true")
        assert slow["recent"] == [] and len(slow["slow"]) >= 1
        bare = _get(f"{server.url}/debug/traces?slow_only")
        assert bare["recent"] == []  # bare flag reads as true

    def test_slo_snapshot_over_http(self, server):
        payload = _get(f"{server.url}/debug/slo")
        assert payload["collector_enabled"] is True
        assert payload["warn_burn"] == 2.0 and payload["page_burn"] == 10.0
        by_name = {slo["name"]: slo for slo in payload["slos"]}
        assert by_name["search-latency"]["objective"] == "latency"
        assert by_name["availability"]["objective"] == "availability"
        assert all(slo["state"] == "ok" for slo in payload["slos"])

    def test_profile_aggregates_the_trace_window(self, server):
        payload = _get(f"{server.url}/debug/profile")
        assert payload["enabled"] is True
        assert payload["traces"] >= 3
        assert "serve.search" in payload["stages"]
        assert payload["window"]["source"] == "recent"
        slow = _get(f"{server.url}/debug/profile?slow_only=true")
        assert slow["window"]["source"] == "slow"

    def test_profile_diff_splits_the_window(self, server):
        payload = _get(f"{server.url}/debug/profile?diff=1")
        assert sorted(payload) == ["after", "before", "diff", "enabled"]
        assert payload["after"]["traces"] == 1
        assert payload["before"]["traces"] >= 2
        assert "stages" in payload["diff"]

    def test_profile_404s_without_tracing(self, world):
        runtime = SaccsRuntime(
            _oracle_saccs(world), ServeConfig(cache_size=4, collector_enabled=False)
        )
        with SaccsHttpServer(runtime) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/debug/profile")
        assert excinfo.value.code == 404
        assert self._envelope(excinfo)["code"] == "tracing_disabled"
