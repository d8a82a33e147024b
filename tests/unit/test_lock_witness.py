"""Tests for the runtime lock-order witness (:mod:`repro.utils.locks`).

Unit tests drive a private :class:`LockWitness` through ABBA inversions,
canonical-rank violations and reentrant acquisitions, asserting the
diagnostics name *both* acquisition sites.  The stress test at the bottom
is the dynamic counterpart of the ``repro locks`` static pass: with
``REPRO_LOCK_WITNESS=1`` it runs concurrent searches, background reindexes
and session churn against the real serving runtime and fails on any
observed order inversion.
"""

import threading

import pytest

from repro.utils.locks import (
    CANONICAL_ORDER,
    ENV_FLAG,
    LockOrderError,
    LockWitness,
    TrackedLock,
    TrackedRLock,
    make_lock,
    make_rlock,
    reset_witness,
    witness_enabled,
)

HERE = "test_lock_witness.py"


# ----------------------------------------------------------------- inversions


def test_abba_inversion_is_recorded_and_names_both_sites():
    w = LockWitness()
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    with a:
        with b:  # establishes alpha -> beta
            pass
    with b:
        with a:  # contradicts it
            pass
    assert len(w.inversions) == 1
    inversion = w.inversions[0]
    assert inversion.kind == "observed-order"
    assert inversion.first_order == ("alpha", "beta")
    assert inversion.second_order == ("beta", "alpha")
    text = inversion.describe()
    assert "'alpha'" in text and "'beta'" in text
    # Both the original ordering's sites and the contradicting ones appear.
    assert all(HERE in site for site in inversion.first_sites)
    assert all(HERE in site for site in inversion.second_sites)
    assert inversion.first_sites != inversion.second_sites


def test_consistent_nesting_never_reports():
    w = LockWitness()
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    for _ in range(50):
        with a:
            with b:
                pass
    assert w.inversions == []
    assert w.acquisitions == 100


def test_canonical_rank_violation_flagged_without_prior_observation():
    w = LockWitness()
    facade = TrackedLock("serve.runtime.facade", w)
    store = TrackedLock("serve.sessions.store", w)
    assert CANONICAL_ORDER.index("serve.sessions.store") < CANONICAL_ORDER.index(
        "serve.runtime.facade"
    )
    with facade:
        with store:  # store ranks earlier: must be taken first
            pass
    kinds = [inversion.kind for inversion in w.inversions]
    assert kinds == ["canonical-order"]
    assert "canonical hierarchy" in w.inversions[0].describe()


def test_canonical_order_respected_is_clean():
    w = LockWitness()
    store = TrackedLock("serve.sessions.store", w)
    facade = TrackedLock("serve.runtime.facade", w)
    with store:
        with facade:
            pass
    assert w.inversions == []


def test_strict_mode_raises_at_the_offending_acquire():
    w = LockWitness(strict=True)
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    with a:
        with b:
            pass
    b.acquire()
    with pytest.raises(LockOrderError, match="lock order inversion"):
        a.acquire()
    a.release()
    b.release()


def test_same_order_class_is_not_checked():
    # Per-session entry locks share one name; ordering within the class is
    # deliberately unchecked (any pairwise order would be arbitrary).
    w = LockWitness()
    first = TrackedLock("serve.sessions.entry", w)
    second = TrackedLock("serve.sessions.entry", w)
    with first:
        with second:
            pass
    with second:
        with first:
            pass
    assert w.inversions == []


# -------------------------------------------------------------- lock wrappers


def test_rlock_reports_only_the_outermost_acquisition():
    w = LockWitness()
    r = TrackedRLock("rho", w)
    with r:
        with r:
            assert w.held_names() == ["rho"]
    assert w.acquisitions == 1
    assert w.held_names() == []


def test_out_of_order_release_keeps_the_stack_consistent():
    w = LockWitness()
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    a.acquire()
    b.acquire()
    a.release()
    assert w.held_names() == ["beta"]
    b.release()
    assert w.held_names() == []


def test_order_graph_records_first_seen_sites():
    w = LockWitness()
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    with a:
        with b:
            pass
    graph = w.order_graph()
    assert set(graph) == {("alpha", "beta")}
    held_site, acquired_site = graph[("alpha", "beta")]
    assert HERE in held_site and HERE in acquired_site


# ------------------------------------------------------------------ factories


def test_factories_are_passthrough_without_the_env_flag(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    assert not witness_enabled()
    assert not isinstance(make_lock("x"), TrackedLock)
    assert not isinstance(make_rlock("x"), TrackedRLock)
    monkeypatch.setenv(ENV_FLAG, "0")
    assert not witness_enabled()


def test_factories_return_tracked_locks_when_enabled(monkeypatch):
    monkeypatch.setenv(ENV_FLAG, "1")
    reset_witness()
    try:
        assert witness_enabled()
        lock = make_lock("serve.cache")
        rlock = make_rlock("serve.runtime.facade")
        assert isinstance(lock, TrackedLock) and lock.name == "serve.cache"
        assert isinstance(rlock, TrackedRLock)
    finally:
        monkeypatch.delenv(ENV_FLAG)
        reset_witness()


def test_canonical_order_matches_the_static_pass_lock_names():
    # Every canonical name is unique; the witness ranks depend on it.
    assert len(set(CANONICAL_ORDER)) == len(CANONICAL_ORDER)


# ------------------------------------------------------------- stress test


def _build_runtime():
    from repro.core.extractor import OracleExtractor
    from repro.core.saccs import Saccs, SaccsConfig
    from repro.core.tags import SubjectiveTag
    from repro.data import WorldConfig, build_world
    from repro.serve import SaccsRuntime
    from repro.serve.runtime import ServeConfig
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    world = build_world(WorldConfig.small(seed=11, num_entities=14, mean_reviews=3.0))
    saccs = Saccs(
        world.entities,
        world.reviews,
        OracleExtractor(),
        ConceptualSimilarity(restaurant_lexicon()),
        SaccsConfig(index_shards=2),
    )
    dims = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
    saccs.build_index(dims)
    config = ServeConfig(
        max_batch_size=1,
        cache_size=32,
        rebuild_pace_seconds=0.0,
    )
    return SaccsRuntime(saccs, config), dims


def test_witness_stress_search_reindex_and_session_churn(monkeypatch):
    """No lock-order inversion under concurrent search + rebuild + churn.

    This is the acceptance check for the canonical hierarchy: every lock
    the runtime creates below is a tracked lock, and any two code paths
    that disagree about acquisition order fail the assertion with both
    sites named.
    """
    from repro.serve.sessions import SessionStore

    monkeypatch.setenv(ENV_FLAG, "1")
    w = reset_witness()
    try:
        runtime, dims = _build_runtime()
        store = SessionStore(factory=dict, ttl_seconds=0.005)
        query = [dims[0], dims[1 % len(dims)]]
        failures = []
        stop = threading.Event()

        def searcher(session_prefix):
            try:
                for turn in range(25):
                    with store.checkout(f"{session_prefix}-{turn % 5}") as session:
                        response = runtime.search(query)
                        session["last"] = response.generation
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)

        def rebuilder():
            try:
                while not stop.is_set():
                    runtime.reindex(background=True)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)

        with runtime:
            threads = [
                threading.Thread(target=searcher, args=(f"client{i}",), daemon=True)
                for i in range(3)
            ]
            rebuild_thread = threading.Thread(target=rebuilder, daemon=True)
            for thread in threads:
                thread.start()
            rebuild_thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            rebuild_thread.join(timeout=60)

        assert failures == []
        inversions = w.inversions
        assert inversions == [], "\n".join(i.describe() for i in inversions)
        # The run actually exercised tracked locks across all subsystems.
        assert w.acquisitions > 200
        observed = {name for edge in w.order_graph() for name in edge}
        assert "serve.sessions.entry" in observed
        assert "serve.runtime.facade" in observed
    finally:
        monkeypatch.delenv(ENV_FLAG)
        reset_witness()
