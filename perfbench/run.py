"""End-to-end HTTP benchmark of the neural SACCS path.

Usage, from the repository root::

    python3 perfbench/run.py --workload utterance-search --seed 1 --seconds 10 --trace 0

One run:

1. builds the oracle in this process (the server's system, same seeds;
   this also warms the encoder pre-training cache under
   ``.perfbench-cache/``, so no timed set-up pays for MLM pre-training);
2. starts ``perfbench/server.py`` — a :class:`SaccsHttpServer` over the
   neural extractor — and times spawn → first 200 from ``/healthz``
   (``setup_s``, the median of :data:`SETUP_SPAWNS` spawns);
3. warms the server up, then drives it in a closed loop for ``--seconds``
   from this process over one or two threads, each holding one persistent
   HTTP/1.1 connection;
4. checks every answer against the oracle and prints every metric by name
   and unit; the last line is one JSON object.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures the
same stream twice, untraced and then with layer spans, and reports the
per-layer metrics (see ``perfbench/README.md``).  The exit code is 1 when
any served answer differs from the oracle, 2 when the repository sources
are missing.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import system  # noqa: E402

system.pin_blas_threads()

#: server spawns per untraced run; ``setup_s`` is their median.
SETUP_SPAWNS = 3
#: persistent connections (one thread each) per workload.  utterance-search
#: is a single dialog client waiting on each turn, so every request pays the
#: batcher's wait alone and none shares an encoder forward; it runs at about
#: half the rate two connections reach.
CONNECTIONS = {"utterance-search": 1, "conversation": 2, "tag-search-reindex": 2}
#: latency limit of ``slo_attainment`` (``obs.slo.default_slos()``).
SLO_MS = 100.0
#: post-phase reindex probes on workloads that do not reindex in-phase.
REINDEX_PROBES = 5
WARMUP_REQUESTS = 24
REQUEST_TIMEOUT_S = 30.0
CACHE_DIR = ".perfbench-cache"


class Record:
    """One request: what was sent, what came back, and how it checked out."""

    __slots__ = ("item", "rid", "payload", "sent", "done", "status", "body", "correct", "ndcg")

    def __init__(self, item, rid: str):
        self.item = item
        self.rid = rid
        self.payload: Optional[dict] = None
        self.sent = self.done = 0.0
        self.status = 0
        self.body = None
        self.correct = False
        self.ndcg = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


# --------------------------------------------------------------------- server


class Server:
    """One ``perfbench/server.py`` process, up and answering ``/healthz``."""

    def __init__(self, workload: str, env: Dict[str, str], log_path: str, spans: Optional[str] = None):
        command = [sys.executable, os.path.join(HERE, "server.py"), "--workload", workload]
        if spans:
            command += ["--spans", spans]
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log, env=env
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited during set-up (see {log_path})")
            info = json.loads(line)
            self.port = int(info["port"])
            self.setup_phases: Dict[str, float] = info["setup"]
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /healthz")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# --------------------------------------------------------------------- client


class Connection:
    """One persistent HTTP/1.1 connection with default socket options."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def post(self, record: Record, path: str, payload: dict) -> None:
        record.payload = payload
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json", "X-Request-Id": record.rid}
        record.sent = time.perf_counter()
        try:
            self._conn.request("POST", path, body, headers)
            response = self._conn.getresponse()
            data = response.read()
            record.done = time.perf_counter()
            record.status = response.status
            if response.status == 200:
                record.body = json.loads(data)
        except (OSError, http.client.HTTPException, ValueError):
            record.done = time.perf_counter()
            self._conn.close()  # reconnect on the next request

    def close(self) -> None:
        self._conn.close()


def _run_threads(target: Callable[[Connection], None], port: int, count: int) -> None:
    connections = [Connection(port) for _ in range(count)]
    threads = [threading.Thread(target=target, args=(conn,)) for conn in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in connections:
        conn.close()


# ------------------------------------------------------------------ workloads


class Workload:
    """Request stream + load pattern + oracle check of one workload."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.records: List[Record] = []
        self.reindexes: List[Record] = []
        self._lock = threading.Lock()

    def _append(self, records: List[Record], record: Record) -> None:
        with self._lock:
            records.append(record)

    # ---------------------------------------------------------------- drive

    def warmup(self, port: int) -> None:
        """Unmeasured requests, so lazy set-up happens before the clock starts.

        They stay apart from the measured stream: warm-up utterances are the
        prefix the measured phase skips, warm-up sessions have ids of their
        own, and warm-up tag queries use indexed tags only, so they add
        nothing to the tag history.
        """
        import workloads

        if self.name == "utterance-search":
            requests = [
                ("/search", {"utterance": u.text})
                for u in workloads.utterance_stream(self.seed, WARMUP_REQUESTS)
            ]
        elif self.name == "conversation":
            requests = [
                (f"/session/{t.session_id}/say", {"utterance": turn})
                for t in workloads.conversation_transcripts(self.seed, WARMUP_REQUESTS // 6, "warmup")
                for turn in t.turns
            ]
        else:
            requests = [
                ("/search", {"tags": list(tags)})
                for tags, _ in workloads.TagQueryStream(self.seed).indexed_pool[:WARMUP_REQUESTS]
            ]
        conn = Connection(port)
        try:
            for index, (path, payload) in enumerate(requests):
                record = Record(None, f"w{index}")
                conn.post(record, path, payload)
                if record.status != 200:
                    raise RuntimeError(f"warm-up request failed with status {record.status}")
        finally:
            conn.close()

    def drive(self, port: int) -> float:
        """Run the measured phase; returns its start on the shared clock."""
        import workloads

        # Inputs are generated before the clock starts; the loops read
        # ``start`` and ``deadline`` when the threads run.
        if self.name == "utterance-search":
            # Enough distinct utterances for 400 searches a second.
            count = int(self.seconds * 400) + 100
            items = workloads.utterance_stream(self.seed, WARMUP_REQUESTS + count)
            utterances: Iterator = iter(enumerate(items[WARMUP_REQUESTS:]))

            def loop(conn: Connection) -> None:
                while time.perf_counter() < deadline:
                    with self._lock:
                        index, item = next(utterances)
                    record = Record(item, f"u{index}")
                    conn.post(record, "/search", {"utterance": item.text})
                    self._append(self.records, record)

        elif self.name == "conversation":
            # Enough transcripts for 400 six-turn sessions a second.
            count = int(self.seconds * 400) + 100
            transcripts: Iterator = iter(workloads.conversation_transcripts(self.seed, count))

            def loop(conn: Connection) -> None:
                while time.perf_counter() < deadline:
                    with self._lock:
                        transcript = next(transcripts)
                    for turn, utterance in enumerate(transcript.turns):
                        if time.perf_counter() >= deadline:
                            return
                        record = Record((transcript, turn), f"{transcript.session_id}.{turn}")
                        conn.post(
                            record, f"/session/{transcript.session_id}/say", {"utterance": utterance}
                        )
                        self._append(self.records, record)

        else:
            stream = workloads.TagQueryStream(self.seed)
            counter = itertools.count()

            def loop(conn: Connection) -> None:
                while time.perf_counter() < deadline:
                    with self._lock:
                        item, index = next(stream), next(counter)
                    if item.pool == "reindex":
                        record = Record(item, f"r{index}")
                        conn.post(record, "/admin/reindex", {"background": True})
                        self._append(self.reindexes, record)
                    else:
                        record = Record(item, f"t{index}")
                        conn.post(record, "/search", {"tags": list(item.tags)})
                        self._append(self.records, record)

        start = time.perf_counter()
        deadline = start + self.seconds
        _run_threads(loop, port, CONNECTIONS[self.name])
        return start

    def probe_reindex(self, port: int) -> None:
        """Reindex round trips after the phase (when the phase has none)."""
        if self.name == "tag-search-reindex":
            return
        conn = Connection(port)
        try:
            for index in range(REINDEX_PROBES):
                record = Record(None, f"r{index}")
                conn.post(record, "/admin/reindex", {"background": True})
                record.correct = record.status == 200
                self.reindexes.append(record)
        finally:
            conn.close()

    # ---------------------------------------------------------------- check

    def check(self, oracle) -> Dict[str, float]:
        if self.name == "utterance-search":
            oracle.check_utterances(self.records)
            return {}
        if self.name == "conversation":
            oracle.check_sessions(self.records)
            return {}
        return oracle.check_tags(self.records, self.reindexes)


# -------------------------------------------------------------------- metrics


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return int(after["counters"].get(name, 0)) - int(before["counters"].get(name, 0))


def _histogram_mean_delta(before: dict, after: dict, name: str) -> float:
    old = before["histograms"].get(name, {"count": 0, "mean": 0.0})
    new = after["histograms"].get(name, {"count": 0, "mean": 0.0})
    count = new["count"] - old["count"]
    if count <= 0:
        return 0.0
    return (new["mean"] * new["count"] - old["mean"] * old["count"]) / count


def _share(part: int, rest: int) -> float:
    return part / (part + rest) if part + rest else 0.0


class Phase:
    """Everything one measured phase against one server yields."""

    def __init__(self, workload: Workload, server: Server, oracle):
        workload.warmup(server.port)
        _, self.metrics_before = server.get("/metrics")
        cpu_before = server.cpu_seconds()
        self.start = workload.drive(server.port)
        self.end = max(r.done for r in workload.records + workload.reindexes)
        self.cpu_s = server.cpu_seconds() - cpu_before
        _, self.metrics_after = server.get("/metrics")
        _, self.health = server.get("/healthz")
        self.rss_peak_mb = server.rss_peak_mb()
        workload.probe_reindex(server.port)
        self.properties = workload.check(oracle)
        records = workload.records
        self.attempted = len(records) + len(workload.reindexes)
        self.failed = sum(not r.correct for r in records + workload.reindexes)
        self.completed = sum(r.status == 200 for r in records)
        self.records = records
        self.reindexes = workload.reindexes

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        records = self.records
        timeout_ms = REQUEST_TIMEOUT_S * 1000.0
        latencies = [r.latency_ms if r.correct else timeout_ms for r in records]
        in_slo = sum(r.correct and r.latency_ms <= SLO_MS for r in records)
        scored = [r.ndcg for r in records if r.ndcg is not None]
        reindex = [r.done - r.sent for r in self.reindexes if r.status == 200]
        return {
            "setup_s": setup_s,
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_p90_ms": percentile(latencies, 0.90),
            "throughput_rps": self.completed / (self.end - self.start),
            "slo_attainment": in_slo / len(records),
            "server_cpu_ms_per_req": self.cpu_s * 1000.0 / max(self.completed, 1),
            "server_rss_peak_mb": self.rss_peak_mb,
            "ndcg_at_10": sum(scored) / len(scored) if scored else 0.0,
            "reindex_s": statistics.median(reindex) if reindex else 0.0,
        }

    def validity(self) -> Dict[str, float]:
        return {"bench.error_rate": self.failed / self.attempted}

    def properties_line(self) -> Dict[str, object]:
        """The workload's measured input properties."""
        before, after = self.metrics_before, self.metrics_after
        texts = [json.dumps(r.payload, sort_keys=True) for r in self.records]
        routes = {
            route: _counter_delta(before, after, f"conv.route.{route}")
            for route in ("subjective", "chitchat", "objective")
        }
        total_routes = sum(routes.values())
        paths = {
            "search": _counter_delta(before, after, "requests.search"),
            "search_utterance": _counter_delta(before, after, "requests.search_utterance"),
            "say": _counter_delta(before, after, "requests.say"),
            "reindex": len(self.reindexes),
        }
        return {
            "repeat_share": 1.0 - len(set(texts)) / len(texts) if texts else 0.0,
            "ranking_cache_hit_ratio": _share(
                _counter_delta(before, after, "cache.ranking.hit"),
                _counter_delta(before, after, "cache.ranking.miss"),
            ),
            "unknown_tag_share": self.properties.get("unknown_tag_share"),
            "route_mix": {
                route: (count / total_routes if total_routes else 0.0)
                for route, count in routes.items()
            },
            "requests_by_route": paths,
        }


# ------------------------------------------------------------------ traced run


def per_layer(untraced: Phase, traced: Phase, spans_path: str, setup: Dict[str, float]) -> Dict[str, float]:
    from spans import layer_report

    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)
    client_ms = {r.rid: r.latency_ms for r in traced.records if r.status == 200}
    report = layer_report(spans, client_ms, (traced.start, traced.end))
    layers = report["layers"]
    calls = report["calls"]
    sizes = report["mean_size"]
    n = max(report["requests"], 1)
    before, after = traced.metrics_before, traced.metrics_after
    routes = {
        route: _counter_delta(before, after, f"conv.route.{route}")
        for route in ("subjective", "chitchat", "objective")
    }
    lookups = calls.get("core.index.lookup", 0)
    similar = sizes.get("core.index.lookup_similar", 0.0) * calls.get("core.index.lookup_similar", 0)

    def durations(span_name):
        return [end - start for name, start, end, *_ in spans if name == span_name]

    rebuild = durations("core.saccs.prepare_rebuild")
    commit = durations("core.saccs.commit_rebuild")
    folded = [span[7] for span in spans if span[0] == "serve.runtime.reindex"]
    ranking_hits = _counter_delta(before, after, "cache.ranking.hit")
    ranking_misses = _counter_delta(before, after, "cache.ranking.miss")
    tags_hits = _counter_delta(before, after, "cache.tags.hit")
    tags_misses = _counter_delta(before, after, "cache.tags.miss")
    untraced_cpu = untraced.cpu_s / max(untraced.completed, 1)
    traced_cpu = traced.cpu_s / max(traced.completed, 1)
    metrics = {
        "serve.http.residue_ms_p50": report["residue_ms_p50"],
        "serve.runtime.call_ms_p50": report["call_ms_p50"],
        "serve.runtime.call_ms_p99": report["call_ms_p99"],
        "serve.runtime.batch_size_mean": _histogram_mean_delta(before, after, "batch.size"),
        "serve.runtime.unattributed_ms_per_req": report["unattributed_ms_per_req"],
        "serve.cache.ranking_hit_ratio": _share(ranking_hits, ranking_misses),
        "serve.cache.ranking_lookups": ranking_hits + ranking_misses,
        "serve.cache.tags_hit_ratio": _share(tags_hits, tags_misses),
        "serve.cache.tags_lookups": tags_hits + tags_misses,
        "serve.sessions.live": traced.health["sessions"],
        "conversation.bypass_ratio": _share(
            routes["chitchat"] + routes["objective"], routes["subjective"]
        ),
        "core.extraction_engine.sentences_per_call": sizes.get("core.extraction_engine.extract", 0.0),
        "core.tagger.calls": calls.get("core.tagger.encode", 0) / n,
        "core.index.unknown_tag_share": _share(int(similar), lookups),
        "core.index.tags": traced.health["index_tags"],
        "core.saccs.prepare_rebuild_s": statistics.median(rebuild) if rebuild else 0.0,
        "core.saccs.commit_rebuild_ms": statistics.median(commit) * 1000.0 if commit else 0.0,
        "core.saccs.history_len": max(folded, default=0),
        "setup.world_s": setup["world"],
        "setup.train_s": setup["train"],
        "setup.ingest_s": setup["ingest"],
        "setup.index_s": setup["index"],
        "bench.trace_overhead": traced_cpu / untraced_cpu - 1.0 if untraced_cpu else 0.0,
        "bench.unattributed_share": (
            report["unattributed_ms_per_req"] / report["client_ms_mean"]
            if report["client_ms_mean"]
            else 0.0
        ),
    }
    metrics.update(layers)
    metrics.update(untraced.validity())
    explained = report["residue_ms_mean"] + sum(layers.values()) + report["unattributed_ms_per_req"]
    print(
        f"attribution: client mean {report['client_ms_mean']:.3f} ms = residue "
        f"{report['residue_ms_mean']:.3f} + layers {sum(layers.values()):.3f} + unattributed "
        f"{report['unattributed_ms_per_req']:.3f} (= {explained:.3f}) over {report['requests']} requests"
    )
    return metrics


# ----------------------------------------------------------------------- main


def _load_spec() -> Dict[str, Dict[str, str]]:
    """Metric units and workload reasons from ``BENCHMARK.json``."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def _environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in system.BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end HTTP benchmark of neural SACCS")
    parser.add_argument("--workload", required=True, choices=sorted(system.WORKLOAD_WORLD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    cache = os.path.join(root, CACHE_DIR)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(cache, "repro")
    workdir = os.path.join(cache, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    system.pin_blas_threads(env)
    spec = _load_spec()

    from oracle import Oracle

    try:
        oracle = Oracle(args.workload)
        log = os.path.join(workdir, "server.log")
        if args.trace:
            server = Server(args.workload, env, log)
            try:
                untraced = Phase(Workload(args.workload, args.seed, args.seconds), server, oracle)
            finally:
                server.stop()
            if args.workload == "tag-search-reindex":
                oracle = Oracle(args.workload)  # the replay moved the oracle's index on
            spans_path = os.path.join(workdir, "spans.json")
            server = Server(args.workload, env, log, spans=spans_path)
            setup = server.setup_phases
            try:
                phase = Phase(Workload(args.workload, args.seed, args.seconds), server, oracle)
            finally:
                server.stop()
            values = per_layer(untraced, phase, spans_path, setup)
            units = spec["per_layer"]
        else:
            setups = []
            for _ in range(SETUP_SPAWNS - 1):
                server = Server(args.workload, env, log)
                setups.append(server.setup_s)
                server.stop()
            server = Server(args.workload, env, log)
            setups.append(server.setup_s)
            try:
                phase = Phase(Workload(args.workload, args.seed, args.seconds), server, oracle)
            finally:
                server.stop()
            values = phase.end_to_end(statistics.median(setups))
            units = spec["end_to_end"]
            print("validity: " + json.dumps(phase.validity(), sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload: {args.workload} ({spec['why'][args.workload]})")
    print("properties: " + json.dumps(phase.properties_line(), sort_keys=True))
    print("environment: " + json.dumps(_environment(), sort_keys=True))
    latencies = [r.latency_ms for r in phase.records if r.correct]
    if latencies:
        print(
            "latency ms: "
            + "  ".join(f"p{q:g}={percentile(latencies, q / 100):.2f}" for q in (10, 50, 90, 95, 99))
            + f"  mean={statistics.fmean(latencies):.2f}  (n={len(latencies)})"
        )
    samples = len(phase.records)
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>14.6f} {unit:<8} (n={samples})")
    phases = [untraced, phase] if args.trace else [phase]
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
