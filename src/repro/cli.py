"""Command-line interface: generate worlds, build indexes, run searches.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro world generate --entities 60 --reviews 15 --out world.json
    python -m repro world show --path world.json
    python -m repro index build --world world.json --out index/
    python -m repro search --world world.json --index index/ \
        "delicious food" "nice staff"
    python -m repro datasets

All CLI paths use the oracle extractor (gold review annotations) so they run
in seconds; the neural pipeline lives in the examples and benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_world_generate(args: argparse.Namespace) -> int:
    from repro.data import (
        CatalogConfig,
        FraudConfig,
        ReviewConfig,
        WorldConfig,
        build_world,
        inject_fraud,
        save_world,
    )

    config = WorldConfig(
        catalog=CatalogConfig(num_entities=args.entities, seed=args.seed),
        reviews=ReviewConfig(mean_reviews_per_entity=args.reviews, seed=args.seed),
    )
    world = build_world(config)
    if args.fraud:
        campaigns = inject_fraud(world, FraudConfig(seed=args.seed))
        print(f"injected {len(campaigns)} fraud campaigns")
    save_world(world, args.out)
    print(f"wrote {len(world.entities)} entities / {world.num_reviews} reviews to {args.out}")
    return 0


def _cmd_world_show(args: argparse.Namespace) -> int:
    from repro.data import load_world

    world = load_world(args.path)
    print(f"entities: {len(world.entities)}   reviews: {world.num_reviews}")
    stars = [e.stars for e in world.entities]
    print(f"stars: min={min(stars)} mean={np.mean(stars):.2f} max={max(stars)}")
    print("sample entities:")
    for entity in world.entities[: args.limit]:
        review_count = len(world.reviews.get(entity.entity_id, []))
        print(f"  {entity.entity_id}  {entity.name:<24} {entity.stars} stars  {review_count} reviews")
    if args.entity:
        for review in world.reviews.get(args.entity, [])[: args.limit]:
            print(f"  [{review.review_id}] {review.text}")
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag, save_snapshot
    from repro.data import load_world
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    world = load_world(args.world)
    similarity = ConceptualSimilarity(restaurant_lexicon())
    config = SaccsConfig(theta_index=args.theta, theta_mode=args.theta_mode)
    review_filter = None
    if args.filter_fraud:
        from repro.core import FakeReviewFilter

        review_filter = FakeReviewFilter()
    saccs = Saccs(
        world.entities, world.reviews, OracleExtractor(), similarity, config,
        review_filter=review_filter,
    )
    tags = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
    if args.tags:
        tags = [SubjectiveTag.from_text(t) for t in args.tags]
    saccs.build_index(tags)
    save_snapshot(saccs.index, args.out)
    print(f"indexed {len(saccs.index)} tags over {len(world.entities)} entities -> {args.out}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.core import SnapshotError, SubjectiveTag, load_snapshot
    from repro.core.filtering import FilterConfig, filter_and_rank
    from repro.data import load_world
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    world = load_world(args.world)
    similarity = ConceptualSimilarity(restaurant_lexicon())
    try:
        index = load_snapshot(args.index, similarity)
    except SnapshotError as exc:
        print(f"cannot load index snapshot {args.index}: {exc}", file=sys.stderr)
        return 1
    name_of = {e.entity_id: e.name for e in world.entities}
    tags = [SubjectiveTag.from_text(t) for t in args.tags]
    tag_sets = []
    for tag in tags:
        mapping = index.lookup(tag)
        if not mapping:
            mapping = index.lookup_similar(tag, theta_filter=args.theta)
            print(f"(tag {tag.text!r} not indexed; combined similar tags)")
        tag_sets.append(mapping)
    results = filter_and_rank(
        [e.entity_id for e in world.entities],
        tag_sets,
        FilterConfig(top_k=args.top_k),
    )
    print(f"query: {', '.join(t.text for t in tags)}")
    for rank, (entity_id, score) in enumerate(results, start=1):
        print(f"  {rank:2d}. {name_of.get(entity_id, entity_id):<26} {score:.3f}")
    return 0


def _build_serving_saccs(args: argparse.Namespace):
    """A built oracle-extractor facade from a snapshot or a generated world.

    Returns ``(saccs, snapshot_note)``: ``snapshot_note`` is
    ``(snapshot_sha256, load_seconds)`` when the index warm-started from
    ``--snapshot-dir``, else ``None`` (cold build — which also writes a
    fresh snapshot to the directory when one was requested).
    """
    import json
    import time
    from pathlib import Path

    from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag
    from repro.core.snapshot import (
        MANIFEST_NAME,
        SnapshotError,
        load_snapshot,
        save_snapshot,
    )
    from repro.data import WorldConfig, build_world, load_world
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    if args.world:
        world = load_world(args.world)
    else:
        world = build_world(
            WorldConfig.small(
                seed=args.seed, num_entities=args.entities, mean_reviews=args.reviews
            )
        )
    similarity = ConceptualSimilarity(restaurant_lexicon())
    saccs = Saccs(
        world.entities,
        world.reviews,
        OracleExtractor(),
        similarity,
        SaccsConfig(
            encoder_precision=getattr(args, "encoder_precision", "float64"),
            index_shards=getattr(args, "shards", 1),
        ),
    )
    snapshot_dir = getattr(args, "snapshot_dir", None)
    if snapshot_dir:
        started = time.perf_counter()
        try:
            index = load_snapshot(snapshot_dir, similarity)
        except SnapshotError as exc:
            print(f"snapshot unusable ({exc}); cold-building the index")
        else:
            saccs.adopt_index(index)
            load_seconds = time.perf_counter() - started
            manifest = json.loads(
                (Path(snapshot_dir) / MANIFEST_NAME).read_text(encoding="utf-8")
            )
            print(
                f"warm-started {len(index)} index tags from {snapshot_dir} "
                f"in {load_seconds:.2f}s"
            )
            return saccs, (str(manifest.get("snapshot_sha256")), load_seconds)
    saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    if snapshot_dir:
        manifest = save_snapshot(saccs.index, snapshot_dir)
        print(
            f"wrote snapshot {manifest['snapshot_sha256'][:12]}… to {snapshot_dir}"
        )
    return saccs, None


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.obs import TraceStore, Tracer, default_slos, get_logger
    from repro.serve import SaccsHttpServer, SaccsRuntime, ServeConfig

    saccs, snapshot_note = _build_serving_saccs(args)
    config = ServeConfig(
        max_batch_size=args.max_batch_size,
        cache_size=args.cache_size,
        session_ttl_seconds=args.session_ttl,
        collector_enabled=not args.no_collector,
        collector_interval_seconds=args.collector_interval,
        collector_retention=args.collector_retention,
    )
    tracer = None
    if not args.no_trace:
        tracer = Tracer(
            store=TraceStore(
                capacity=args.trace_capacity,
                slow_threshold_seconds=args.slow_ms / 1000.0,
            ),
            logger=get_logger("repro.serve"),
            sample_every=args.trace_sample,
        )
    slos = tuple(
        dataclasses.replace(spec, threshold_ms=args.slo_latency_ms)
        if spec.objective == "latency"
        else spec
        for spec in default_slos()
    )
    runtime = SaccsRuntime(saccs, config, tracer=tracer, slos=slos)
    if snapshot_note is not None:
        runtime.note_snapshot_load(*snapshot_note)
    server = SaccsHttpServer(runtime, host=args.host, port=args.port)
    print(
        f"serving {len(saccs.index)} index tags over {len(saccs.entities)} entities "
        f"({runtime.shards} shard{'s' if runtime.shards != 1 else ''}) at {server.url}"
    )
    print("  POST /search        POST /session/<id>/say   POST /admin/reindex")
    print("  GET  /healthz       GET  /metrics")
    if tracer is not None:
        print("  GET  /debug/traces  GET  /debug/trace/<id>   (repro trace <id>)")
    if not args.no_collector:
        print("  GET  /debug/timeseries  GET  /debug/slo      (repro top)")
    if tracer is not None:
        print("  GET  /debug/profile                          (repro profile)")
    print("  (Ctrl-C to stop)")
    server.serve_forever()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    from repro.obs import render_trace, to_collapsed_stacks

    def render(trace) -> int:
        print(to_collapsed_stacks(trace) if args.collapsed else render_trace(trace))
        return 0

    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        # Accept both a bare trace payload and the /debug/trace envelope.
        return render(payload.get("trace", payload))
    try:
        if args.trace_id is None:
            with urlopen(f"{args.url}/debug/traces") as response:
                snapshot = json.load(response)
            if not snapshot.get("enabled", True):
                print("tracing is disabled on this server (started with --no-trace)")
                return 1
            for section in ("recent", "slow"):
                print(f"{section} ({len(snapshot[section])}):")
                for summary in snapshot[section]:
                    print(
                        f"  {summary['trace_id']}  {summary['name']:<16}"
                        f"{summary['duration_seconds'] * 1000:>10.3f}ms"
                        f"  {summary['spans']:>3} spans"
                        + ("  slow" if summary["slow"] else "")
                    )
            return 0
        with urlopen(f"{args.url}/debug/trace/{args.trace_id}") as response:
            payload = json.load(response)
        return render(payload["trace"])
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        print(f"server returned {exc.code}: {detail}", file=sys.stderr)
        return 1
    except URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    from urllib.error import HTTPError, URLError
    from urllib.parse import urlencode
    from urllib.request import urlopen

    from repro.obs import merge_traces, render_profile, render_profile_diff

    def render(payload) -> int:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif "diff" in payload:
            print(render_profile_diff(payload["diff"], top=args.top))
        else:
            print(render_profile(payload, top=args.top))
        return 0

    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        # Accept a saved /debug/profile payload, a /debug/profile?diff=
        # payload, or a plain list of trace payloads (merged locally).
        if isinstance(payload, list):
            payload = merge_traces(payload)
        return render(payload)
    params = {}
    if args.limit is not None:
        params["limit"] = args.limit
    if args.slow_only:
        params["slow_only"] = "true"
    if args.diff is not None:
        params["diff"] = args.diff
    query = f"?{urlencode(params)}" if params else ""
    try:
        with urlopen(f"{args.url}/debug/profile{query}") as response:
            return render(json.load(response))
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        print(f"server returned {exc.code}: {detail}", file=sys.stderr)
        return 1
    except URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1


def _cmd_top(args: argparse.Namespace) -> int:
    import json
    import time
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    from repro.obs.dashboard import render_dashboard

    def fetch(path):
        try:
            with urlopen(f"{args.url}{path}") as response:
                return json.load(response)
        except (HTTPError, URLError, json.JSONDecodeError):
            return None

    frames = 0
    while True:
        health = fetch("/healthz")
        if health is None and frames == 0:
            print(f"cannot reach {args.url}", file=sys.stderr)
            return 1
        frame = render_dashboard(
            health,
            fetch(f"/debug/timeseries?limit={args.window}"),
            fetch("/debug/slo"),
        )
        if frames and not args.no_clear:
            # Home + clear-to-end repaints in place without scrollback spam.
            sys.stdout.write("\x1b[H\x1b[J")
        print(frame)
        frames += 1
        if args.iterations is not None and frames >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import run_load_benchmark, write_serve_record

    payload = run_load_benchmark(
        seed=args.seed,
        clients=tuple(args.clients),
        requests_per_client=args.requests,
        entities=args.entities,
        mean_reviews=args.reviews,
        max_batch_size=args.max_batch_size,
        progress=print,
    )
    header = f"{'batching':<10}{'clients':>8}{'rps':>10}{'p50 ms':>9}{'p95 ms':>9}{'batch':>7}"
    print(header)
    print("-" * len(header))
    for cell in payload["cells"]:
        latency = cell["latency_seconds"]
        print(
            f"{'on' if cell['batching'] else 'off':<10}{cell['clients']:>8}"
            f"{cell['throughput_rps']:>10.1f}{latency['p50'] * 1000:>9.2f}"
            f"{latency['p95'] * 1000:>9.2f}{cell['batch_size']['mean']:>7.1f}"
        )
    summary = payload["summary"]
    print(
        f"speedup at {summary['peak_clients']} clients "
        f"(batching on vs off): {summary['speedup_batching_at_peak']:.2f}x"
    )
    tracing = summary["tracing"]
    print(
        f"tracing overhead at {tracing['clients']} clients "
        f"(1-in-{tracing['sample_every']} sampling): "
        f"{tracing['tracing_overhead_frac'] * 100:.2f}% "
        f"({tracing['throughput_rps_traced']:.1f} traced vs "
        f"{tracing['throughput_rps_untraced']:.1f} untraced rps)"
    )
    collector = summary["collector"]
    print(
        f"collector overhead at {collector['clients']} clients "
        f"({collector['interval_seconds'] * 1000:.0f}ms cadence): "
        f"{collector['collector_overhead_frac'] * 100:.2f}% "
        f"({collector['throughput_rps_collector_on']:.1f} on vs "
        f"{collector['throughput_rps_collector_off']:.1f} off rps)"
    )
    path = write_serve_record(payload, args.output)
    print(f"wrote {path}")
    return 0


def _cmd_bench_extract(args: argparse.Namespace) -> int:
    from repro.core.extraction_bench import run_extraction_benchmark, write_extract_record

    payload = run_extraction_benchmark(
        seed=args.seed,
        entities=args.entities,
        mean_reviews=args.reviews,
        batch_sentences=args.batch_sentences,
        train_epochs=args.train_epochs,
        progress=print,
    )
    header = f"{'variant':<20}{'ingest s':>10}{'speedup':>9}{'cache hit%':>12}"
    print(header)
    print("-" * len(header))
    speedup = payload["summary"]["speedup"]
    for name, cell in payload["variants"].items():
        ratio = speedup.get(name)
        cache = cell["cache"]
        print(
            f"{name:<20}{cell['ingest_seconds']:>10.3f}"
            f"{(f'{ratio:.2f}x' if ratio is not None else '1.00x'):>9}"
            f"{cache['hit_ratio'] * 100:>11.1f}%"
        )
    print(
        f"bucketed over sequential: "
        f"{speedup['bucketed']:.2f}x; warm-cache reingest: "
        f"{speedup['warm_cache']:.2f}x at "
        f"{payload['summary']['warm_cache_hit_ratio'] * 100:.1f}% hits"
    )
    encode = payload["encode"]
    print(f"{'encode path':<20}{'seconds':>10}{'speedup':>9}{'max err':>12}{'tags':>6}")
    tape_seconds = encode["seconds"]["tape_float64"]
    print(f"{'tape_float64':<20}{tape_seconds:>10.3f}{'1.00x':>9}{'oracle':>12}{'=':>6}")
    for precision in ("float64", "float32", "int8"):
        cell_seconds = encode["seconds"][precision]
        report = encode["equivalence"][precision]
        print(
            f"{'fused_' + precision:<20}{cell_seconds:>10.3f}"
            f"{tape_seconds / cell_seconds:>8.2f}x"
            f"{report['max_abs_error']:>12.2e}"
            f"{'=' if report['tags_identical'] else '!':>6}"
        )
    path = write_extract_record(payload, args.output)
    print(f"wrote {path}")
    return 0


def _cmd_bench_index(args: argparse.Namespace) -> int:
    from repro.core.bench_index import run_index_benchmark, write_index_record

    payload = run_index_benchmark(
        seed=args.seed,
        entities=args.entities,
        review_tags=args.review_tags,
        index_tags=args.index_tags,
        queries=args.queries,
        shard_counts=tuple(args.shards),
        availability_samples=args.availability_samples,
        rebuild_rounds=args.rebuild_rounds,
        progress=print,
    )
    speedup = payload["speedup"]
    print(
        f"backend: vectorized over scalar {speedup['total']:.1f}x total "
        f"(build {speedup['build']:.1f}x, lookup {speedup['lookup']:.1f}x, "
        f"max |delta| {payload['max_abs_delta']:.2e})"
    )
    shards = payload["shards"]
    header = f"{'cell':<10}{'build s':>9}{'lookup s':>10}{'vs dense':>10}"
    print(header)
    print("-" * len(header))
    dense_seconds = shards["baseline"]["lookup_seconds"]
    print(f"{'dense':<10}{'-':>9}{dense_seconds:>10.3f}{'1.00x':>10}")
    for name, cell in shards["cells"].items():
        print(
            f"{name:<10}{cell['build_seconds']:>9.3f}{cell['lookup_seconds']:>10.3f}"
            f"{cell['lookup_speedup_vs_dense']:>9.2f}x"
        )
    print(f"sharded lookups byte-identical to oracle: {shards['identical_to_oracle']}")
    snapshot = payload["snapshot"]
    print(
        f"snapshot: save {snapshot['save_seconds']:.2f}s, "
        f"load {snapshot['load_seconds']:.2f}s vs cold build "
        f"{snapshot['cold_build_seconds']:.2f}s "
        f"({snapshot['speedup']['warm_start']:.1f}x warm start; "
        f"rankings identical: {snapshot['rankings_identical']})"
    )
    availability = payload["availability"]
    print(
        f"availability: p99 {availability['rebuild_p99_ms']:.1f}ms during rebuild vs "
        f"{availability['idle_p99_ms']:.1f}ms idle "
        f"(ratio {availability['availability_ratio']:.2f}, "
        f"generation monotonic: {availability['generation_monotonic']})"
    )
    path = write_index_record(payload, args.output)
    print(f"wrote {path}")
    return 0


def _cmd_bench_conv(args: argparse.Namespace) -> int:
    from repro.conversation.bench import run_conv_benchmark, write_conv_record

    payload = run_conv_benchmark(
        seed=args.seed,
        entities=args.entities,
        mean_reviews=args.reviews,
        sessions=args.sessions,
        turns=args.turns,
        train_epochs=args.train_epochs,
        progress=print,
    )
    routes = payload["routes"]["counts"]
    total = payload["config"]["total_turns"]
    print(f"{'route':<12}{'turns':>7}{'fraction':>10}")
    print("-" * 29)
    for route in ("subjective", "objective", "chitchat"):
        count = routes[route]
        print(f"{route:<12}{count:>7}{count / total * 100 if total else 0:>9.1f}%")
    bypass = payload["bypass"]
    coref = payload["coref"]
    print(
        f"extractor calls: {bypass['extractor_calls_stage_off']} -> "
        f"{bypass['extractor_calls_stage_on']} "
        f"({bypass['extractor_call_reduction'] * 100:.1f}% reduction, "
        f"routed fraction {bypass['routed_fraction'] * 100:.1f}%)"
    )
    print(
        f"coref: {coref['hits']} hits / {coref['misses']} misses "
        f"({coref['resolution_rate'] * 100:.1f}% resolved); "
        f"topic shifts: {payload['shifts']['detected']}"
    )
    path = write_conv_record(payload, args.output)
    print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        render_human,
        render_json,
        rules_by_family,
        run_analysis,
        write_baseline,
    )
    from repro.analysis.baseline import (
        entry_key,
        load_baseline_entries,
        write_baseline_entries,
    )
    from repro.analysis.engine import changed_files

    if args.list_rules:
        for family, rules in rules_by_family().items():
            print(family)
            for rule in rules:
                scope = f"  [scope: {', '.join(rule.scope)}]" if rule.scope else ""
                print(f"  {rule.rule_id:<24}{rule.summary}{scope}")
        return 0
    paths = args.paths
    if args.changed:
        changed = changed_files(base=args.base, cwd=args.root)
        if changed is None:
            print("# not a git repo (or git unavailable); falling back to full sweep")
        else:
            paths = changed
            if not paths:
                print("no python files changed; nothing to lint")
                return 0
    baseline_path = None if args.no_baseline else args.baseline
    result = run_analysis(paths, root=args.root, baseline_path=baseline_path)
    if args.update_baseline:
        count = write_baseline(args.baseline, result.new + result.baselined)
        print(f"wrote {count} accepted findings to {args.baseline}")
        return 0
    if args.prune_baseline:
        stale = set(result.stale_baseline)
        entries = load_baseline_entries(args.baseline)
        kept = [entry for entry in entries if entry_key(entry) not in stale]
        if len(kept) < len(entries):
            write_baseline_entries(args.baseline, kept)
        print(
            f"pruned {len(entries) - len(kept)} stale entries from "
            f"{args.baseline} ({len(kept)} kept)"
        )
        return 0
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_human(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _cmd_locks(args: argparse.Namespace) -> int:
    import ast as _ast

    from repro.analysis.concurrency import (
        analyze_program,
        render_dot,
        render_locks_human,
        report_payload,
    )
    from repro.analysis.engine import _relpath, iter_python_files, run_analysis
    from repro.analysis.registry import ParsedModule, get_rule
    from repro.analysis.reporters import result_payload

    root = os.path.abspath(args.root or os.getcwd())
    modules = []
    for path in iter_python_files(args.paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = _ast.parse(source, filename=path)
        except SyntaxError:
            continue
        modules.append(
            ParsedModule(
                path=_relpath(path, root), tree=tree, lines=source.splitlines()
            )
        )
    report = analyze_program(modules)
    if args.dot:
        tmp = args.dot + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(render_dot(report) + "\n")
        os.replace(tmp, args.dot)
        # stderr so `--format json` stdout stays machine-parseable.
        print(f"wrote {args.dot}", file=sys.stderr)

    # Triage cycles/blocking through the same suppression + baseline
    # machinery as `repro lint`, so intentional exceptions stay visible but
    # non-failing and anything new fails the command (and the tier-1 guard).
    rules = [get_rule("lock-order-cycle"), get_rule("lock-held-blocking")]
    baseline_path = None if args.no_baseline else args.baseline
    triage = run_analysis(args.paths, root=args.root, rules=rules, baseline_path=baseline_path)
    if args.format == "json":
        payload = report_payload(report)
        payload["triage"] = result_payload(triage)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_locks_human(report))
        if triage.suppressed or triage.baselined:
            print(
                f"(intentional: {len(triage.suppressed)} suppressed inline, "
                f"{len(triage.baselined)} baselined)"
            )
        if triage.new:
            print(f"{len(triage.new)} UNSUPPRESSED findings:")
            for finding in triage.new:
                print(f"  {finding.path}:{finding.line}  {finding.rule_id}  {finding.message}")
    return 0 if triage.ok else 1


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data import DATASET_SPECS

    print(f"{'id':<4}{'description':<26}{'domain':<14}{'train':>7}{'test':>7}")
    for spec in DATASET_SPECS.values():
        print(
            f"{spec.key:<4}{spec.description:<26}{spec.domain:<14}"
            f"{spec.train_size:>7}{spec.test_size:>7}"
        )
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts that must be ≥ 1 (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n")[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    world = subparsers.add_parser("world", help="generate or inspect worlds")
    world_sub = world.add_subparsers(dest="world_command", required=True)
    generate = world_sub.add_parser("generate", help="generate a world snapshot")
    generate.add_argument("--entities", type=int, default=60)
    generate.add_argument("--reviews", type=float, default=15.0)
    generate.add_argument("--seed", type=int, default=2021)
    generate.add_argument("--fraud", action="store_true", help="inject fake-review campaigns")
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_world_generate)
    show = world_sub.add_parser("show", help="summarise a world snapshot")
    show.add_argument("--path", required=True)
    show.add_argument("--entity", help="print this entity's reviews")
    show.add_argument("--limit", type=int, default=5)
    show.set_defaults(func=_cmd_world_show)

    index = subparsers.add_parser("index", help="build tag indexes")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser("build", help="build a subjective tag index")
    build.add_argument("--world", required=True)
    build.add_argument("--out", required=True, help="snapshot directory to write")
    build.add_argument("--tags", nargs="*", help="tags to index (default: the 18 dimensions)")
    build.add_argument("--theta", type=float, default=0.70)
    build.add_argument("--theta-mode", choices=["static", "dynamic"], default="static")
    build.add_argument("--filter-fraud", action="store_true", help="drop suspicious reviews")
    build.set_defaults(func=_cmd_index_build)

    search = subparsers.add_parser("search", help="answer a subjective query")
    search.add_argument("--world", required=True)
    search.add_argument("--index", required=True, help="snapshot directory from `index build`")
    search.add_argument("--top-k", type=int, default=10)
    search.add_argument("--theta", type=float, default=0.60)
    search.add_argument("tags", nargs="+", help='subjective tags, e.g. "delicious food"')
    search.set_defaults(func=_cmd_search)

    serve = subparsers.add_parser("serve", help="run the JSON-over-HTTP serving runtime")
    serve.add_argument("--world", help="world snapshot to serve (default: generate one)")
    serve.add_argument("--entities", type=int, default=60)
    serve.add_argument("--reviews", type=float, default=12.0)
    serve.add_argument("--seed", type=int, default=2021)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350)
    serve.add_argument("--max-batch-size", type=_positive_int, default=16)
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument("--session-ttl", type=float, default=1800.0)
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="entity shard files a --snapshot-dir snapshot is written as "
        "(stable sha256 routing; no effect on lookups)",
    )
    serve.add_argument(
        "--snapshot-dir",
        help="warm-start the index from this snapshot directory; on a "
        "missing or corrupt snapshot, cold-build and write a fresh one",
    )
    serve.add_argument(
        "--encoder-precision",
        choices=("float64", "float32", "int8"),
        default="float64",
        help="tape-free fused inference precision for utterance extraction "
        "(float64 is bitwise-identical to the training forward)",
    )
    serve.add_argument(
        "--no-trace", action="store_true", help="disable request tracing"
    )
    serve.add_argument(
        "--trace-capacity", type=int, default=256, help="recent traces retained"
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=32,
        help="trace 1 of every N requests (1 = trace everything)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=50.0,
        help="slow-exemplar threshold in milliseconds",
    )
    serve.add_argument(
        "--no-collector",
        action="store_true",
        help="disable the background metrics collector (no /debug/timeseries "
        "points, frozen SLO burn rates)",
    )
    serve.add_argument(
        "--collector-interval",
        type=float,
        default=1.0,
        help="collector sampling cadence in seconds",
    )
    serve.add_argument(
        "--collector-retention",
        type=int,
        default=512,
        help="time-series points retained in the ring buffer",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=100.0,
        help="latency-SLO threshold: 99%% of searches must finish within this",
    )
    serve.set_defaults(func=_cmd_serve)

    trace = subparsers.add_parser(
        "trace", help="render span trees from a serving runtime's trace store"
    )
    trace.add_argument(
        "trace_id", nargs="?", help="trace id (omit to list recent + slow traces)"
    )
    trace.add_argument(
        "--url", default="http://127.0.0.1:8350", help="server base URL"
    )
    trace.add_argument(
        "--input", help="render a saved /debug/trace JSON file instead of fetching"
    )
    trace.add_argument(
        "--collapsed",
        action="store_true",
        help="emit collapsed-stack (flamegraph) lines instead of a tree",
    )
    trace.set_defaults(func=_cmd_trace)

    profile = subparsers.add_parser(
        "profile",
        help="merged flamegraph over a serving runtime's trace store",
    )
    profile.add_argument(
        "--url", default="http://127.0.0.1:8350", help="server base URL"
    )
    profile.add_argument(
        "--input",
        help="render a saved /debug/profile payload (or a JSON list of "
        "trace payloads) instead of fetching",
    )
    profile.add_argument(
        "--limit", type=int, help="merge at most this many traces (newest first)"
    )
    profile.add_argument(
        "--slow-only", action="store_true", help="merge only the slow exemplars"
    )
    profile.add_argument(
        "--diff",
        type=int,
        help="diff mode: newest N traces vs the rest of the window "
        "(per-trace-normalised deltas)",
    )
    profile.add_argument(
        "--top", type=int, default=20, help="stacks listed in the rendering"
    )
    profile.add_argument(
        "--json", action="store_true", help="print the raw payload instead"
    )
    profile.set_defaults(func=_cmd_profile)

    top = subparsers.add_parser(
        "top", help="live terminal dashboard for a serving runtime"
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8350", help="server base URL"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between repaints"
    )
    top.add_argument(
        "--window",
        type=int,
        default=48,
        help="time-series points fetched per frame (sparkline width)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        help="render this many frames then exit (default: until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of repainting in place",
    )
    top.set_defaults(func=_cmd_top)

    bench_serve = subparsers.add_parser(
        "bench-serve", help="closed-loop load benchmark of the serving runtime"
    )
    bench_serve.add_argument("--seed", type=int, default=7)
    bench_serve.add_argument("--clients", type=int, nargs="+", default=[1, 4, 16])
    bench_serve.add_argument("--requests", type=int, default=60, help="requests per client")
    bench_serve.add_argument("--entities", type=int, default=60)
    bench_serve.add_argument("--reviews", type=float, default=10.0)
    bench_serve.add_argument("--max-batch-size", type=_positive_int, default=16)
    bench_serve.add_argument("--output", help="record path (default: ./BENCH_serve.json)")
    bench_serve.set_defaults(func=_cmd_bench_serve)

    bench_extract = subparsers.add_parser(
        "bench-extract",
        help="benchmark the batched extraction engine against sequential ingest",
    )
    bench_extract.add_argument("--seed", type=int, default=7)
    bench_extract.add_argument("--entities", type=int, default=60)
    bench_extract.add_argument("--reviews", type=float, default=10.0)
    bench_extract.add_argument(
        "--batch-sentences", type=_positive_int, default=128, help="sentences per length bucket"
    )
    bench_extract.add_argument(
        "--train-epochs", type=int, default=2, help="tagger warm-up epochs before timing"
    )
    bench_extract.add_argument("--output", help="record path (default: ./BENCH_extract.json)")
    bench_extract.set_defaults(func=_cmd_bench_extract)

    bench_index = subparsers.add_parser(
        "bench-index",
        help="benchmark the tag index: sharding, snapshots, rebuild availability",
    )
    bench_index.add_argument("--seed", type=int, default=11)
    bench_index.add_argument("--entities", type=int, default=200)
    bench_index.add_argument(
        "--review-tags", type=int, default=2000, help="review-tag occurrences"
    )
    bench_index.add_argument("--index-tags", type=int, default=500)
    bench_index.add_argument("--queries", type=int, default=1000)
    bench_index.add_argument(
        "--shards", type=_positive_int, nargs="+", default=[1, 4, 8], help="shard-count cells"
    )
    bench_index.add_argument(
        "--availability-samples",
        type=int,
        default=300,
        help="closed-loop searches per availability phase",
    )
    bench_index.add_argument(
        "--rebuild-rounds", type=int, default=3, help="background rebuilds to race"
    )
    bench_index.add_argument("--output", help="record path (default: ./BENCH_index.json)")
    bench_index.set_defaults(func=_cmd_bench_index)

    bench_conv = subparsers.add_parser(
        "bench-conv",
        help="benchmark the conversation stage: routing bypass, coref, equivalence",
    )
    bench_conv.add_argument("--seed", type=int, default=7)
    bench_conv.add_argument("--entities", type=int, default=36)
    bench_conv.add_argument("--reviews", type=float, default=8.0)
    bench_conv.add_argument("--sessions", type=int, default=12)
    bench_conv.add_argument("--turns", type=int, default=6, help="turns per session")
    bench_conv.add_argument(
        "--train-epochs", type=int, default=2, help="tagger warm-up epochs before the runs"
    )
    bench_conv.add_argument("--output", help="record path (default: ./BENCH_conv.json)")
    bench_conv.set_defaults(func=_cmd_bench_conv)

    lint = subparsers.add_parser(
        "lint",
        help="static analysis of concurrency/determinism/kernel invariants",
    )
    lint.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    lint.add_argument("--format", choices=["human", "json"], default="human")
    lint.add_argument(
        "--baseline",
        default="analysis/baseline.json",
        help="accepted-findings file (default: analysis/baseline.json)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true", help="report baselined findings as new"
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept the current findings",
    )
    lint.add_argument(
        "--root", help="directory finding paths are made relative to (default: cwd)"
    )
    lint.add_argument(
        "--verbose", action="store_true", help="also list baselined findings"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs --base (full sweep outside git)",
    )
    lint.add_argument(
        "--base", default="HEAD", help="git ref --changed diffs against (default: HEAD)"
    )
    lint.add_argument(
        "--prune-baseline",
        action="store_true",
        help="drop baseline entries whose file+rule+line no longer fire",
    )
    lint.set_defaults(func=_cmd_lint)

    locks = subparsers.add_parser(
        "locks",
        help="whole-program lock-order graph, deadlock cycles, blocking-under-lock",
    )
    locks.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    locks.add_argument("--format", choices=["human", "json"], default="human")
    locks.add_argument("--dot", help="also write the lock-order graph as Graphviz dot")
    locks.add_argument(
        "--baseline",
        default="analysis/baseline.json",
        help="accepted-findings file (default: analysis/baseline.json)",
    )
    locks.add_argument(
        "--no-baseline", action="store_true", help="report baselined findings as new"
    )
    locks.add_argument(
        "--root", help="directory finding paths are made relative to (default: cwd)"
    )
    locks.set_defaults(func=_cmd_locks)

    datasets = subparsers.add_parser("datasets", help="list the S1-S4 benchmarks")
    datasets.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
