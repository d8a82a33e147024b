"""SACCS server process for the benchmark: neural extractor over HTTP.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/server.py --workload utterance-search [--spans OUT.json]

Builds the system with :func:`system.build_saccs` (fixed seeds), wraps it
in a :class:`SaccsRuntime` configured as ``repro serve`` configures it —
default :class:`ServeConfig`, 1-in-32 head-sampled :class:`Tracer`, the
background collector, the default SLOs — and serves it from a
:class:`SaccsHttpServer` on an ephemeral port.  When it is up it prints one
JSON line, ``{"port": ..., "setup": {...}}``, then serves until its standard
input closes.

With ``--spans`` the launcher wraps the public call of every serving layer
in a :class:`spans.SpanRecorder` span (after set-up, so ingest is not
traced) and writes the spans to that file on shutdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import system  # noqa: E402  (the benchmark's own modules sit beside this file)

system.pin_blas_threads()


def instrument(recorder, runtime) -> None:
    """Wrap every serving layer's public call of ``runtime`` in spans."""
    import repro.core.filtering as filtering
    import repro.core.saccs as saccs_module
    import repro.serve.http as http_module
    import repro.serve.runtime as runtime_module
    from repro.conversation.classify import QueryClassifier
    from repro.conversation.stage import ConversationStage
    from repro.core.dialog import SearchApi
    from repro.core.index import SubjectiveTagIndex
    from repro.core.session import ConversationSession
    from repro.nn.crf import LinearChainCRF
    from repro.nn.infer import InferenceModel

    saccs = runtime.saccs
    extractor = saccs.extractor
    wrap = recorder.wrap

    def patch(owner, attr, name, sizer=None):
        setattr(owner, attr, wrap(name, getattr(owner, attr), sizer))

    # Runtime entry points (instance attributes, so internal self.search
    # calls nest under the outer call) and the batch boundary.
    for attr in ("search", "search_utterance", "say"):
        patch(runtime, attr, "serve.runtime")
    # A reindex span's size is the user tag history it is about to fold.
    patch(runtime, "reindex", "serve.runtime.reindex", lambda a: len(saccs.user_tag_history))
    execute = wrap("serve.runtime.batch", runtime._execute_batch, lambda a: len(a[0]))

    def execute_batch(batch):
        recorder.set_batch(len(batch))
        try:
            return execute(batch)
        finally:
            recorder.set_batch(None)

    runtime._execute_batch = execute_batch

    patch(ConversationSession, "say", "core.session")
    patch(ConversationStage, "analyze", "conversation.analyze")
    patch(QueryClassifier, "parse", "conversation.parse")
    patch(SearchApi, "search", "core.dialog.api_search")
    patch(
        saccs.extraction_engine,
        "extract_token_lists",
        "core.extraction_engine.extract",
        lambda a: len(a[0]),
    )
    patch(type(extractor), "extract_batch", "core.extractor.extract")
    patch(type(extractor.tagger), "predict", "core.tagger.predict")
    patch(InferenceModel, "emissions", "core.tagger.encode")
    patch(LinearChainCRF, "decode", "core.tagger.decode")
    patch(type(extractor.pairer), "pair", "core.extractor.pair")
    patch(SubjectiveTagIndex, "lookup", "core.index.lookup")
    patch(
        SubjectiveTagIndex, "lookup_similar_batch", "core.index.lookup_similar",
        lambda a: len(a[1]),
    )
    ranked = wrap("core.filtering.rank", filtering.filter_and_rank)
    for module in (filtering, saccs_module, runtime_module):
        module.filter_and_rank = ranked
    patch(saccs_module.Saccs, "prepare_rebuild", "core.saccs.prepare_rebuild")
    patch(saccs_module.Saccs, "commit_rebuild", "core.saccs.commit_rebuild")

    make_handler = http_module.make_handler

    def traced_handler(bound_runtime):
        handler = make_handler(bound_runtime)
        do_post = wrap("serve.http", handler.do_POST)

        def do_POST(self):  # noqa: N802 - stdlib casing
            recorder.set_request(self.headers.get("X-Request-Id"))
            try:
                do_post(self)
            finally:
                recorder.set_request(None)

        handler.do_POST = do_POST
        return handler

    http_module.make_handler = traced_handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(system.WORKLOAD_WORLD))
    parser.add_argument("--spans", help="record layer spans and write them here on exit")
    args = parser.parse_args(argv)

    from repro.obs import TraceStore, Tracer, get_logger
    from repro.serve import SaccsHttpServer, SaccsRuntime, ServeConfig

    saccs, _world, seconds = system.build_saccs(system.WORKLOAD_WORLD[args.workload])
    tracer = Tracer(
        store=TraceStore(capacity=256, slow_threshold_seconds=0.05),
        logger=get_logger("repro.serve"),
        sample_every=32,
    )
    # ``repro serve``'s 100 ms latency SLO is the default_slos() one.
    runtime = SaccsRuntime(saccs, ServeConfig(), tracer=tracer)
    recorder = None
    if args.spans:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        instrument(recorder, runtime)
    server = SaccsHttpServer(runtime, host="127.0.0.1", port=0)
    server.start()
    print(json.dumps({"port": server.port, "setup": seconds}), flush=True)
    try:
        sys.stdin.read()  # serve until the load generator closes our stdin
    finally:
        server.stop()
        if recorder is not None:
            recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
