"""Outside-in tracer for localmine.

The program is not edited.  Instead the names that ``localmine.pipeline``
and ``localmine.crawl`` look up at call time (the functions they import
from each layer) are rebound to wrappers that record a span per call and
count the work from the call's arguments and return value.  The same is
done, in the set-up process, for the training steps ``train_filter``
calls.

A span is (id, name, start, end, parent id, site, thread).  Parents come
from a thread-local stack, because ``jobs > 1`` mines sites on threads;
the site is the host whose ``mine_site`` call is open on that thread.
Spans stay in memory until ``dump`` writes them out.  A span's self time
is its duration minus the durations of its children, which nest inside
it on the same thread; a layer's time (``*_s``) is the sum of its spans'
self times.  With one mining thread these sum to the traced run's wall
time; with several, spans of parallel sites overlap and also count the
time a thread waits for the interpreter lock.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

# Span name -> the per-layer time metric its self time is added to.
TIME_METRIC = {
    "pipeline.run": "pipeline.self_s",
    "pipeline.site": "pipeline.self_s",
    "pipeline.filter": "pipeline.self_s",
    "pipeline.output": "pipeline.self_s",
    "pipeline.load": "pipeline.load_s",
    "pipeline.checkpoint": "pipeline.checkpoint_s",
    "pipeline.dedup": "pipeline.dedup_s",
    "pipeline.report": "pipeline.report_s",
    "discovery.scan": "discovery.scan_s",
    "discovery.validate": "discovery.validate_s",
    "fetching.fetch": "fetching.fetch_s",
    "crawl": "crawl.self_s",
    "htmltext.extract": "htmltext.extract_s",
    "htmltext.links": "htmltext.links_s",
    "text.document": "text.document_s",
    "text.segment": "text.segment_s",
    "docalign.match": "docalign.match_s",
    "sentalign.align": "sentalign.align_s",
    "sentalign.extract": "sentalign.extract_s",
    "filtering.features": "filtering.features_s",
    "filtering.score": "filtering.score_s",
    "embeddings.gate": "embeddings.gate_s",
    "setup": "setup.self_s",
    "lexicon.load": "lexicon.load_s",
    "model1.train": "model1.train_s",
    "charlm.train": "charlm.train_s",
    "forest.fit": "forest.fit_s",
    "filtering.train_features": "filtering.train_features_s",
}

MINING_COUNTS = (
    "discovery.records", "discovery.skipped_records", "discovery.hosts_selected",
    "discovery.submission_errors", "fetching.requests", "fetching.not_ok",
    "crawl.pages_stored", "crawl.fetch_failures", "crawl.skipped",
    "text.segment_calls", "text.sentences", "text.tokens",
    "docalign.pairs_considered", "docalign.doc_pairs",
    "sentalign.calls", "sentalign.cells", "sentalign.candidates",
    "filtering.pairs_scored", "embeddings.pairs_in", "embeddings.kept",
    "embeddings.rejected", "embeddings.provider_failures",
)
SETUP_TIMES = ("setup.self_s", "lexicon.load_s", "model1.train_s", "charlm.train_s",
               "forest.fit_s", "filtering.train_features_s")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                getattr(self._local, "site", ""), threading.get_ident()]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        """End ``span`` and any span still open above it on this thread."""
        end = time.perf_counter()
        stack = self._stack()
        while stack:
            top = stack.pop()
            top[3] = end
            with self._lock:
                self.spans.append(top)
            if top is span:
                return

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` counts its work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def timed_iter(self, name: str, iterable):
        """Yield from ``iterable`` with each step inside a span (for the
        generators the pipeline consumes lazily)."""
        it = iter(iterable)
        while True:
            span = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(span)
            yield item

    def counted_iter(self, key: str, iterable):
        for item in iterable:
            self.count(key)
            yield item

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}),
                        encoding="utf-8")


def instrument_mining(tracer: Tracer, threshold: float) -> None:
    """Rebind every layer entry point ``run_pipeline`` reaches.
    ``threshold`` is the filter's keep threshold, for the keep ratio."""
    import localmine.crawl as crawl
    import localmine.filtering as filtering
    import localmine.pipeline as pipeline

    t, p = tracer, pipeline
    local = tracer._local

    p.load_lexicon = t.wrap("pipeline.load", p.load_lexicon)
    p.FileVectorProvider = t.wrap("pipeline.load", p.FileVectorProvider)
    filtering.BitextFilter.load = staticmethod(
        t.wrap("pipeline.load", filtering.BitextFilter.load))

    iter_warc_records = p.iter_warc_records
    p.iter_warc_records = functools.wraps(iter_warc_records)(
        lambda *a, **k: t.counted_iter("discovery.records", iter_warc_records(*a, **k)))
    p.scan_archive = t.wrap("discovery.scan", p.scan_archive,
                            lambda r, a: t.count("discovery.skipped_records", r.skipped_records))
    p.select_balanced_hosts = t.wrap("discovery.scan", p.select_balanced_hosts,
                                     lambda r, a: t.count("discovery.hosts_selected", len(r)))
    p.ingest_url_pairs = t.wrap(
        "discovery.validate", p.ingest_url_pairs,
        lambda r, a: t.count("discovery.submission_errors",
                             sum(1 for row in r[1] if row.status == "ERROR")))

    snapshot_fetch = p.snapshot_fetch

    def traced_snapshot_fetch(snapshot_dir):
        fetch = snapshot_fetch(snapshot_dir)

        def traced_fetch(url, *args, **kwargs):
            t.count("fetching.requests")
            span = t.open("fetching.fetch")
            try:
                resp = fetch(url, *args, **kwargs)
            except Exception:
                t.count("fetching.not_ok")
                raise
            finally:
                t.close(span)
            if not resp.ok:
                t.count("fetching.not_ok")
            return resp

        return traced_fetch

    p.snapshot_fetch = traced_snapshot_fetch

    def after_crawl(store, args):
        t.count("crawl.pages_stored", len(store.pages))
        t.count("crawl.fetch_failures", store.fetch_failures)
        t.count("crawl.skipped", store.skipped_binary + store.skipped_other)

    p.crawl_site = t.wrap("crawl", p.crawl_site, after_crawl)
    crawl.extract_links = t.wrap("htmltext.links", crawl.extract_links,
                                 lambda r, a: t.count("htmltext.parses"))
    p.extract_page = t.wrap("htmltext.extract", p.extract_page,
                            lambda r, a: t.count("htmltext.parses"))
    p.document_from_text = t.wrap("text.document", p.document_from_text,
                                  lambda r, a: t.count("text.sentences", len(r.sentences)))

    def after_segment(tokens, args):
        t.count("text.segment_calls")
        t.count("text.tokens", len(tokens))

    make_segmenter = p.make_segmenter
    p.make_segmenter = functools.wraps(make_segmenter)(
        lambda *a, **k: t.wrap("text.segment", make_segmenter(*a, **k), after_segment))

    def after_match(pairs, args):
        t.count("docalign.pairs_considered", len(args[0]) * len(args[1]))
        t.count("docalign.doc_pairs", len(pairs))

    p.match_documents = t.wrap("docalign.match", p.match_documents, after_match)

    def after_align(ladder, args):
        t.count("sentalign.calls")
        t.count("sentalign.cells", len(args[0]) * len(args[1]))

    p.align_sentences = t.wrap("sentalign.align", p.align_sentences, after_align)
    p.extract_pairs = t.wrap("sentalign.extract", p.extract_pairs,
                             lambda r, a: t.count("sentalign.candidates", len(r)))

    def after_score(score, args):
        t.count("filtering.pairs_scored")
        if score >= threshold:
            t.count("filtering.kept")

    filtering.BitextFilter.features = t.wrap("filtering.features", filtering.BitextFilter.features)
    filtering.BitextFilter.score = t.wrap("filtering.score", filtering.BitextFilter.score,
                                          after_score)

    embedding_gate = p.embedding_gate

    def traced_gate(pairs, provider, *args, counters=None, **kwargs):
        own = {} if counters is None else counters
        span = t.open("embeddings.gate")
        try:
            kept = embedding_gate(pairs, provider, *args, counters=own, **kwargs)
        finally:
            t.close(span)
        t.count("embeddings.pairs_in", len(pairs))
        t.count("embeddings.kept", len(kept))
        t.count("embeddings.rejected", own.get("embed_rejected", 0))
        t.count("embeddings.provider_failures", own.get("embed_failures", 0))
        return kept

    p.embedding_gate = traced_gate

    dedupe = p.dedupe

    def traced_dedupe(records, *args, **kwargs):
        kept = dedupe(t.counted_iter("pipeline.dedup_in", records), *args, **kwargs)
        return t.counted_iter("pipeline.dedup_out", t.timed_iter("pipeline.dedup", kept))

    p.dedupe = traced_dedupe
    p.emit_report = t.wrap("pipeline.report", p.emit_report)
    p.dump_snapshot = t.wrap("pipeline.checkpoint", p.dump_snapshot)
    p.filter_candidates = t.wrap("pipeline.filter", p.filter_candidates)

    # A site's span runs from its mine_site call to the write of its
    # filtered.jsonl, the last thing the pipeline does for a site.
    mine_site = p.mine_site

    def traced_mine_site(site, *args, **kwargs):
        stale = getattr(local, "site_span", None)
        if stale is not None:  # the previous site on this thread raised
            t.close(stale)
        local.site = site.host
        local.site_span = t.open("pipeline.site")
        try:
            return mine_site(site, *args, **kwargs)
        except BaseException:
            t.close(local.site_span)
            local.site_span = None
            raise

    p.mine_site = traced_mine_site

    write_jsonl = p._write_jsonl

    def traced_write_jsonl(path, rows):
        site_span = getattr(local, "site_span", None)
        span = t.open("pipeline.checkpoint" if site_span is not None else "pipeline.output")
        try:
            write_jsonl(path, rows)
        finally:
            t.close(span)
        if site_span is not None and Path(path).name == "filtered.jsonl":
            t.close(site_span)
            local.site_span = None
            local.site = ""

    p._write_jsonl = traced_write_jsonl


def instrument_setup(tracer: Tracer) -> None:
    """Rebind the training steps ``train_filter`` calls, and the lexicon
    loader the set-up calls."""
    import localmine.filtering as filtering
    import localmine.forest as forest
    import localmine.lexicon as lexicon

    t = tracer
    lexicon.load_lexicon = t.wrap("lexicon.load", lexicon.load_lexicon)
    filtering.train_model1 = t.wrap("model1.train", filtering.train_model1)
    filtering.train_char_lm = t.wrap("charlm.train", filtering.train_char_lm)
    filtering.extract_features = t.wrap("filtering.train_features", filtering.extract_features)
    forest.RandomForest.fit = t.wrap("forest.fit", forest.RandomForest.fit)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in own:  # a span left open (a failed site) was never dumped
            own[s[4]] -= s[3] - s[2]
    return own


def layer_times(spans: list[list]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = dict.fromkeys(set(TIME_METRIC.values()), 0.0)
    for s in spans:
        totals[TIME_METRIC[s[1]]] += own[s[0]]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mining_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced mining run."""
    times = layer_times(spans)
    metrics = {k: v for k, v in times.items() if k not in SETUP_TIMES}
    for key in MINING_COUNTS:
        metrics[key] = float(counts.get(key, 0))
    metrics["pipeline.dedup_dropped"] = float(
        counts.get("pipeline.dedup_in", 0) - counts.get("pipeline.dedup_out", 0))
    metrics["htmltext.parses_per_page"] = _ratio(
        counts.get("htmltext.parses", 0), counts.get("crawl.pages_stored", 0))
    metrics["docalign.yield"] = _ratio(
        counts.get("docalign.doc_pairs", 0), counts.get("docalign.pairs_considered", 0))
    metrics["filtering.keep_ratio"] = _ratio(
        counts.get("filtering.kept", 0), counts.get("filtering.pairs_scored", 0))
    sites = [s[3] - s[2] for s in spans if s[1] == "pipeline.site"]
    metrics["pipeline.site_s"] = statistics.median(sites) if sites else 0.0
    metrics["pipeline.sites"] = float(len(sites))
    return metrics


def setup_metrics(spans: list[list]) -> dict[str, float]:
    times = layer_times(spans)
    return {k: times[k] for k in SETUP_TIMES}
