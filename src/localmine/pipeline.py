"""End-to-end orchestration: discovery -> crawl -> document alignment ->
sentence alignment -> filtering -> exact dedup, with per-site
checkpointing and the mining report.

Sites are mined one after another, in the order ``load_sites`` gives
them.  Per-site results are written as soon as a site finishes, so a
crash loses at most one site.  Every JSON Lines checkpoint and both
corpus files are written whole or not at all (``jsonl.whole_file``), so
a complete ``filtered.jsonl`` marks a finished site; the snapshot's page
files, ``ladder.tsv`` and the ``report.*`` files are still written in
place.  A site's records reach the corpus only through its
``filtered.jsonl``: once it is written the site keeps no record in
memory, and ``merge_corpus`` streams the rows of the sites that did
not fail, in site order and as they were written, through one global
dedup.  Runs are deterministic: with the same config, seed and
snapshot inputs the corpus and report files are byte-identical.  The
CLI subcommands call the same stage functions as ``run_pipeline``;
``localmine dedup`` is ``merge_corpus`` on one file.

The benchmark tracer (``perfbench/tracer.py``) times each layer by
rebinding this module's globals by name (the stage functions imported
here, ``mine_site``, ``filter_candidates``, ``dedupe`` and
``_write_jsonl``, the JSONL writer, whose write of ``filtered.jsonl``
ends a site), so stages must keep those names and reach them through
the module globals at call time.
"""

from __future__ import annotations

import json
import logging
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .config import PipelineConfig
from .crawl import PageStore, crawl_site, dump_snapshot
from .discovery import (
    SOURCE_ARCHIVE,
    SOURCE_CROWD,
    ArchiveScan,
    CandidateSite,
    UrlPairSubmission,
    ingest_url_pairs,
    iter_directory_records,
    iter_warc_records,
    scan_archive,
    select_balanced_hosts,
)
from .docalign import match_documents
from .embeddings import FileVectorProvider, HttpVectorProvider
from .fetching import Fetch, http_fetch, snapshot_fetch
from .filtering import (
    BitextFilter,
    CorpusRecord,
    EmbeddingProvider,
    embedding_gate,
    train_filter,
)
from .htmltext import EncodingError, extract_page
from .jsonl import numbered_jsonl, read_jsonl, whole_file
from .jsonl import write_jsonl as _write_jsonl
from .lexicon import Lexicon, load_lexicon, load_pair_tsv
from .sentalign import align_sentences, extract_pairs, format_ladder_tsv
from .text import Document, LanguageTag, document_from_text, make_segmenter

logger = logging.getLogger(__name__)

SOURCE_LABELS = {SOURCE_ARCHIVE: "Common Crawl", SOURCE_CROWD: "Crowdsourcing"}
_BUNDLED_DATA = Path(__file__).parent / "data"

@dataclass
class SiteReport:
    """Mining statistics in the report's column schema (per source)."""

    source: str
    n_urls: int = 0
    n_errors: int = 0
    n_extracted: int = 0
    n_sentences: int = 0

    @property
    def n_crawled(self) -> int:
        return self.n_urls - self.n_errors

    @property
    def extraction_rate(self) -> float:
        if self.n_crawled <= 0:
            return 0.0
        return round(self.n_extracted / self.n_crawled, 4)

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "n_urls": self.n_urls,
            "n_errors": self.n_errors,
            "n_crawled": self.n_crawled,
            "n_extracted": self.n_extracted,
            "extraction_rate": self.extraction_rate,
            "n_sentences": self.n_sentences,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SiteReport":
        report = cls(
            source=obj["source"],
            n_urls=int(obj["n_urls"]),
            n_errors=int(obj["n_errors"]),
            n_extracted=int(obj["n_extracted"]),
            n_sentences=int(obj["n_sentences"]),
        )
        return report


def _rate_cell(report: SiteReport) -> str:
    rate = report.n_extracted / report.n_crawled if report.n_crawled > 0 else 0.0
    return f"{report.n_extracted} ({rate:.3f})"


def emit_report(reports: Iterable[SiteReport], format: str = "tsv") -> bytes:
    """Render report rows as TSV, JSON or markdown; rates print with
    3 decimals."""
    rows = list(reports)
    if format == "tsv":
        lines = ["source\t#URLs\t#errors\t#crawled\t#extracted (rate)\t#sentences"]
        for r in rows:
            lines.append(
                f"{r.source}\t{r.n_urls}\t{r.n_errors}\t{r.n_crawled}\t"
                f"{_rate_cell(r)}\t{r.n_sentences}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        return (
            json.dumps([r.to_json() for r in rows], ensure_ascii=False, indent=2) + "\n"
        ).encode("utf-8")
    if format == "markdown":
        lines = [
            "| source | #URLs | #errors | #crawled | #extracted (rate) | #sentences |",
            "| --- | ---: | ---: | ---: | ---: | ---: |",
        ]
        for r in rows:
            lines.append(
                f"| {r.source} | {r.n_urls} | {r.n_errors} | {r.n_crawled} | "
                f"{_rate_cell(r)} | {r.n_sentences} |"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format: {format!r}")


def dedupe(rows: Iterable[dict]) -> Iterator[dict]:
    """Drop corpus rows whose (``ja``, ``zh``) pair an earlier row had,
    and rows whose two sides are identical; the rows pass as they are.
    Lazy: a kept row is yielded before the next one is read, so only
    the set of kept pairs is held.  A row without ``ja`` or ``zh`` is a
    ``ValueError`` naming the missing key."""
    seen: set[tuple[str, str]] = set()
    for row in rows:
        try:
            key = row["ja"], row["zh"]
        except KeyError as err:
            raise ValueError(f"corpus row has no {err} key") from None
        if key[0] == key[1] or key in seen:
            continue
        seen.add(key)
        yield row


@dataclass
class SiteOutcome:
    host: str
    source: str
    error: str = ""
    n_pages: int = 0
    n_docs_ja: int = 0
    n_docs_zh: int = 0
    n_doc_pairs: int = 0
    n_candidates: int = 0


@dataclass
class RunResult:
    output_dir: Path
    reports: list[SiteReport]
    n_records: int
    site_errors: int
    corpus_jsonl: Path
    corpus_tsv: Path
    report_json: Path
    report_tsv: Path


def pages_to_documents(
    store: PageStore, lexicon: Lexicon
) -> tuple[list[Document], list[Document]]:
    """Language-tagged, segmented documents from stored HTML pages, split
    into the JA and ZH lists (other languages and undecodable pages
    dropped).  Equal tokens of the site are one ``str`` object (through
    ``canon``), which the site's sentences and candidates share."""
    docs_ja: list[Document] = []
    docs_zh: list[Document] = []
    canon: dict[str, str] = {}
    seg = {
        LanguageTag.JA: make_segmenter(lexicon, LanguageTag.JA),
        LanguageTag.ZH: make_segmenter(lexicon, LanguageTag.ZH),
    }
    for page in store.pages:
        try:
            text, digest, _ = extract_page(page.body)
        except EncodingError:
            continue
        if not text:
            continue
        doc = document_from_text(page.url, text, tag_digest=digest)
        if doc.lang not in seg:
            continue
        segment = seg[doc.lang]
        for sentence in doc.sentences:
            sentence.tokens = [canon.setdefault(token, token) for token in segment(sentence.text)]
        (docs_ja if doc.lang is LanguageTag.JA else docs_zh).append(doc)
    return docs_ja, docs_zh


def crawl_and_dump(
    site: CandidateSite, config: PipelineConfig, fetch: Fetch, pages_dir: Path
) -> PageStore:
    """Crawl one site under the ``[crawler]`` budget; a crawl that did
    not fail is dumped as a snapshot into ``pages_dir``."""
    store = crawl_site(site, config.crawler, fetch)
    if not store.crawl_failed:
        dump_snapshot(store, pages_dir)
    return store


def mine_site(
    site: CandidateSite,
    lexicon: Lexicon,
    config: PipelineConfig,
    fetch: Fetch,
    site_dir: Path,
) -> tuple[SiteOutcome, list[CorpusRecord]]:
    """Crawl one site and align it down to candidate sentence pairs.

    Document and sentence alignment run with their modules' constants:
    no config key changes the document score floor, the URL language
    markers, the length model, the dictionary weight or the bead cost
    ceiling.  Returns the site's outcome plus the unscored candidates
    in document-pair order, and writes the site's snapshot and
    alignment checkpoints under ``site_dir``; the caller applies the
    filter stage and writes the survivors to ``filtered.jsonl``.
    """
    outcome = SiteOutcome(host=site.host, source=site.source)
    store = crawl_and_dump(site, config, fetch, site_dir / "pages")
    if store.crawl_failed:
        outcome.error = f"crawl failed: {store.failure_reason}"
        return outcome, []
    outcome.n_pages = len(store.pages)

    docs_ja, docs_zh = pages_to_documents(store, lexicon)
    outcome.n_docs_ja = len(docs_ja)
    outcome.n_docs_zh = len(docs_zh)
    doc_pairs = match_documents(docs_ja, docs_zh, lexicon)
    outcome.n_doc_pairs = len(doc_pairs)

    candidates: list[CorpusRecord] = []
    ladder_dump: list[str] = []
    for pair in doc_pairs:
        ladder = align_sentences(pair.doc_ja.sentences, pair.doc_zh.sentences, lexicon)
        pairs = extract_pairs(ladder, pair.doc_ja.sentences, pair.doc_zh.sentences)
        candidates.extend(
            CorpusRecord(
                ja=ja,
                zh=zh,
                src_url_ja=pair.doc_ja.url,
                src_url_zh=pair.doc_zh.url,
                doc_score=pair.score,
                bead_cost=cost,
                tokens_ja=tokens_ja,
                tokens_zh=tokens_zh,
            )
            for ja, zh, cost, tokens_ja, tokens_zh in pairs
        )
        ladder_dump.append(f"# {pair.doc_ja.url}\t{pair.doc_zh.url}\n")
        ladder_dump.append(format_ladder_tsv(ladder).rstrip("\n") + "\n")
    outcome.n_candidates = len(candidates)

    _write_jsonl(site_dir / "docpairs.jsonl", (p.to_json() for p in doc_pairs))
    (site_dir / "ladder.tsv").write_text("".join(ladder_dump), encoding="utf-8")
    _write_jsonl(site_dir / "raw_pairs.jsonl", (c.to_raw_json() for c in candidates))
    return outcome, candidates


def filter_candidates(
    candidates: list[CorpusRecord],
    bitext_filter: BitextFilter,
    lexicon: Lexicon,
    config: PipelineConfig,
    provider: EmbeddingProvider | None,
    counters: dict | None = None,
) -> list[CorpusRecord]:
    """Take a site's features in one batch (each language model scores
    each distinct side once) and score them in one classifier call, keep
    those whose score reaches the threshold, then apply the optional
    embedding gate, which adds its drop counts to ``counters`` when
    given.

    A side that carries its tokens (one sentence, segmented by
    ``pages_to_documents`` with the same segmenters) is not segmented
    again.  A side without them is: two sentences joined, or a row read
    back from ``raw_pairs.jsonl``.  The candidates' tokens are dropped
    once the features are taken."""
    if not candidates:
        return []
    seg_ja = make_segmenter(lexicon, LanguageTag.JA)
    seg_zh = make_segmenter(lexicon, LanguageTag.ZH)
    pairs = []
    for record in candidates:
        tokens_ja = seg_ja(record.ja) if record.tokens_ja is None else record.tokens_ja
        tokens_zh = seg_zh(record.zh) if record.tokens_zh is None else record.tokens_zh
        pairs.append((record.ja, record.zh, tokens_ja, tokens_zh))
        record.tokens_ja = record.tokens_zh = None
    features = bitext_filter.features(pairs, lexicon)
    del pairs
    survivors: list[CorpusRecord] = []
    for record, score in zip(candidates, bitext_filter.score_batch(features)):
        record.filter_score = score
        if score >= config.filter.threshold:
            survivors.append(record)
    if provider is not None:
        survivors = embedding_gate(
            survivors,
            provider,
            threshold=config.filter.embed_threshold,
            counters=counters,
        )
    return survivors


def read_sites(path: str | Path) -> list[CandidateSite]:
    """The candidate sites of a sites file, rows as
    ``CandidateSite.to_json`` writes them.  A row whose ``host`` is not a
    string, whose ``seed_urls`` is not a non-empty list of strings, whose
    ``source`` is neither ``archive`` nor ``crowd``, or whose ``balance``,
    ``bytes_ja`` or ``bytes_zh`` is present but not a finite number is a
    ``ValueError`` naming the file and line."""
    sites = []
    for number, obj in numbered_jsonl(path):
        seeds = obj.get("seed_urls")
        if type(obj.get("host")) is not str:
            raise ValueError(f"{path}:{number}: 'host' is missing or not a string")
        if type(seeds) is not list or not seeds or any(type(url) is not str for url in seeds):
            raise ValueError(f"{path}:{number}: 'seed_urls' is not a non-empty list of strings")
        if obj.get("source") not in SOURCE_LABELS:
            raise ValueError(f"{path}:{number}: 'source' is neither "
                             f"{SOURCE_ARCHIVE!r} nor {SOURCE_CROWD!r}")
        for key in ("balance", "bytes_ja", "bytes_zh"):
            if key in obj and not _finite_number(obj[key]):
                raise ValueError(f"{path}:{number}: {key!r} is not a finite number")
        sites.append(CandidateSite.from_json(obj))
    return sites


def _finite_number(value) -> bool:
    """Whether ``value`` is a JSON number in the float range; a bool is
    not one."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def discover_archive(
    path: str | Path, config: PipelineConfig
) -> tuple[ArchiveScan, list[CandidateSite]]:
    """Scan a WARC file or record directory and select its balanced
    hosts under the ``[discovery]`` settings."""
    archive = Path(path)
    records = iter_directory_records(archive) if archive.is_dir() else iter_warc_records(archive)
    scan = scan_archive(records)
    sites = select_balanced_hosts(
        scan.hosts.values(),
        min_bytes=config.discovery.min_bytes,
        min_balance=config.discovery.min_balance,
        limit=config.discovery.limit,
    )
    return scan, sites


def validate_submissions(
    path: str | Path, config: PipelineConfig, fetch: Fetch
) -> tuple[list[CandidateSite], list[UrlPairSubmission]]:
    """Validate a crowdsourced URL-pair TSV with the ``[crawler]``
    timeout."""
    return ingest_url_pairs(path, fetch, timeout=config.crawler.timeout)


def listed_sites(config: PipelineConfig) -> list[CandidateSite]:
    """The sites of the ``[pipeline] sites`` file, none when it is unset."""
    return read_sites(config.pipeline.sites) if config.pipeline.sites else []


def load_sites(
    config: PipelineConfig, fetch: Fetch, listed: list[CandidateSite]
) -> tuple[list[CandidateSite], dict[str, int], list[UrlPairSubmission]]:
    """Candidate sites from every configured source, ``listed`` (the
    sites file's, from ``listed_sites``) first, plus per-source intake
    counts (#URLs and validation #errors)."""
    sites: list[CandidateSite] = list(listed)
    intake = {SOURCE_ARCHIVE: 0, SOURCE_CROWD: 0, "crowd_errors": 0}
    submissions: list[UrlPairSubmission] = []
    for site in listed:
        intake[site.source] += 1
    if config.pipeline.archive:
        _, found = discover_archive(config.pipeline.archive, config)
        sites.extend(found)
        intake[SOURCE_ARCHIVE] += len(found)
    if config.pipeline.submissions:
        crowd_sites, rows = validate_submissions(config.pipeline.submissions, config, fetch)
        sites.extend(crowd_sites)
        submissions = rows
        intake[SOURCE_CROWD] += len(rows)
        intake["crowd_errors"] += sum(1 for r in rows if r.status == "ERROR")
    deduped: list[CandidateSite] = []
    taken: set[str] = set()
    for site in sites:
        if site.host in taken:
            continue
        taken.add(site.host)
        deduped.append(site)
    return deduped, intake, submissions


def fetch_for(config: PipelineConfig) -> Fetch:
    """The snapshot fetch when ``[pipeline] snapshot_dir`` is set, else HTTP."""
    if config.pipeline.snapshot_dir:
        return snapshot_fetch(config.pipeline.snapshot_dir)
    return http_fetch


def resolve_lexicon(config: PipelineConfig) -> Lexicon:
    dictionary = config.lexicon.dictionary or str(_BUNDLED_DATA / "lexicon_ja_zh.tsv")
    char_map = config.lexicon.char_map or str(_BUNDLED_DATA / "kanji_simplified.tsv")
    return load_lexicon(dictionary, char_map)


def resolve_filter(config: PipelineConfig, lexicon: Lexicon) -> BitextFilter:
    if config.filter.model_path:
        return BitextFilter.load(config.filter.model_path)
    if not config.filter.train_corpus:
        raise ValueError("filter stage needs model_path or train_corpus")
    return train_configured_filter(load_pair_tsv(config.filter.train_corpus), lexicon, config)


def train_configured_filter(
    parallel: list[tuple[str, str]], lexicon: Lexicon, config: PipelineConfig
) -> BitextFilter:
    """``train_filter`` with the forest's default size and the run seed."""
    return train_filter(
        parallel,
        lexicon,
        make_segmenter(lexicon, LanguageTag.JA),
        make_segmenter(lexicon, LanguageTag.ZH),
        seed=config.pipeline.seed,
    )


def resolve_provider(config: PipelineConfig) -> EmbeddingProvider | None:
    if config.filter.embed_endpoint:
        return HttpVectorProvider(
            config.filter.embed_endpoint, batch_size=config.filter.embed_batch_size
        )
    if config.filter.embed_vectors:
        return FileVectorProvider(config.filter.embed_vectors)
    return None


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute every stage per the config; see the module docstring."""
    # Each of these is fatal before any output, the output directory
    # included: ``load_sites`` writes nothing under it.  The sites file
    # and the vector file are read before the filter trains, so a
    # malformed one costs no training time.
    fetch = fetch_for(config)
    lexicon = resolve_lexicon(config)
    listed = listed_sites(config)
    provider = resolve_provider(config)
    bitext_filter = resolve_filter(config, lexicon)
    sites, intake, submissions = load_sites(config, fetch, listed)
    out_dir = Path(config.pipeline.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if submissions:
        _write_jsonl(out_dir / "submissions.jsonl", (r.to_json() for r in submissions))

    def process(site: CandidateSite) -> SiteOutcome:
        site_dir = out_dir / site.host
        try:
            outcome, candidates = mine_site(site, lexicon, config, fetch, site_dir)
            counters: dict[str, int] = {}
            # A site whose crawl failed has no candidates, so no records.
            records = filter_candidates(
                candidates, bitext_filter, lexicon, config, provider, counters
            )
            missing = counters.get("embed_missing", 0)
            failed = counters.get("embed_failures", 0)
            if missing or failed:
                logger.warning(
                    "site %s: embedding gate dropped %d pairs with no vector "
                    "and %d pairs the embedding provider failed on",
                    site.host, missing, failed,
                )
            _write_jsonl(site_dir / "filtered.jsonl", (r.to_json() for r in records))
        except Exception as err:  # per-site failures never abort the run
            logger.exception("site %s failed", site.host)
            outcome = SiteOutcome(host=site.host, source=site.source, error=str(err))
        return outcome

    # One site at a time: ``process`` returns only the outcome, so a
    # site's records are freed before the next site is mined.
    outcomes = [process(site) for site in sites]

    # A failed site's filtered.jsonl may be left from an earlier run.
    merged = [o for o in outcomes if not o.error]
    corpus_jsonl = out_dir / "corpus.jsonl"
    corpus_tsv = out_dir / "corpus.tsv"
    kept = merge_corpus(
        [out_dir / o.host / "filtered.jsonl" for o in merged], corpus_jsonl, corpus_tsv
    )

    reports = _build_reports(outcomes, intake, {o.host: n for o, n in zip(merged, kept)})
    report_json = out_dir / "report.json"
    report_tsv = out_dir / "report.tsv"
    report_json.write_bytes(emit_report(reports, "json"))
    report_tsv.write_bytes(emit_report(reports, "tsv"))

    site_errors = sum(1 for o in outcomes if o.error)
    return RunResult(
        output_dir=out_dir,
        reports=reports,
        n_records=sum(kept),
        site_errors=site_errors,
        corpus_jsonl=corpus_jsonl,
        corpus_tsv=corpus_tsv,
        report_json=report_json,
        report_tsv=report_tsv,
    )


def merge_corpus(
    inputs: list[Path], corpus_jsonl: str | Path, corpus_tsv: str | Path | None = None
) -> list[int]:
    """Stream the rows of the ``filtered.jsonl`` files ``inputs``, in
    order, through ``dedupe`` into ``corpus_jsonl``, each kept row as it
    was written, and, when given, its two sides into the two-column
    ``corpus_tsv``; return how many rows each input kept.  Only the
    dedup key set grows with the corpus.  Each output is written whole
    or not at all (``jsonl.whole_file``), so a missing or malformed
    input leaves both as they were."""
    outputs = {Path(p).resolve() for p in (corpus_jsonl, corpus_tsv) if p}
    if any(Path(p).resolve() in outputs for p in inputs):
        raise ValueError("a corpus output is also a merge input")
    kept = [0] * len(inputs)
    current = 0

    def rows() -> Iterator[dict]:
        nonlocal current
        for current, path in enumerate(inputs):
            yield from read_jsonl(path)

    def kept_rows(tsv) -> Iterator[dict]:
        # dedupe is lazy, so a kept row comes from input ``current``.
        for row in dedupe(rows()):
            kept[current] += 1
            if tsv is not None:
                tsv.write(f"{row['ja']}\t{row['zh']}\n")
            yield row

    with whole_file(corpus_tsv) if corpus_tsv else nullcontext() as tsv:
        _write_jsonl(corpus_jsonl, kept_rows(tsv))
    return kept


def _build_reports(
    outcomes: list[SiteOutcome], intake: dict[str, int], kept: dict[str, int]
) -> list[SiteReport]:
    """One row per source; a site counts as extracted when the corpus
    kept at least one of its records (``kept[host]``)."""
    reports: list[SiteReport] = []
    for source in (SOURCE_ARCHIVE, SOURCE_CROWD):
        source_outcomes = [o for o in outcomes if o.source == source]
        n_urls = intake.get(source, 0)
        if not source_outcomes and n_urls == 0:
            continue
        n_errors = sum(1 for o in source_outcomes if o.error)
        if source == SOURCE_CROWD:
            n_errors += intake.get("crowd_errors", 0)
        site_kept = [kept.get(o.host, 0) for o in source_outcomes]
        reports.append(
            SiteReport(
                source=SOURCE_LABELS.get(source, source),
                n_urls=n_urls,
                n_errors=n_errors,
                n_extracted=sum(1 for n in site_kept if n),
                n_sentences=sum(site_kept),
            )
        )
    return reports
