"""End-to-end orchestration: discovery -> crawl -> document alignment ->
sentence alignment -> filtering -> dedup, with per-site checkpointing
and the mining report.

Per-site results are written as soon as a site finishes, so a crash
loses at most one site.  Runs are deterministic: with the same config,
seed and snapshot inputs the corpus and report files are byte-identical.
The CLI subcommands call the same stage functions as ``run_pipeline``.

The benchmark tracer (``perfbench/tracer.py``) times each layer by
rebinding this module's globals by name (the stage functions imported
here, ``mine_site``, ``filter_candidates`` and ``_write_jsonl``, whose
write of ``filtered.jsonl`` ends a site), so stages must keep those
names and reach them through the module globals at call time.
"""

from __future__ import annotations

import json
import hashlib
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .config import PipelineConfig
from .crawl import BinaryExtractor, PageStore, crawl_site, dump_snapshot
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
from .lexicon import Lexicon, load_lexicon, load_pair_tsv
from .sentalign import align_sentences, extract_pairs, format_ladder_tsv
from .text import Document, LanguageTag, document_from_text, make_segmenter

logger = logging.getLogger(__name__)

SOURCE_LABELS = {SOURCE_ARCHIVE: "Common Crawl", SOURCE_CROWD: "Crowdsourcing"}
_BUNDLED_DATA = Path(__file__).parent / "data"

RecordFilter = Callable[["CorpusRecord"], bool]
"""Hook point in the record stream (e.g. a future content filter);
returning False drops the record."""


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


def dedupe(
    records: Iterable[CorpusRecord],
    exact: bool = True,
) -> Iterator[CorpusRecord]:
    """Drop exact (ja, zh) duplicates keeping the first occurrence, and
    records whose two sides are identical.  The approximate mode keeps a
    64-bit hash set instead of the full text (bounded memory)."""
    seen_exact: set[tuple[str, str]] = set()
    seen_hash: set[int] = set()
    for record in records:
        if record.ja == record.zh:
            continue
        if exact:
            key = (record.ja, record.zh)
            if key in seen_exact:
                continue
            seen_exact.add(key)
        else:
            digest = hashlib.blake2b(
                record.ja.encode("utf-8") + b"\x00" + record.zh.encode("utf-8"),
                digest_size=8,
            ).digest()
            key64 = int.from_bytes(digest, "big")
            if key64 in seen_hash:
                continue
            seen_hash.add(key64)
        yield record


@dataclass
class SiteOutcome:
    host: str
    source: str
    records: list[CorpusRecord] = field(default_factory=list)
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
    store: PageStore,
    lexicon: Lexicon,
    config: PipelineConfig,
    binary_extractor: BinaryExtractor | None = None,
) -> tuple[list[Document], list[Document]]:
    """Language-tagged, segmented documents from stored pages, split into
    the JA and ZH lists (other languages dropped).  PDF/Word bodies go
    through the extractor plug-in when one is registered (they are only
    stored in that case) and carry an empty structure digest."""
    docs_ja: list[Document] = []
    docs_zh: list[Document] = []
    seg = {
        LanguageTag.JA: make_segmenter(lexicon, LanguageTag.JA),
        LanguageTag.ZH: make_segmenter(lexicon, LanguageTag.ZH),
    }
    for page in store.pages:
        digest: list[str] = []
        if binary_extractor is not None and not page.content_type.startswith("text/html"):
            try:
                text = binary_extractor(page.body, page.content_type)
            except Exception as err:
                logger.warning("binary extraction failed for %s: %s", page.url, err)
                continue
        else:
            try:
                text, digest, _ = extract_page(page.body)
            except EncodingError:
                continue
        if not text:
            continue
        doc = document_from_text(
            page.url,
            text,
            tag_digest=digest,
            kana_threshold=config.text.kana_threshold,
            han_threshold=config.text.han_threshold,
        )
        if doc.lang not in seg:
            continue
        segment = seg[doc.lang]
        for sentence in doc.sentences:
            sentence.tokens = segment(sentence.text)
        (docs_ja if doc.lang is LanguageTag.JA else docs_zh).append(doc)
    return docs_ja, docs_zh


def crawl_and_dump(
    site: CandidateSite,
    config: PipelineConfig,
    fetch: Fetch,
    pages_dir: Path | None,
    binary_extractor: BinaryExtractor | None = None,
) -> PageStore:
    """Crawl one site under the ``[crawler]`` budget; a crawl that did
    not fail is dumped as a snapshot into ``pages_dir`` when given."""
    store = crawl_site(
        site, config.crawler.budget(), fetch,
        binary_extractor=binary_extractor,
        timeout=config.crawler.timeout,
    )
    if pages_dir is not None and not store.crawl_failed:
        dump_snapshot(store, pages_dir)
    return store


def mine_site(
    site: CandidateSite,
    lexicon: Lexicon,
    config: PipelineConfig,
    fetch: Fetch,
    site_dir: Path | None = None,
    binary_extractor: BinaryExtractor | None = None,
) -> tuple[SiteOutcome, list[CorpusRecord]]:
    """Crawl one site and align it down to candidate sentence pairs.

    Returns the outcome shell (records still empty) plus the unscored
    candidates in document-pair order; the caller applies the filter
    stage.
    """
    outcome = SiteOutcome(host=site.host, source=site.source)
    pages_dir = site_dir / "pages" if site_dir is not None else None
    store = crawl_and_dump(site, config, fetch, pages_dir, binary_extractor)
    if store.crawl_failed:
        outcome.error = f"crawl failed: {store.failure_reason}"
        return outcome, []
    outcome.n_pages = len(store.pages)

    docs_ja, docs_zh = pages_to_documents(store, lexicon, config, binary_extractor)
    outcome.n_docs_ja = len(docs_ja)
    outcome.n_docs_zh = len(docs_zh)
    doc_pairs = match_documents(
        docs_ja,
        docs_zh,
        lexicon,
        min_score=config.docalign.min_score,
        weights=config.docalign.weights,
        markers=config.docalign.marker_list,
    )
    outcome.n_doc_pairs = len(doc_pairs)

    model = config.sentalign.length_model()
    candidates: list[CorpusRecord] = []
    ladder_dump: list[str] = []
    for pair in doc_pairs:
        ladder = align_sentences(
            pair.doc_ja.sentences,
            pair.doc_zh.sentences,
            lexicon,
            model,
            lam=config.sentalign.dict_weight,
            banded=config.sentalign.banded,
            refit=config.sentalign.refit,
        )
        pairs = extract_pairs(
            ladder,
            pair.doc_ja.sentences,
            pair.doc_zh.sentences,
            max_cost=config.sentalign.max_bead_cost,
        )
        candidates.extend(
            CorpusRecord(
                ja=ja,
                zh=zh,
                src_url_ja=pair.doc_ja.url,
                src_url_zh=pair.doc_zh.url,
                doc_score=pair.score,
                bead_cost=cost,
            )
            for ja, zh, cost in pairs
        )
        ladder_dump.append(f"# {pair.doc_ja.url}\t{pair.doc_zh.url}")
        ladder_dump.append(format_ladder_tsv(ladder).rstrip("\n"))
    outcome.n_candidates = len(candidates)

    if site_dir is not None:
        _write_jsonl(site_dir / "docpairs.jsonl", (p.to_json() for p in doc_pairs))
        (site_dir / "ladder.tsv").write_text(
            "\n".join(ladder_dump) + ("\n" if ladder_dump else ""), encoding="utf-8"
        )
        _write_jsonl(site_dir / "raw_pairs.jsonl", (c.to_raw_json() for c in candidates))
    return outcome, candidates


def filter_candidates(
    candidates: list[CorpusRecord],
    bitext_filter: BitextFilter,
    lexicon: Lexicon,
    config: PipelineConfig,
    provider: EmbeddingProvider | None,
) -> list[CorpusRecord]:
    """Set each candidate's classifier score and keep those reaching the
    threshold, then apply the optional embedding gate."""
    seg_ja = make_segmenter(lexicon, LanguageTag.JA)
    seg_zh = make_segmenter(lexicon, LanguageTag.ZH)
    survivors: list[CorpusRecord] = []
    for record in candidates:
        fv = bitext_filter.features(
            record.ja, record.zh, seg_ja(record.ja), seg_zh(record.zh), lexicon
        )
        record.filter_score = bitext_filter.score(fv)
        if record.filter_score >= config.filter.threshold:
            survivors.append(record)
    if provider is not None:
        survivors = embedding_gate(
            survivors,
            provider,
            threshold=config.filter.embed_threshold,
            keep_below=config.filter.embed_keep_below,
        )
    return survivors


def read_sites(path: str | Path) -> list[CandidateSite]:
    return [CandidateSite.from_json(obj) for obj in _read_jsonl(path)]


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


def load_sites(config: PipelineConfig, fetch: Fetch) -> tuple[list[CandidateSite], dict[str, int], list[UrlPairSubmission]]:
    """Candidate sites from every configured source, plus per-source
    intake counts (#URLs and validation #errors)."""
    sites: list[CandidateSite] = []
    intake = {SOURCE_ARCHIVE: 0, SOURCE_CROWD: 0, "crowd_errors": 0}
    submissions: list[UrlPairSubmission] = []
    if config.pipeline.sites:
        for site in read_sites(config.pipeline.sites):
            sites.append(site)
            intake[site.source] = intake.get(site.source, 0) + 1
    if config.pipeline.archive:
        _, found = discover_archive(config.pipeline.archive, config)
        sites.extend(found)
        intake[SOURCE_ARCHIVE] += len(found)
    if config.pipeline.submissions:
        crowd_sites, rows = ingest_url_pairs(
            config.pipeline.submissions, fetch, timeout=config.crawler.timeout
        )
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
    """``train_filter`` under the ``[filter]`` settings and the run seed."""
    return train_filter(
        parallel,
        lexicon,
        make_segmenter(lexicon, LanguageTag.JA),
        make_segmenter(lexicon, LanguageTag.ZH),
        model1_iterations=config.filter.model1_iterations,
        lm_order=config.filter.lm_order,
        lm_k=config.filter.lm_k,
        trees=config.filter.trees,
        depth=config.filter.depth,
        seed=config.pipeline.seed,
        threshold=config.filter.threshold,
    )


def resolve_provider(config: PipelineConfig) -> EmbeddingProvider | None:
    if config.filter.embed_endpoint:
        return HttpVectorProvider(
            config.filter.embed_endpoint, batch_size=config.filter.embed_batch_size
        )
    if config.filter.embed_vectors:
        return FileVectorProvider(config.filter.embed_vectors)
    return None


def run_pipeline(
    config: PipelineConfig,
    record_filter: RecordFilter | None = None,
    binary_extractor: BinaryExtractor | None = None,
) -> RunResult:
    """Execute every stage per the config; see the module docstring."""
    out_dir = Path(config.pipeline.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fetch = fetch_for(config)
    lexicon = resolve_lexicon(config)
    bitext_filter = resolve_filter(config, lexicon)  # fatal before any site runs
    provider = resolve_provider(config)
    sites, intake, submissions = load_sites(config, fetch)
    if submissions:
        _write_jsonl(out_dir / "submissions.jsonl", (r.to_json() for r in submissions))

    def process(site: CandidateSite) -> SiteOutcome:
        site_dir = out_dir / site.host
        site_dir.mkdir(parents=True, exist_ok=True)
        try:
            outcome, candidates = mine_site(
                site, lexicon, config, fetch, site_dir, binary_extractor
            )
            if not outcome.error:
                outcome.records = filter_candidates(
                    candidates, bitext_filter, lexicon, config, provider
                )
            _write_jsonl(site_dir / "filtered.jsonl", (r.to_json() for r in outcome.records))
        except Exception as err:  # per-site failures never abort the run
            logger.exception("site %s failed", site.host)
            outcome = SiteOutcome(host=site.host, source=site.source, error=str(err))
        return outcome

    jobs = max(1, config.pipeline.jobs)
    if jobs == 1:
        outcomes = [process(site) for site in sites]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(process, sites))

    # Global dedup with first-occurrence attribution back to the source.
    tagged: list[tuple[CorpusRecord, str]] = []
    for outcome in outcomes:
        for record in outcome.records:
            tagged.append((record, outcome.source))
    kept_sources: dict[int, str] = {}
    deduped: list[CorpusRecord] = []
    stream = dedupe((r for r, _ in tagged), exact=config.pipeline.dedup_exact)
    source_by_identity = {id(r): s for r, s in tagged}
    for record in stream:
        if record_filter is not None and not record_filter(record):
            continue
        deduped.append(record)
        kept_sources[id(record)] = source_by_identity[id(record)]

    corpus_jsonl = out_dir / "corpus.jsonl"
    corpus_tsv = out_dir / "corpus.tsv"
    _write_jsonl(corpus_jsonl, (r.to_json() for r in deduped))
    write_corpus_tsv(corpus_tsv, deduped)

    reports = _build_reports(outcomes, intake, deduped, kept_sources)
    report_json = out_dir / "report.json"
    report_tsv = out_dir / "report.tsv"
    report_json.write_bytes(emit_report(reports, "json"))
    report_tsv.write_bytes(emit_report(reports, "tsv"))

    site_errors = sum(1 for o in outcomes if o.error)
    return RunResult(
        output_dir=out_dir,
        reports=reports,
        n_records=len(deduped),
        site_errors=site_errors,
        corpus_jsonl=corpus_jsonl,
        corpus_tsv=corpus_tsv,
        report_json=report_json,
        report_tsv=report_tsv,
    )


def _build_reports(
    outcomes: list[SiteOutcome],
    intake: dict[str, int],
    deduped: list[CorpusRecord],
    kept_sources: dict[int, str],
) -> list[SiteReport]:
    reports: list[SiteReport] = []
    for source in (SOURCE_ARCHIVE, SOURCE_CROWD):
        source_outcomes = [o for o in outcomes if o.source == source]
        n_urls = intake.get(source, 0)
        if not source_outcomes and n_urls == 0:
            continue
        n_errors = sum(1 for o in source_outcomes if o.error)
        if source == SOURCE_CROWD:
            n_errors += intake.get("crowd_errors", 0)
        extracted_hosts = set()
        n_sentences = 0
        for record in deduped:
            if kept_sources.get(id(record)) == source:
                n_sentences += 1
        for outcome in source_outcomes:
            if any(id(r) in kept_sources for r in outcome.records):
                extracted_hosts.add(outcome.host)
        reports.append(
            SiteReport(
                source=SOURCE_LABELS.get(source, source),
                n_urls=n_urls,
                n_errors=n_errors,
                n_extracted=len(extracted_hosts),
                n_sentences=n_sentences,
            )
        )
    return reports


def write_corpus_tsv(path: str | Path, records: Iterable[CorpusRecord]) -> None:
    """The plain two-column corpus: ``ja<TAB>zh`` per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(f"{record.ja}\t{record.zh}\n")


def _write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _read_jsonl(path: str | Path) -> Iterator[dict]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
