import configparser
import json
import logging
import re
import tracemalloc

import pytest

from localmine.cli import main as cli_main
from localmine.config import dump_default_config, load_config
from localmine.pipeline import (
    CorpusRecord,
    SiteReport,
    dedupe,
    emit_report,
    filter_candidates,
    merge_corpus,
    run_pipeline,
)

from model_edits import FAULTS, edit_sections
from sitegen import write_run_config


def record(ja, zh):
    return CorpusRecord(ja=ja, zh=zh, filter_score=0.9).to_json()


class TestDedupe:
    def test_duplicate_dropped(self):
        records = [record("あ一", "一あ"), record("あ一", "一あ")]
        assert len(list(dedupe(records))) == 1

    def test_identical_sides_dropped(self):
        assert list(dedupe([record("同じ", "同じ")])) == []

    def test_planted_duplicate_counts(self):
        rows = []
        for i in range(9000):
            rows.append(record(f"文{i}。", f"句{i}。"))
        for i in range(1000):  # exact duplicates of the first thousand
            rows.append(record(f"文{i}。", f"句{i}。"))
        assert len(list(dedupe(iter(rows)))) == 9000

    def test_order_stable(self):
        rows = [record("一。", "1。"), record("二。", "2。"), record("一。", "1。")]
        kept = list(dedupe(rows))
        assert [(r["ja"], r["zh"]) for r in kept] == [("一。", "1。"), ("二。", "2。")]

    def test_merge_counts_what_each_input_kept(self, tmp_path):
        inputs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"]
        contents = [
            [record("一。", "1。"), record("二。", "2。")],
            [record("二。", "2。"), record("同じ", "同じ"), record("三。", "3。")],
            [],
        ]
        for path, rows in zip(inputs, contents):
            path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                                    for r in rows), encoding="utf-8")
        out, tsv = tmp_path / "corpus.jsonl", tmp_path / "corpus.tsv"
        assert merge_corpus(inputs, out, tsv) == [2, 1, 0]
        lines = [l for path in inputs[:2] for l in path.read_text(encoding="utf-8").splitlines()]
        assert out.read_text(encoding="utf-8").splitlines() == [lines[0], lines[1], lines[4]]
        assert tsv.read_text(encoding="utf-8") == "一。\t1。\n二。\t2。\n三。\t3。\n"

    def test_merge_peak_memory_grows_only_with_the_key_set(self, tmp_path):
        """32 copies of one checkpoint add no key to the dedup set, so
        the merge's peak stays where one copy puts it; a merge that held
        the rows it reads would grow 32-fold."""
        path = tmp_path / "filtered.jsonl"
        path.write_text("".join(
            json.dumps(CorpusRecord(
                ja=f"学生は新聞を{i}回読む。", zh=f"学生读了{i}次报纸。",
                src_url_ja=f"https://example.jp/ja/{i // 20}.html",
                src_url_zh=f"https://example.jp/zh/{i // 20}.html",
                doc_score=0.8, bead_cost=0.25, filter_score=0.9,
            ).to_json(), ensure_ascii=False) + "\n"
            for i in range(2000)
        ), encoding="utf-8")

        def merge_peak(copies):
            tracemalloc.start()
            try:
                kept = merge_corpus([path] * copies, tmp_path / "c.jsonl", tmp_path / "c.tsv")
                return tracemalloc.get_traced_memory()[1], kept
            finally:
                tracemalloc.stop()

        merge_peak(1)  # warm-up: first-call allocations
        peak_1, kept_1 = merge_peak(1)
        peak_32, kept_32 = merge_peak(32)
        assert kept_1 == [2000] and kept_32 == [2000] + [0] * 31
        assert peak_32 <= 1.1 * peak_1, (peak_1, peak_32)


class TestEmitReport:
    PAPER_ROWS = [
        SiteReport(source="Common Crawl", n_urls=40000, n_errors=19878,
                   n_extracted=5483, n_sentences=2786467),
        SiteReport(source="Crowdsourcing", n_urls=11184, n_errors=168,
                   n_extracted=8204, n_sentences=4602328),
    ]

    def test_published_comparison_rows_render_exactly(self):
        got = emit_report(self.PAPER_ROWS, "tsv").decode("utf-8").splitlines()
        assert got[1] == "Common Crawl\t40000\t19878\t20122\t5483 (0.272)\t2786467"
        assert got[2] == "Crowdsourcing\t11184\t168\t11016\t8204 (0.745)\t4602328"

    def test_conservation_invariant(self):
        for row in self.PAPER_ROWS:
            assert row.n_urls == row.n_errors + row.n_crawled

    def test_empty_set_is_header_only(self):
        got = emit_report([], "tsv").decode("utf-8")
        assert got == "source\t#URLs\t#errors\t#crawled\t#extracted (rate)\t#sentences\n"

    def test_json_format(self):
        rows = json.loads(emit_report(self.PAPER_ROWS, "json"))
        assert rows[0]["n_crawled"] == 20122
        assert rows[0]["extraction_rate"] == pytest.approx(0.2725)

    def test_markdown_format(self):
        text = emit_report(self.PAPER_ROWS, "markdown").decode("utf-8")
        assert text.startswith("| source |")
        assert "| Common Crawl | 40000 |" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")


class TestSiteReport:
    def test_rate_rounded_to_four_decimals(self):
        report = SiteReport(source="x", n_urls=3, n_errors=0, n_extracted=1)
        assert report.extraction_rate == pytest.approx(0.3333)

    def test_zero_crawled(self):
        report = SiteReport(source="x", n_urls=2, n_errors=2)
        assert report.extraction_rate == 0.0

    def test_json_roundtrip(self):
        report = SiteReport(source="x", n_urls=10, n_errors=1, n_extracted=4, n_sentences=77)
        again = SiteReport.from_json(report.to_json())
        assert again == report


def _lm_ja(sections: dict) -> dict:
    """lm_ja's arrays."""
    return sections["lm_ja"][1]


def _first_row_counts(sections: dict, value) -> None:
    """Set every count of lm_ja's first order-1 row to ``value``."""
    arrays = _lm_ja(sections)
    arrays["level1.counts"][(arrays["level1.ngrams"] >> 21) == 0] = value


def _retype(section: str, name: str, dtype: str):
    """An edit that stores array ``name`` of ``section`` as ``dtype``."""
    def edit(sections: dict) -> None:
        arrays = sections[section][1]
        arrays[name] = arrays[name].astype(dtype)
    return edit


def _forest_root(name: str, value_of):
    """An edit that sets the forest's ``name`` at its first root."""
    def edit(sections: dict) -> None:
        scalars, arrays = sections["forest"]
        arrays[name][arrays["roots"][0]] = value_of(scalars)
    return edit


class TestRunPipeline:
    def test_end_to_end_fixture(self, fixture_site, tmp_path):
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        result = run_pipeline(config)
        assert result.site_errors == 0
        assert result.n_records > 0
        (report,) = result.reports
        assert report.n_urls == report.n_errors + report.n_crawled
        assert report.n_extracted == 1
        # checkpoint layout: pages/, docpairs, ladder, raw and filtered pairs
        site_dir = result.output_dir / "example-news.jp"
        for name in ("pages/manifest.jsonl", "docpairs.jsonl", "ladder.tsv",
                     "raw_pairs.jsonl", "filtered.jsonl"):
            assert (site_dir / name).exists(), name
        # every record satisfies the configured thresholds
        for line in open(result.corpus_jsonl, encoding="utf-8"):
            row = json.loads(line)
            assert row["filter_score"] >= config.filter.threshold
            assert row["ja"] != row["zh"]

    @pytest.mark.parametrize("corrupt,message", [
        # lm_ja truncated to 2 of its 5 count levels
        (lambda m: [_lm_ja(m).pop(f"level{o}.{part}") for o in (2, 3, 4)
                    for part in ("contexts", "ngrams", "counts")], "count levels"),
        (lambda m: m["lm_ja"][0].update(k=0.0), "smoothing constant"),
        # the first tree's root splits on the column past the last feature
        (_forest_root("feature", lambda s: len(s["feature_means"])), "splits on feature"),
        (lambda m: m["forest"][0]["feature_stds"].pop(), "feature stds"),
        (lambda m: m["forest"][1].update(roots=m["forest"][1]["roots"][:0]),
         "forest has no trees"),
        (_retype("lm_ja", "level1.contexts", "<f8"),
         "section 'lm_ja': array 'level1.contexts' is <f8, not <i8"),
        (_retype("lm_ja", "level1.counts", "<f8"), "'level1.counts' is <f8, not <i8"),
        (_retype("lm_ja", "level1.counts", "<u4"), "'level1.counts' is <u4, not <i8"),
        (lambda m: _first_row_counts(m, 0), "counts total 0"),
        (lambda m: _lm_ja(m)["level1.counts"].__setitem__(0, -1), "negative count"),
        (_retype("table_j2z", "probs", "<i8"), "section 'table_j2z': array 'probs' is <i8"),
        ("version-1", "version 1 or 2\\), which is no longer read; retrain"),
        (lambda m: m.update(lm_zh=([], m["lm_zh"][1])),
         "section 'lm_zh' is missing or not an object"),
        (lambda m: _lm_ja(m).pop("vocabulary"), "section 'lm_ja' lacks the key 'vocabulary'"),
        (lambda m: m["forest"][1].pop("roots"), "section 'forest' lacks the key 'roots'"),
        (lambda m: m["forest"][0].update(n_trees=[5]), "section 'forest': int\\(\\) argument"),
        (_retype("forest", "left", "<f8"), "section 'forest': array 'left' is <f8, not <i8"),
        (lambda m: m["forest"][0].update(feature_means=1.0), "section 'forest': 'float' object"),
        (lambda m: m["lm_zh"][0].update(n=None), "section 'lm_zh': int\\(\\) argument"),
        (_retype("lm_ja", "vocabulary", "<f8"),
         "section 'lm_ja': array 'vocabulary' is <f8, not <u4"),
        (_retype("lm_ja", "vocabulary", "<i8"),
         "section 'lm_ja': array 'vocabulary' is <i8, not <u4"),
        (lambda m: _lm_ja(m)["vocabulary"].__setitem__(0, 0x110000),
         "section 'lm_ja': a vocabulary entry is not one character"),
    ], ids=["truncated-counts", "zero-k", "split-past-features", "short-stds", "no-trees",
            "row-list", "fractional-count", "string-count", "zero-total",
            "negative-count", "list-probability", "version-1", "section-list",
            "no-vocabulary-key", "no-trees-key", "int-trees", "int-tree", "float-means",
            "int-levels", "null-vocabulary", "int-vocabulary", "word-vocabulary"])
    def test_malformed_model_stops_before_any_site(
        self, fixture_site, trained_filter, tmp_path, corrupt, message
    ):
        model = tmp_path / "model.json"
        trained_filter.save(model)
        if corrupt == "version-1":
            model.write_text('{"version": 1}', encoding="utf-8")
        else:
            edit_sections(model, corrupt)
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        config.filter.model_path = str(model)
        with pytest.raises(ValueError, match=message):
            run_pipeline(config)
        assert not (tmp_path / "out").exists()

    def test_zero_sites(self, fixture_site, tmp_path):
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        config.pipeline.sites = str(tmp_path / "empty.jsonl")
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        result = run_pipeline(config)
        assert result.n_records == 0
        assert result.reports == []
        assert result.corpus_jsonl.read_text(encoding="utf-8") == ""

    def test_two_source_run_has_two_report_rows(self, fixture_site, tmp_path):
        # an archive-source site whose seed is absent from the snapshot
        # fails to crawl; the report keeps one row per source
        sites = tmp_path / "sites.jsonl"
        rows = [
            json.loads(fixture_site.sites_jsonl.read_text(encoding="utf-8")),
            {"host": "dead.example.org", "seed_urls": ["https://dead.example.org/"],
             "source": "archive", "balance": 0.5, "bytes_ja": 1, "bytes_zh": 1},
        ]
        sites.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
        )
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        config.pipeline.sites = str(sites)
        result = run_pipeline(config)
        assert result.site_errors == 1
        assert [r.source for r in result.reports] == ["Common Crawl", "Crowdsourcing"]
        archive_row = result.reports[0]
        assert (archive_row.n_urls, archive_row.n_errors, archive_row.n_crawled) == (1, 1, 0)
        assert archive_row.n_extracted == 0

    def test_failed_site_leaves_out_its_old_checkpoint(self, fixture_site, tmp_path, monkeypatch):
        # the site mined records in an earlier run into the same output
        # directory, then fails in this one: its filtered.jsonl is stale
        from localmine import pipeline

        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        assert run_pipeline(config).n_records > 0

        def failing_mine_site(site, *args, **kwargs):
            raise RuntimeError("site went away")

        monkeypatch.setattr(pipeline, "mine_site", failing_mine_site)
        result = run_pipeline(config)
        stale = result.output_dir / "example-news.jp" / "filtered.jsonl"
        assert stale.read_text(encoding="utf-8")
        assert (result.site_errors, result.n_records) == (1, 0)
        assert result.corpus_jsonl.read_text(encoding="utf-8") == ""
        assert result.corpus_tsv.read_text(encoding="utf-8") == ""
        (row,) = result.reports
        assert (row.n_errors, row.n_extracted, row.n_sentences) == (1, 0, 0)

    def test_no_site_records_outlive_the_site(self, fixture_site, tmp_path, monkeypatch):
        # with one worker, a site's records are freed before the next
        # site starts: the corpus is merged from the checkpoints
        import gc
        import weakref

        from localmine import pipeline

        sites = tmp_path / "sites.jsonl"
        rows = [
            json.loads(fixture_site.sites_jsonl.read_text(encoding="utf-8")),
            {"host": "dead.example.org", "seed_urls": ["https://dead.example.org/"],
             "source": "archive", "balance": 0.5, "bytes_ja": 1, "bytes_zh": 1},
        ]
        sites.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
        )
        refs: list[weakref.ref] = []
        alive_at_start: list[int] = []
        filter_candidates = pipeline.filter_candidates
        mine_site = pipeline.mine_site

        def tracking_filter(*args, **kwargs):
            records = filter_candidates(*args, **kwargs)
            refs.extend(weakref.ref(r) for r in records)
            return records

        def checking_mine_site(*args, **kwargs):
            gc.collect()
            alive_at_start.append(sum(ref() is not None for ref in refs))
            return mine_site(*args, **kwargs)

        monkeypatch.setattr(pipeline, "filter_candidates", tracking_filter)
        monkeypatch.setattr(pipeline, "mine_site", checking_mine_site)
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        config.pipeline.sites = str(sites)
        result = run_pipeline(config)
        assert result.n_records > 0 and len(refs) >= result.n_records
        assert alive_at_start == [0, 0]

    def test_mirror_site_records_go_to_the_first_site(self, fixture_site, tmp_path):
        # a second host crawling the same seeds mines the same pairs; dedup
        # keeps the first site's copy, so only that site counts as extracted
        original = json.loads(fixture_site.sites_jsonl.read_text(encoding="utf-8"))
        mirror = dict(original, host="mirror.example.org")
        sites = tmp_path / "sites.jsonl"
        sites.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in (original, mirror)),
            encoding="utf-8",
        )
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        config.pipeline.sites = str(sites)
        result = run_pipeline(config)
        assert result.site_errors == 0
        (row,) = result.reports
        assert (row.n_urls, row.n_extracted) == (2, 1)
        assert row.n_sentences == result.n_records > 0
        mirror_filtered = result.output_dir / "mirror.example.org" / "filtered.jsonl"
        assert mirror_filtered.read_text(encoding="utf-8")

    @pytest.mark.parametrize("content_type, url", [
        ("application/xhtml+xml", "https://example-news.jp/ja/page"),
        ("Text/HTML; charset=utf-8", "https://example-news.jp/ja/page"),
        ("", "https://example-news.jp/ja/page.html"),
    ])
    def test_every_html_content_type_form_is_one_document(self, content_type, url, starter_lexicon):
        """Each page the crawl stored as HTML, whatever form its type
        takes, becomes one segmented document."""
        from localmine.crawl import Page, PageStore
        from localmine.pipeline import pages_to_documents

        store = PageStore(host="example-news.jp")
        body = "<html><body><p>これは日本語の文です。</p></body></html>".encode("utf-8")
        store.pages.append(Page(url, content_type, body))
        docs_ja, docs_zh = pages_to_documents(store, starter_lexicon)
        assert len(docs_ja) == 1 and docs_zh == []
        assert docs_ja[0].sentences[0].tokens

    def test_equal_tokens_of_a_site_are_one_object(self, starter_lexicon):
        """The site's sentences share one ``str`` per distinct token, and
        each sentence keeps the tokens its segmentation gives."""
        from localmine.crawl import Page, PageStore
        from localmine.pipeline import pages_to_documents
        from localmine.text import LanguageTag, make_segmenter

        store = PageStore(host="example-news.jp")
        for i, text in enumerate(("学生は新聞を読む。学生は本を読む。", "先生は新聞を読む。")):
            body = f"<html><body><p>{text}</p></body></html>".encode("utf-8")
            store.pages.append(Page(f"https://example-news.jp/ja/{i}.html", "text/html", body))
        docs_ja, _ = pages_to_documents(store, starter_lexicon)
        sentences = [sentence for doc in docs_ja for sentence in doc.sentences]
        tokens = [token for sentence in sentences for token in sentence.tokens]
        shared: dict[str, str] = {}
        for token in tokens:
            assert shared.setdefault(token, token) is token
        assert len(shared) < len(tokens)
        segment = make_segmenter(starter_lexicon, LanguageTag.JA)
        assert [s.tokens for s in sentences] == [segment(s.text) for s in sentences]

    def test_embedding_gate_in_pipeline(self, fixture_site, tmp_path, caplog):
        from localmine.embeddings import write_vector_file

        # vectors exist only for the pairs of the first article; every
        # other candidate is dropped by the gate with a counted reason
        covered = fixture_site.true_pairs[:30]
        vectors = {}
        for ja, zh in covered:
            vectors[ja] = [1.0, 0.0]
            vectors[zh] = [0.95, 0.05]
        vector_path = tmp_path / "vectors.jsonl"
        write_vector_file(vector_path, vectors)

        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        config.filter.embed_vectors = str(vector_path)
        with caplog.at_level(logging.WARNING, logger="localmine.pipeline"):
            result = run_pipeline(config)
        kept = [json.loads(l) for l in open(result.corpus_jsonl, encoding="utf-8")]
        assert kept
        covered_set = {tuple(p) for p in covered}
        for row in kept:
            assert row["embed_sim"] is not None and row["embed_sim"] >= 0.7
            assert (row["ja"], row["zh"]) in covered_set
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "localmine.pipeline" and r.levelno == logging.WARNING]
        assert any("example-news.jp" in m and "embedding provider failed" in m
                   for m in warnings), warnings

    def test_gate_warning_names_each_count(self, fixture_site, tmp_path, caplog, monkeypatch):
        # The provider lacks a vector for one sentence and never fails.
        def provider(sentences):
            return [None] + [[1.0, 0.0]] * (len(sentences) - 1)

        monkeypatch.setattr("localmine.pipeline.resolve_provider", lambda config: provider)
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        with caplog.at_level(logging.WARNING, logger="localmine.pipeline"):
            run_pipeline(config)
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "localmine.pipeline" and r.levelno == logging.WARNING]
        assert warnings == [
            "site example-news.jp: embedding gate dropped 1 pairs with no vector "
            "and 0 pairs the embedding provider failed on"
        ]

    def test_failing_provider_counts_every_pair(self, fixture_site, starter_lexicon,
                                                trained_filter):
        from localmine.config import PipelineConfig

        def provider(sentences):
            raise ConnectionError("endpoint down")

        config = PipelineConfig()
        config.filter.threshold = 0.0  # every candidate reaches the gate
        candidates = [CorpusRecord(ja=ja, zh=zh) for ja, zh in fixture_site.true_pairs[:7]]
        counters = {}
        kept = filter_candidates(
            candidates, trained_filter, starter_lexicon, config, provider, counters=counters
        )
        assert kept == []
        assert counters == {"embed_failures": 7}


# The full default INI text, recorded before the `[crawler]` section
# became `CrawlBudget` and the defaults became the stage modules' named
# constants.  Refactoring the config classes keeps every key, its order
# and its default value.  The `[text]`, `[docalign]` and `[sentalign]`
# sections, the `[filter]` Model 1, language-model and forest settings
# and `[pipeline] jobs` are gone: no run set them.  Their values are now
# constants of `text`, `docalign`, `sentalign`, `model1`, `charlm` and
# `forest`, and sites are mined one after another.
DEFAULT_CONFIG_LINES = [
    "[discovery]",
    "min_bytes = 10000",
    "min_balance = 0.3",
    "limit = 1000",
    "",
    "[crawler]",
    "max_seconds = 172800",
    "max_pages = 10000",
    "max_bytes = 268435456",
    "per_host_delay_ms = 100",
    "timeout = 30.0",
    "",
    "[lexicon]",
    "dictionary = ",
    "char_map = ",
    "",
    "[filter]",
    "threshold = 0.5",
    "model_path = ",
    "train_corpus = ",
    "embed_threshold = 0.7",
    "embed_vectors = ",
    "embed_endpoint = ",
    "embed_batch_size = 64",
    "",
    "[pipeline]",
    "output_dir = out",
    "seed = 0",
    "sites = ",
    "submissions = ",
    "archive = ",
    "snapshot_dir = ",
    "",
]


class TestConfig:
    def test_default_config_text_is_pinned(self):
        assert dump_default_config() == "\n".join(DEFAULT_CONFIG_LINES)

    def test_default_config_dump_parses(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text(dump_default_config(), encoding="utf-8")
        config = load_config(path)
        assert config.filter.threshold == 0.5
        assert config.filter.embed_threshold == 0.7
        assert config.crawler.timeout == 30.0

    def test_unknown_key_fatal(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[filter]\nthresold = 0.4\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("sentalign", "banded"),
            ("sentalign", "refit"),
            ("filter", "embed_keep_below"),
            ("pipeline", "dedup_exact"),
            ("docalign", "weight_dict"),
            ("docalign", "weight_url"),
            ("docalign", "weight_struct"),
            ("docalign", "weight_len"),
            ("sentalign", "prior_one"),
            ("sentalign", "prior_del"),
            ("sentalign", "prior_sub"),
            ("sentalign", "prior_expand"),
            ("sentalign", "prior_contract"),
            ("sentalign", "prior_merge"),
            ("text", "kana_threshold"),
            ("text", "han_threshold"),
            ("docalign", "min_score"),
            ("docalign", "lang_markers"),
            ("sentalign", "c"),
            ("sentalign", "s2"),
            ("sentalign", "dict_weight"),
            ("sentalign", "max_bead_cost"),
            ("filter", "model1_iterations"),
            ("filter", "lm_order"),
            ("filter", "lm_k"),
            ("pipeline", "jobs"),
            ("filter", "trees"),
            ("filter", "depth"),
        ],
    )
    def test_removed_key_fatal(self, tmp_path, section, key):
        path = tmp_path / "old.ini"
        path.write_text(f"[{section}]\n{key} = false\n", encoding="utf-8")
        # The whole [text], [docalign] and [sentalign] sections are gone,
        # so their errors name the section.
        whole = section in ("text", "docalign", "sentalign")
        with pytest.raises(ValueError, match=rf"section \[{section}\]" if whole else key):
            load_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("filter", "threshold", 0.0), ("filter", "threshold", 1.0),
        ("filter", "embed_threshold", -1.0), ("filter", "embed_threshold", 1.0),
        ("filter", "embed_batch_size", 1),
        ("crawler", "max_seconds", 1), ("crawler", "max_pages", 1), ("crawler", "max_bytes", 1),
        ("crawler", "per_host_delay_ms", 0), ("crawler", "timeout", 1e-9),
    ])
    def test_range_boundaries_load(self, tmp_path, section, key, value):
        path = tmp_path / "edge.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        assert getattr(getattr(load_config(path), section), key) == value

    def test_every_key_parses_with_its_default_type(self):
        """``load_config`` parses a value with its default's type, which
        is exact for int, float and str but not for bool."""
        from dataclasses import fields

        from localmine.config import PipelineConfig

        config = PipelineConfig()
        for section in fields(config):
            target = getattr(config, section.name)
            for key in fields(target):
                value = getattr(target, key.name)
                assert type(value) in (int, float, str), (section.name, key.name)

    def test_unknown_section_fatal(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[flter]\nthreshold = 0.4\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_config(path)

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "none.ini")

    def test_overrides(self, tmp_path, fixture_site):
        path = write_run_config(fixture_site, tmp_path / "out", seed=5)
        config = load_config(path)
        assert config.pipeline.seed == 5
        assert config.crawler.per_host_delay_ms == 0


# Each value just outside its key's declared range, and the range.
_OUT_OF_RANGE = [
    ("filter", "threshold", "-0.1", "[0, 1]"),
    ("filter", "threshold", "1.5", "[0, 1]"),
    ("filter", "threshold", "inf", "[0, 1]"),
    ("filter", "embed_threshold", "-1.5", "[-1, 1]"),
    ("filter", "embed_threshold", "2.0", "[-1, 1]"),
    ("filter", "embed_batch_size", "0", "[1, inf)"),
    ("discovery", "min_balance", "0.0", "(0, 1]"),
    ("discovery", "min_balance", "1.5", "(0, 1]"),
    ("discovery", "limit", "0", "[1, inf)"),
    ("discovery", "min_bytes", "-1", "[0, inf)"),
    ("crawler", "max_seconds", "0", "[1, inf)"),
    ("crawler", "max_pages", "0", "[1, inf)"),
    ("crawler", "max_bytes", "-1", "[1, inf)"),
    ("crawler", "per_host_delay_ms", "-1", "[0, inf)"),
    ("crawler", "timeout", "0.0", "(0, inf)"),
    ("crawler", "timeout", "-1.0", "(0, inf)"),
    ("crawler", "timeout", "inf", "(0, inf)"),
]


_SEEDS = ["https://example-news.jp/"]
# A sites row and the error after "path:line: ".
_MALFORMED_SITES = [
    pytest.param({"seed_urls": _SEEDS, "source": "crowd"},
                 "'host' is missing or not a string", id="no-host"),
    pytest.param({"host": 5, "seed_urls": _SEEDS, "source": "crowd"},
                 "'host' is missing or not a string", id="number-host"),
    pytest.param({"host": "a.jp", "seed_urls": _SEEDS[0], "source": "crowd"},
                 "'seed_urls' is not a non-empty list of strings", id="string-seeds"),
    pytest.param({"host": "a.jp", "seed_urls": [], "source": "crowd"},
                 "'seed_urls' is not a non-empty list of strings", id="no-seeds"),
    pytest.param({"host": "a.jp", "seed_urls": [5], "source": "crowd"},
                 "'seed_urls' is not a non-empty list of strings", id="number-seed"),
    pytest.param({"host": "a.jp", "seed_urls": _SEEDS, "source": "manual"},
                 "'source' is neither 'archive' nor 'crowd'", id="manual-source"),
    pytest.param({"host": "a.jp", "seed_urls": _SEEDS, "source": "crowd", "balance": None},
                 "'balance' is not a finite number", id="null-balance"),
    pytest.param({"host": "a.jp", "seed_urls": _SEEDS, "source": "crowd", "bytes_ja": "x"},
                 "'bytes_ja' is not a finite number", id="string-bytes"),
    pytest.param({"host": "a.jp", "seed_urls": _SEEDS, "source": "crowd", "bytes_zh": True},
                 "'bytes_zh' is not a finite number", id="bool-bytes"),
    pytest.param({"host": "a.jp", "seed_urls": _SEEDS, "source": "crowd", "balance": [0.5]},
                 "'balance' is not a finite number", id="list-balance"),
    pytest.param({"host": "a.jp", "seed_urls": _SEEDS, "source": "crowd",
                  "bytes_ja": float("inf")},
                 "'bytes_ja' is not a finite number", id="infinite-bytes"),
    pytest.param({"host": "a.jp", "seed_urls": _SEEDS, "source": "crowd", "balance": 10**400},
                 "'balance' is not a finite number", id="overflowing-balance"),
]


class TestCli:
    def test_validate_urls(self, fixture_site, tmp_path, capsys):
        out = tmp_path / "sites.jsonl"
        rows_out = tmp_path / "rows.jsonl"
        code = cli_main([
            "--snapshot-dir", str(fixture_site.snapshot_dir),
            "validate-urls",
            "--submissions", str(fixture_site.submissions_tsv),
            "--out", str(out),
            "--rows-out", str(rows_out),
        ])
        assert code == 0
        rows = [json.loads(l) for l in open(rows_out, encoding="utf-8")]
        assert [r["status"] for r in rows] == ["ERROR", "ERROR", "VALID"]
        assert rows[0]["error"] == "WRONG_LANGUAGE"
        assert rows[1]["error"] == "SAME_URL"
        sites = [json.loads(l) for l in open(out, encoding="utf-8")]
        assert len(sites) == 1 and sites[0]["host"] == "example-news.jp"

    def test_validate_urls_creates_output_directory(self, fixture_site, tmp_path, capsys):
        out = tmp_path / "new" / "sites.jsonl"
        code = cli_main([
            "--snapshot-dir", str(fixture_site.snapshot_dir),
            "validate-urls",
            "--submissions", str(fixture_site.submissions_tsv),
            "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1
        capsys.readouterr()

    def test_discover_archive_directory_mode(self, fixture_site, tmp_path):
        out = tmp_path / "sites.jsonl"
        config = tmp_path / "cfg.ini"
        config.write_text("[discovery]\nmin_bytes = 1000\n", encoding="utf-8")
        code = cli_main([
            "--config", str(config),
            "discover-archive",
            "--archive", str(fixture_site.snapshot_dir),
            "--out", str(out),
        ])
        assert code == 0
        sites = [json.loads(l) for l in open(out, encoding="utf-8")]
        assert sites and sites[0]["host"] == "example-news.jp"
        assert sites[0]["source"] == "archive"
        assert sites[0]["balance"] > 0.3

    def test_train_filter_and_filter_and_dedup_and_report(self, fixture_site, tmp_path):
        model_path = tmp_path / "model.json"
        code = cli_main([
            "train-filter",
            "--parallel", str(fixture_site.train_tsv),
            "--out", str(model_path),
        ])
        assert code == 0 and model_path.exists()

        pairs_path = tmp_path / "raw.jsonl"
        rows = [
            {"ja": "学生は新聞を読む。", "zh": "学生读报纸。", "doc_score": 0.9, "bead_cost": 0.1},
            {"ja": "学生は新聞を読む。", "zh": "啊啊啊", "doc_score": 0.2, "bead_cost": 9.0},
        ]
        pairs_path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
        )
        filtered_path = tmp_path / "filtered.jsonl"
        code = cli_main([
            "filter",
            "--model", str(model_path),
            "--pairs", str(pairs_path),
            "--out", str(filtered_path),
        ])
        assert code == 0
        kept = [json.loads(l) for l in open(filtered_path, encoding="utf-8")]
        assert [k["ja"] for k in kept] == ["学生は新聞を読む。"]

        double = tmp_path / "doubled.jsonl"
        double.write_text(
            filtered_path.read_text(encoding="utf-8") * 2, encoding="utf-8"
        )
        deduped = tmp_path / "dedup.jsonl"
        tsv = tmp_path / "corpus.tsv"
        code = cli_main([
            "dedup", "--input", str(double), "--out", str(deduped), "--tsv", str(tsv),
        ])
        assert code == 0
        assert len(deduped.read_text(encoding="utf-8").splitlines()) == 1
        assert tsv.read_text(encoding="utf-8").count("\t") == 1

    def test_report_command(self, tmp_path, capsys):
        report_rows = [
            SiteReport(source="Common Crawl", n_urls=40000, n_errors=19878,
                       n_extracted=5483, n_sentences=2786467).to_json(),
            SiteReport(source="Crowdsourcing", n_urls=11184, n_errors=168,
                       n_extracted=8204, n_sentences=4602328).to_json(),
        ]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report_rows), encoding="utf-8")
        code = cli_main(["report", "--input", str(path), "--format", "tsv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "5483 (0.272)" in out
        assert "8204 (0.745)" in out

    def test_run_command(self, fixture_site, tmp_path, capsys):
        config = write_run_config(fixture_site, tmp_path / "out")
        code = cli_main(["--config", str(config), "run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "records ->" in out

    def test_fatal_config_error_exit_code(self, tmp_path):
        code = cli_main(["--config", str(tmp_path / "missing.ini"), "run"])
        assert code == 1

    @pytest.mark.parametrize("command", ["run", "mine"])
    @pytest.mark.parametrize("key, value", [("c", "0"), ("s2", "0"), ("c", "nan"), ("s2", "nan")],
                             ids=["c", "s2", "c-nan", "s2-nan"])
    def test_bad_length_model_stops_before_any_site(
        self, fixture_site, tmp_path, key, value, command
    ):
        """A config that sets the length model, which is no longer
        configurable, stops both commands before any site."""
        config = tmp_path / "run.ini"
        config.write_text(
            write_run_config(fixture_site, tmp_path / "out").read_text(encoding="utf-8")
            + f"[sentalign]\n{key} = {value}\n",
            encoding="utf-8",
        )
        argv = {"run": ["run"],
                "mine": ["mine", "--sites", str(fixture_site.sites_jsonl),
                         "--out-dir", str(tmp_path / "out")]}[command]
        assert cli_main(["--config", str(config)] + argv) == 1
        assert not (tmp_path / "out" / "example-news.jp").exists()

    @pytest.mark.parametrize("command", ["run", "mine"])
    @pytest.mark.parametrize("section, key, value, interval", _OUT_OF_RANGE,
                             ids=[f"{key}={value}" for _, key, value, _ in _OUT_OF_RANGE])
    def test_out_of_range_value_stops_before_any_site(
        self, fixture_site, tmp_path, caplog, section, key, value, interval, command
    ):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(write_run_config(fixture_site, tmp_path / "out"), encoding="utf-8")
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
        config = tmp_path / "run.ini"
        with open(config, "w", encoding="utf-8") as fh:
            parser.write(fh)
        argv = {"run": ["run"],
                "mine": ["mine", "--sites", str(fixture_site.sites_jsonl),
                         "--out-dir", str(tmp_path / "out")]}[command]
        assert cli_main(["--config", str(config)] + argv) == 1
        (error,) = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert error.getMessage() == (
            f"key {key!r} in section [{section}] is {value}, outside {interval}"
        )
        assert error.exc_info is None
        assert not (tmp_path / "out").exists()

    def test_zero_jobs_flag_stops_before_any_site(self, fixture_site, tmp_path, capsys):
        # --jobs is gone: argparse rejects it before any work.
        config = write_run_config(fixture_site, tmp_path / "out")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--config", str(config), "--jobs", "0", "run"])
        assert exit_info.value.code == 2
        assert "localmine: error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing", ["sites", "archive"])
    def test_failed_intake_stops_before_any_output(self, fixture_site, tmp_path, caplog,
                                                   missing):
        config = tmp_path / "run.ini"
        config.write_text(
            "[pipeline]\n"
            f"output_dir = {tmp_path / 'out'}\n"
            f"{missing} = {tmp_path / 'absent'}\n"
            f"[filter]\ntrain_corpus = {fixture_site.train_tsv}\n",
            encoding="utf-8",
        )
        assert cli_main(["--config", str(config), "run"]) == 1
        (error,) = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert str(tmp_path / "absent") in error.getMessage()
        assert error.exc_info is None
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "crawl", "mine"])
    @pytest.mark.parametrize("row, message", _MALFORMED_SITES)
    def test_malformed_sites_row_stops_before_any_site(
        self, fixture_site, trained_filter, tmp_path, caplog, row, message, command
    ):
        # A good site first: no command may mine it before reading line 3.
        sites = tmp_path / "sites.jsonl"
        sites.write_text(fixture_site.sites_jsonl.read_text(encoding="utf-8") + "\n"
                         + json.dumps(row) + "\n", encoding="utf-8")
        model = tmp_path / "model.bin"
        trained_filter.save(model)
        config = tmp_path / "run.ini"
        config.write_text(
            "[pipeline]\n"
            f"output_dir = {tmp_path / 'out'}\n"
            f"sites = {sites}\n"
            f"snapshot_dir = {fixture_site.snapshot_dir}\n"
            f"[filter]\nmodel_path = {model}\n",
            encoding="utf-8",
        )
        argv = [command] if command == "run" else \
            [command, "--sites", str(sites), "--out-dir", str(tmp_path / "out")]
        assert cli_main(["--config", str(config)] + argv) == 1
        (error,) = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert error.getMessage() == f"{sites}:3: {message}"
        assert error.exc_info is None
        assert not (tmp_path / "out").exists()

    def test_malformed_sites_row_stops_before_the_filter_trains(
        self, fixture_site, tmp_path, caplog, monkeypatch
    ):
        from localmine import pipeline

        def no_training(*args, **kwargs):
            raise AssertionError("the filter trained before the sites file was read")

        monkeypatch.setattr(pipeline, "train_filter", no_training)
        sites = tmp_path / "sites.jsonl"
        sites.write_text(fixture_site.sites_jsonl.read_text(encoding="utf-8") + "\n"
                         + json.dumps({"host": "a.jp", "seed_urls": _SEEDS, "source": "crowd",
                                       "balance": None}) + "\n", encoding="utf-8")
        config = tmp_path / "run.ini"
        config.write_text(
            "[pipeline]\n"
            f"output_dir = {tmp_path / 'out'}\n"
            f"sites = {sites}\n"
            f"snapshot_dir = {fixture_site.snapshot_dir}\n"
            f"[filter]\ntrain_corpus = {fixture_site.train_tsv}\n",
            encoding="utf-8",
        )
        assert cli_main(["--config", str(config), "run"]) == 1
        (error,) = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert error.getMessage() == f"{sites}:3: 'balance' is not a finite number"
        assert error.exc_info is None
        assert not (tmp_path / "out").exists()

    def test_nan_threshold_stops_before_any_site(self, fixture_site, tmp_path, caplog):
        config = tmp_path / "run.ini"
        config.write_text(  # the fixture config ends in its [filter] section
            write_run_config(fixture_site, tmp_path / "out").read_text(encoding="utf-8")
            + "threshold = nan\n",
            encoding="utf-8",
        )
        assert cli_main(["--config", str(config), "run"]) == 1
        assert "key 'threshold' in section [filter] is NaN" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("[filter]\nthreshold = 0.4\n[filter]\ndepth = 3\n", "section 'filter' already exists"),
        ("threshold = 0.4\n[filter]\n", "File contains no section headers"),
    ], ids=["duplicate-section", "key-before-header"])
    def test_malformed_config_is_one_error(self, tmp_path, caplog, text, message):
        config = tmp_path / "bad.ini"
        config.write_text(text, encoding="utf-8")
        assert cli_main(["--config", str(config), "run"]) == 1
        (error,) = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert error.getMessage().startswith(f"malformed config file {config}: ")
        assert message in error.getMessage()
        assert "\n" not in error.getMessage()
        assert error.exc_info is None

    def test_zero_trees_stops_before_any_site(self, fixture_site, tmp_path, caplog):
        config = tmp_path / "run.ini"
        config.write_text(  # the fixture config ends in its [filter] section
            write_run_config(fixture_site, tmp_path / "out").read_text(encoding="utf-8")
            + "trees = 0\n",
            encoding="utf-8",
        )
        assert cli_main(["--config", str(config), "run"]) == 1
        # [filter] trees is gone; ``train_filter`` still checks its own
        # ``trees`` (TestTrainFilter).
        assert "unknown key 'trees' in section [filter]" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_dedup_never_overwrites_its_input(self, tmp_path, caplog):
        path = tmp_path / "filtered.jsonl"
        path.write_text(2 * (json.dumps(record("一。", "1。")) + "\n"), encoding="utf-8")
        before = path.read_bytes()
        out = str(tmp_path / "o.jsonl")
        for outputs in (["--out", str(path)], ["--out", out, "--tsv", str(path)]):
            assert cli_main(["dedup", "--input", str(path)] + outputs) == 1, outputs
            assert path.read_bytes() == before
        assert "a corpus output is also a merge input" in caplog.text

    @pytest.mark.parametrize(
        "content", [None, '{"ja": "一。", "zh": "1。"}\n{"ja": \n'], ids=["missing", "malformed"]
    )
    def test_dedup_of_a_bad_input_leaves_its_outputs(self, tmp_path, caplog, content):
        """A missing input, or one malformed after a good row, exits 1
        and leaves each output as it was: absent, or its old bytes."""
        path = tmp_path / "filtered.jsonl"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        out, tsv = tmp_path / "o.jsonl", tmp_path / "o.tsv"
        args = ["dedup", "--input", str(path), "--out", str(out), "--tsv", str(tsv)]
        assert cli_main(args) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["filtered.jsonl"] if content is not None else []
        )
        out.write_bytes(b"old corpus\n")
        tsv.write_bytes(b"old\ttsv\n")
        assert cli_main(args) == 1
        assert out.read_bytes() == b"old corpus\n" and tsv.read_bytes() == b"old\ttsv\n"
        assert not list(tmp_path.glob("*.partial"))
        assert "Traceback" not in caplog.text

    def test_dedup_copies_rows_as_they_are(self, tmp_path, capsys):
        """A row passes with its extra keys and values unrounded; no
        missing key is filled in."""
        rows = [
            {"zh": "1。", "ja": "一。", "doc_score": 0.123456789, "extra": [1, None]},
            {"ja": "一。", "zh": "1。", "doc_score": 0.5},
            {"ja": "二。", "zh": "2。"},
        ]
        path = tmp_path / "filtered.jsonl"
        path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
        )
        out = tmp_path / "o.jsonl"
        assert cli_main(["dedup", "--input", str(path), "--out", str(out)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert out.read_text(encoding="utf-8").splitlines() == [lines[0], lines[2]]
        assert capsys.readouterr().out == f"2 records -> {out}\n"

    @pytest.mark.parametrize("content,message", [
        ('{"ja": "一。", "zh": "1。"}\n[1, 2]\n', r"filtered\.jsonl:2: not a JSON object"),
        ('{"ja": "一。", "zh": "1。"}\n{"ja": "二。"}\n', "corpus row has no 'zh' key"),
        ('{"zh": "1。"}\n', "corpus row has no 'ja' key"),
    ], ids=["not-an-object", "no-zh", "no-ja"])
    def test_dedup_of_a_row_it_cannot_key(self, tmp_path, caplog, content, message):
        """A line that is not an object, or a row without ``ja`` or
        ``zh``, exits 1 with a one-line error and writes no output."""
        path = tmp_path / "filtered.jsonl"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert cli_main(["dedup", "--input", str(path), "--out", str(out)]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert re.fullmatch(f".*{message}", error)
        assert "Traceback" not in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["filtered.jsonl"]

    def test_version_1_model_stops_filter_and_run(self, fixture_site, tmp_path, caplog):
        """A version-1 model file exits 1 with a one-line error, before
        ``run`` makes its output directory."""
        model = tmp_path / "v1.json"
        model.write_text('{"version": 1}', encoding="utf-8")
        pairs = tmp_path / "empty.jsonl"
        pairs.write_text("", encoding="utf-8")
        assert cli_main(["filter", "--model", str(model), "--pairs", str(pairs),
                         "--out", str(tmp_path / "o.jsonl")]) == 1
        config = tmp_path / "run.ini"
        config.write_text(  # the fixture config ends in its [filter] section
            write_run_config(fixture_site, tmp_path / "out").read_text(encoding="utf-8")
            + f"model_path = {model}\n",
            encoding="utf-8",
        )
        assert cli_main(["--config", str(config), "run"]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["filter model is a JSON file (version 1 or 2), which is no longer "
                          "read; retrain it with `localmine train-filter`"] * 2
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "o.jsonl").exists()

    def test_malformed_model_exits_without_traceback(self, tmp_path, caplog):
        from localmine.modelfile import MAGIC

        model = tmp_path / "bad.json"
        pairs = tmp_path / "empty.jsonl"
        pairs.write_text("", encoding="utf-8")
        for content, message in (
            (b"[]", "filter model does not start with 'localmine-filter '"),
            (b"null", "filter model does not start with 'localmine-filter '"),
            (MAGIC + b"[]\n", "filter model header is not a JSON object"),
            (MAGIC + b"null\n", "filter model header is not a JSON object"),
            (MAGIC + b"[" * 5000 + b"\n", "filter model header nests too deeply"),
        ):
            caplog.clear()
            model.write_bytes(content)
            code = cli_main(["filter", "--model", str(model), "--pairs", str(pairs),
                             "--out", str(tmp_path / "o.jsonl")])
            assert code == 1, content
            assert [r.getMessage() for r in caplog.records] == [message]
            assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("fault", FAULTS, ids=list(FAULTS))
    def test_hostile_model_file_stops_filter_and_run(
        self, fixture_site, trained_filter, tmp_path, caplog, fault
    ):
        """Each hostile model file exits ``filter`` and ``run`` with code 1
        and one line, no traceback, and no output file or directory."""
        model = tmp_path / "model.json"
        trained_filter.save(model)
        make, message = FAULTS[fault]
        make(model)
        pairs = tmp_path / "empty.jsonl"
        pairs.write_text("", encoding="utf-8")
        assert cli_main(["filter", "--model", str(model), "--pairs", str(pairs),
                         "--out", str(tmp_path / "o.jsonl")]) == 1
        config = tmp_path / "run.ini"
        config.write_text(
            write_run_config(fixture_site, tmp_path / "out").read_text(encoding="utf-8")
            + f"model_path = {model}\n",
            encoding="utf-8",
        )
        assert cli_main(["--config", str(config), "run"]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 2 and errors[0] == errors[1]
        assert re.search(message, errors[0]) and "\n" not in errors[0]
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("row,message", [
        ('{"ja": 5, "zh": "你好"}', "candidate pair row's 'ja' is a int, not a string"),
        ('{"zh": "你好"}', "candidate pair row lacks the key 'ja'"),
    ], ids=["int-ja", "no-ja"])
    def test_malformed_raw_pair_row_stops_filter(self, trained_filter, tmp_path, caplog,
                                                 row, message):
        model = tmp_path / "model.json"
        trained_filter.save(model)
        pairs = tmp_path / "raw_pairs.jsonl"
        pairs.write_text('{"ja": "学生", "zh": "学生"}\n' + row + "\n", encoding="utf-8")
        assert cli_main(["filter", "--model", str(model), "--pairs", str(pairs),
                         "--out", str(tmp_path / "o.jsonl")]) == 1
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [message]
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "o.jsonl").exists()

    def test_site_errors_exit_code(self, fixture_site, tmp_path, capsys):
        sites = tmp_path / "sites.jsonl"
        rows = [
            json.loads(fixture_site.sites_jsonl.read_text(encoding="utf-8")),
            {"host": "dead.example.org", "seed_urls": ["https://dead.example.org/"],
             "source": "archive"},
        ]
        sites.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
        )
        config_path = tmp_path / "run.ini"
        config_path.write_text(
            "[pipeline]\n"
            f"output_dir = {tmp_path / 'out'}\n"
            f"sites = {sites}\n"
            f"snapshot_dir = {fixture_site.snapshot_dir}\n"
            "[crawler]\nper_host_delay_ms = 0\n"
            f"[filter]\ntrain_corpus = {fixture_site.train_tsv}\n",
            encoding="utf-8",
        )
        code = cli_main(["--config", str(config_path), "run"])
        assert code == 2
        capsys.readouterr()

    def test_mine_subcommand(self, fixture_site, tmp_path):
        code = cli_main([
            "--snapshot-dir", str(fixture_site.snapshot_dir),
            "mine",
            "--sites", str(fixture_site.sites_jsonl),
            "--out-dir", str(tmp_path / "mined"),
        ])
        assert code == 0
        raw = tmp_path / "mined" / "example-news.jp" / "raw_pairs.jsonl"
        assert raw.exists()
        assert len(raw.read_text(encoding="utf-8").splitlines()) >= 150

    def test_crawl_subcommand(self, fixture_site, tmp_path):
        code = cli_main([
            "--snapshot-dir", str(fixture_site.snapshot_dir),
            "crawl",
            "--sites", str(fixture_site.sites_jsonl),
            "--out-dir", str(tmp_path / "crawled"),
        ])
        assert code == 0
        manifest = tmp_path / "crawled" / "example-news.jp" / "pages" / "manifest.jsonl"
        assert manifest.exists()

    def test_stages_compose_to_run(self, fixture_site, tmp_path, capsys):
        """train-filter -> mine -> filter -> dedup under the run's config
        reproduce the run's checkpoints and corpus byte for byte."""
        config = str(write_run_config(fixture_site, tmp_path / "run"))
        assert cli_main(["--config", config, "run"]) == 0
        model = tmp_path / "model.json"
        mined = tmp_path / "mined"
        filtered = tmp_path / "filtered.jsonl"
        corpus = tmp_path / "corpus.jsonl"
        raw = mined / "example-news.jp" / "raw_pairs.jsonl"
        for argv in (
            ["train-filter", "--parallel", str(fixture_site.train_tsv), "--out", str(model)],
            ["mine", "--sites", str(fixture_site.sites_jsonl), "--out-dir", str(mined)],
            ["filter", "--model", str(model), "--pairs", str(raw), "--out", str(filtered)],
            ["dedup", "--input", str(filtered), "--out", str(corpus)],
        ):
            assert cli_main(["--config", config] + argv) == 0, argv
        capsys.readouterr()
        site_dir = tmp_path / "run" / "example-news.jp"
        for name in ("docpairs.jsonl", "ladder.tsv", "raw_pairs.jsonl"):
            assert (mined / "example-news.jp" / name).read_bytes() == (site_dir / name).read_bytes()
        assert filtered.read_bytes() == (site_dir / "filtered.jsonl").read_bytes()
        assert corpus.read_bytes() == (tmp_path / "run" / "corpus.jsonl").read_bytes()


# SHA-256 of the fixture `run` outputs, recorded before the sentence DP
# moved to per-call match tables and edit distance to bit vectors.  A
# kernel rewrite must keep every byte; a change that means to alter the
# outputs updates these digests and says why.
PINNED_DIGESTS = {
    "corpus.jsonl": "8fe72d5bd71706c7e8dcb9bb52f6934622f5e908ebf0a3a9d9b76872d6eb7906",
    "corpus.tsv": "b6a8b1550fb998d02498a97faf7069e33d09a5c19f9c5628f7a727e180875dfe",
    "report.json": "f1e9dd6cb4c3a02e2ddc022d7a816377ce2a437aeb52c7296d289b8ea2768ad2",
    "report.tsv": "ecbcf787c85f222250bdb8f2028a8514415ea628b30bfa64ce589fc3272c2cf2",
    "example-news.jp/docpairs.jsonl":
        "edb6989e8733ac9c8b57b31c810e0293512adc88ae745bcd6ee6087c9e21c672",
    "example-news.jp/ladder.tsv":
        "ee3f45f119a1e8cc8ac6811486cf94be425c4fc118f4fc1c00f18941561790b0",
    "example-news.jp/raw_pairs.jsonl":
        "312eb6b7dd9fdf8b48a83b9424febd46c2cf8bb6465982886f7904588f1b1367",
    "example-news.jp/filtered.jsonl":
        "4c6770016fc5bf0e2d6fb222d25248fdee370ae8381a56b38b0feb698e501540",
}

# SHA-256 of the fixture's `train-filter` model in the raw-array layout
# of model version 3, recorded when it replaced version 2's JSON columns
# (digest 6b703aa8...2cf331, itself re-pinned from 457e3568...7e837ee
# when the unread top-level `seed` and `threshold` keys were dropped, and
# from version 1's ff68f636...e6c9b).  The model it holds did not
# change: version 2's fixture model loaded by the version-2 reader and
# this file loaded by the version-3 reader give equal Model 1 `t` dicts
# (float bits, row order and ranked targets included), equal language
# model levels (every array's bytes) and equal forest arrays.
PINNED_MODEL_DIGEST = "761d669e9b3df426b314068ee7c8520dead97de8963524f9218027335818b4b5"


class TestPinnedOutputs:
    def test_fixture_run_bytes(self, fixture_site, tmp_path, capsys):
        import hashlib

        out_dir = tmp_path / "out"
        config = write_run_config(fixture_site, out_dir, snapshot_in_config=False)
        assert cli_main([
            "--config", str(config),
            "--snapshot-dir", str(fixture_site.snapshot_dir),
            "run",
        ]) == 0
        capsys.readouterr()
        got = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in PINNED_DIGESTS
        }
        assert got == PINNED_DIGESTS

    def test_fixture_model_bytes(self, fixture_site, tmp_path, capsys):
        import hashlib

        config = write_run_config(fixture_site, tmp_path / "run")
        model = tmp_path / "model.json"
        assert cli_main([
            "--config", str(config),
            "train-filter", "--parallel", str(fixture_site.train_tsv), "--out", str(model),
        ]) == 0
        capsys.readouterr()
        assert hashlib.sha256(model.read_bytes()).hexdigest() == PINNED_MODEL_DIGEST


class TestFilterTokens:
    """``filter_candidates`` reuses the tokens mining carried on a
    candidate and segments only the sides that carry none."""

    def _mine(self, fixture_site, tmp_path, monkeypatch):
        from localmine import pipeline
        from localmine.sentalign import DEFAULT_MAX_BEAD_COST, BeadKind

        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        lexicon = pipeline.resolve_lexicon(config)
        fetch = pipeline.fetch_for(config)
        (site,) = pipeline.load_sites(config, fetch, pipeline.listed_sites(config))[0]
        multi_sides = []
        extract_pairs = pipeline.extract_pairs

        def counting_extract(ladder, src, trg, max_cost=DEFAULT_MAX_BEAD_COST):
            multi_sides.extend(
                (b.src_span[1] > 1) + (b.trg_span[1] > 1)
                for b in ladder.beads
                if b.kind not in (BeadKind.SUB, BeadKind.DEL) and b.cost <= max_cost
            )
            return extract_pairs(ladder, src, trg, max_cost=max_cost)

        monkeypatch.setattr(pipeline, "extract_pairs", counting_extract)
        outcome, candidates = pipeline.mine_site(site, lexicon, config, fetch, tmp_path / "site")
        assert not outcome.error and candidates
        return config, lexicon, candidates, sum(multi_sides)

    def test_carried_tokens_equal_segmentation(self, fixture_site, tmp_path, monkeypatch):
        from localmine.text import LanguageTag, make_segmenter

        _, lexicon, candidates, n_multi = self._mine(fixture_site, tmp_path, monkeypatch)
        seg_ja = make_segmenter(lexicon, LanguageTag.JA)
        seg_zh = make_segmenter(lexicon, LanguageTag.ZH)
        missing = 0
        for c in candidates:
            for text, tokens, segment in ((c.ja, c.tokens_ja, seg_ja), (c.zh, c.tokens_zh, seg_zh)):
                if tokens is None:
                    missing += 1
                else:
                    assert tokens == segment(text)
        assert missing == n_multi

    def test_segments_only_multi_sentence_sides(self, fixture_site, tmp_path, monkeypatch,
                                                trained_filter):
        from localmine import pipeline

        config, lexicon, candidates, n_multi = self._mine(fixture_site, tmp_path, monkeypatch)
        assert n_multi > 0  # the fixture site has merged beads
        stripped = [CorpusRecord.from_raw_json(c.to_raw_json()) for c in candidates]
        calls = []
        make_segmenter = pipeline.make_segmenter

        def counting_make_segmenter(lexicon, lang):
            segment = make_segmenter(lexicon, lang)
            return lambda text: calls.append(text) or segment(text)

        monkeypatch.setattr(pipeline, "make_segmenter", counting_make_segmenter)
        kept = filter_candidates(candidates, trained_filter, lexicon, config, None)
        assert len(calls) == n_multi
        assert all(c.tokens_ja is None and c.tokens_zh is None for c in candidates)

        # Rows read back without tokens (the CLI ``filter`` stage) are
        # segmented on both sides and score the same.
        calls.clear()
        kept_again = filter_candidates(stripped, trained_filter, lexicon, config, None)
        assert len(calls) == 2 * len(stripped)
        assert [c.filter_score for c in stripped] == [c.filter_score for c in candidates]
        assert [r.to_json() for r in kept_again] == [r.to_json() for r in kept]
        assert all(type(c.filter_score) is float for c in candidates)

    def test_empty_site_calls_no_scorer(self, starter_lexicon):
        from localmine.config import PipelineConfig

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"{name} reached on an empty site")

        def provider(sentences):
            raise AssertionError("provider called on an empty site")

        assert filter_candidates(
            [], Untouchable(), starter_lexicon, PipelineConfig(), provider
        ) == []
