import json
import logging

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

from sitegen import write_run_config


def record(ja, zh):
    return CorpusRecord(ja=ja, zh=zh, filter_score=0.9)


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
        assert [(r.ja, r.zh) for r in kept] == [("一。", "1。"), ("二。", "2。")]

    def test_merge_counts_what_each_input_kept(self, tmp_path):
        inputs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"]
        contents = [
            [record("一。", "1。"), record("二。", "2。")],
            [record("二。", "2。"), record("同じ", "同じ"), record("三。", "3。")],
            [],
        ]
        for path, rows in zip(inputs, contents):
            path.write_text("".join(json.dumps(r.to_json(), ensure_ascii=False) + "\n"
                                    for r in rows), encoding="utf-8")
        out, tsv = tmp_path / "corpus.jsonl", tmp_path / "corpus.tsv"
        assert merge_corpus(inputs, out, tsv) == [2, 1, 0]
        lines = [l for path in inputs[:2] for l in path.read_text(encoding="utf-8").splitlines()]
        assert out.read_text(encoding="utf-8").splitlines() == [lines[0], lines[1], lines[4]]
        assert tsv.read_text(encoding="utf-8") == "一。\t1。\n二。\t2。\n三。\t3。\n"


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


def _first_count_entry(model: dict) -> list:
    """``[context, row]`` of lm_ja's first order-1 context."""
    return model["lm_ja"]["counts"][1][0]


def _set_counts(model: dict, value) -> None:
    row = _first_count_entry(model)[1]
    row.update(dict.fromkeys(row, value))


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
        (lambda m: m["lm_ja"].update(counts=m["lm_ja"]["counts"][:2]), "count levels"),
        (lambda m: m["lm_ja"].update(k=0.0), "smoothing constant"),
        # the first tree's root splits on the column past the last feature
        (lambda m: m["forest"]["trees"][0].update(feature=len(m["forest"]["feature_means"])),
         "splits on feature"),
        (lambda m: m["forest"]["feature_stds"].pop(), "feature stds"),
        (lambda m: m["forest"].update(trees=[]), "forest has no trees"),
        (lambda m: _first_count_entry(m).__setitem__(1, [1]), "count row is a list"),
        (lambda m: _set_counts(m, 2.5), r"totals \d+\.\d+, not a positive integer"),
        (lambda m: _set_counts(m, "2"), "count that is not a number"),
        (lambda m: _set_counts(m, 0), "totals 0, not a positive integer"),
        (lambda m: _first_count_entry(m).__setitem__(1, {"a": 3, "b": -1}), "negative count"),
        (lambda m: m["table_j2z"]["entries"][0].__setitem__(2, [0.5]), r"\[0\.5\], not a number"),
    ], ids=["truncated-counts", "zero-k", "split-past-features", "short-stds", "no-trees",
            "row-list", "fractional-count", "string-count", "zero-total",
            "negative-count", "list-probability"])
    def test_malformed_model_stops_before_any_site(
        self, fixture_site, trained_filter, tmp_path, corrupt, message
    ):
        model = tmp_path / "model.json"
        trained_filter.save(model)
        payload = json.loads(model.read_text(encoding="utf-8"))
        corrupt(payload)
        model.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        config.filter.model_path = str(model)
        with pytest.raises(ValueError, match=message):
            run_pipeline(config)
        assert not (tmp_path / "out" / "example-news.jp").exists()

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
        config.pipeline.jobs = 1
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

    def test_jobs_parallelism_is_deterministic(self, fixture_site, tmp_path):
        config1 = load_config(write_run_config(fixture_site, tmp_path / "out1"))
        result1 = run_pipeline(config1)
        config2 = load_config(write_run_config(fixture_site, tmp_path / "out2"))
        config2.pipeline.jobs = 3
        result2 = run_pipeline(config2)
        assert result1.corpus_jsonl.read_bytes() == result2.corpus_jsonl.read_bytes()
        assert result1.report_tsv.read_bytes() == result2.report_tsv.read_bytes()


# The full default INI text, recorded before the `[crawler]` section
# became `CrawlBudget` and the defaults became the stage modules' named
# constants.  Refactoring the config classes keeps every key, its order
# and its default value.  The `[text]` section, the `[docalign]` weights
# and the `[sentalign]` priors are gone: no run set them, and their
# values are now constants of `text`, `docalign` and `sentalign`.
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
    "[docalign]",
    "min_score = 0.4",
    "lang_markers = ja,zh,jp,cn",
    "",
    "[sentalign]",
    "c = 1.0",
    "s2 = 6.8",
    "dict_weight = 3.0",
    "max_bead_cost = 10.0",
    "",
    "[filter]",
    "threshold = 0.5",
    "model_path = ",
    "train_corpus = ",
    "model1_iterations = 10",
    "lm_order = 5",
    "lm_k = 0.1",
    "trees = 100",
    "depth = 8",
    "embed_threshold = 0.7",
    "embed_vectors = ",
    "embed_endpoint = ",
    "embed_batch_size = 64",
    "",
    "[pipeline]",
    "output_dir = out",
    "seed = 0",
    "jobs = 1",
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
        assert config.sentalign.s2 == 6.8

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
        ],
    )
    def test_removed_key_fatal(self, tmp_path, section, key):
        path = tmp_path / "old.ini"
        path.write_text(f"[{section}]\n{key} = false\n", encoding="utf-8")
        # The whole [text] section is gone, so its error names the section.
        with pytest.raises(ValueError, match=r"section \[text\]" if section == "text" else key):
            load_config(path)

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
        assert "a forest needs at least one tree, not 0" in caplog.text
        assert not (tmp_path / "out" / "example-news.jp").exists()

    def test_dedup_never_overwrites_its_input(self, tmp_path, caplog):
        path = tmp_path / "filtered.jsonl"
        path.write_text(2 * (json.dumps(record("一。", "1。").to_json()) + "\n"), encoding="utf-8")
        before = path.read_bytes()
        out = str(tmp_path / "o.jsonl")
        for outputs in (["--out", str(path)], ["--out", out, "--tsv", str(path)]):
            assert cli_main(["dedup", "--input", str(path)] + outputs) == 1, outputs
            assert path.read_bytes() == before
        assert "a corpus output is also a merge input" in caplog.text

    def test_malformed_model_exits_without_traceback(self, tmp_path, caplog):
        model = tmp_path / "bad.json"
        model.write_text("[]", encoding="utf-8")
        pairs = tmp_path / "empty.jsonl"
        pairs.write_text("", encoding="utf-8")
        code = cli_main(["filter", "--model", str(model), "--pairs", str(pairs),
                         "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "filter model is a JSON list, not an object" in caplog.text
        assert "Traceback" not in caplog.text

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

# SHA-256 of the fixture's `train-filter` model, recorded while the
# language model still kept its contexts as tuples and `filtering` wrote
# every component's section.  The file format did not change.
PINNED_MODEL_DIGEST = "ff68f6363784a078d6444774a73c5c053ce08a353a0bd306b91dd5fe101e6c9b"


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
        from localmine.sentalign import BeadKind

        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        lexicon = pipeline.resolve_lexicon(config)
        fetch = pipeline.fetch_for(config)
        (site,) = pipeline.load_sites(config, fetch)[0]
        multi_sides = []
        extract_pairs = pipeline.extract_pairs

        def counting_extract(ladder, src, trg, max_cost):
            multi_sides.extend(
                (b.src_span[1] > 1) + (b.trg_span[1] > 1)
                for b in ladder.beads
                if b.kind not in (BeadKind.SUB, BeadKind.DEL) and b.cost <= max_cost
            )
            return extract_pairs(ladder, src, trg, max_cost=max_cost)

        monkeypatch.setattr(pipeline, "extract_pairs", counting_extract)
        outcome, candidates = pipeline.mine_site(
            site, lexicon, config.sentalign.length_model(), config, fetch
        )
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
