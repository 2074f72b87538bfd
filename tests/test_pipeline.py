import json

import pytest

from localmine.cli import main as cli_main
from localmine.config import dump_default_config, load_config
from localmine.pipeline import (
    CorpusRecord,
    SiteReport,
    dedupe,
    emit_report,
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
        assert len(list(dedupe(iter(rows), exact=True))) == 9000

    def test_approximate_mode(self):
        rows = [record(f"文{i}。", f"句{i}。") for i in range(500)]
        rows += rows[:100]
        assert len(list(dedupe(iter(rows), exact=False))) == 500

    def test_order_stable(self):
        rows = [record("一。", "1。"), record("二。", "2。"), record("一。", "1。")]
        kept = list(dedupe(rows))
        assert [(r.ja, r.zh) for r in kept] == [("一。", "1。"), ("二。", "2。")]


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

    def test_zero_sites(self, fixture_site, tmp_path):
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        config.pipeline.sites = str(tmp_path / "empty.jsonl")
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        result = run_pipeline(config)
        assert result.n_records == 0
        assert result.reports == []
        assert result.corpus_jsonl.read_text(encoding="utf-8") == ""

    def test_record_filter_hook(self, fixture_site, tmp_path):
        config = load_config(write_run_config(fixture_site, tmp_path / "out"))
        result = run_pipeline(config, record_filter=lambda r: "1" not in r.ja)
        for line in open(result.corpus_jsonl, encoding="utf-8"):
            assert "1" not in json.loads(line)["ja"]

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

    def test_binary_extractor_plugin(self, fixture_site, tmp_path, starter_lexicon):
        """A registered PDF extractor turns stored binary bodies into
        plain-text documents (empty structure digest)."""
        from localmine.config import PipelineConfig
        from localmine.crawl import Page, PageStore
        from localmine.pipeline import pages_to_documents

        store = PageStore(host="example-news.jp")
        store.pages.append(Page(
            "https://example-news.jp/ja/doc.pdf", "application/pdf",
            b"%PDF-stand-in", 0.0,
        ))
        docs_ja, docs_zh = pages_to_documents(
            store, starter_lexicon, PipelineConfig(),
            binary_extractor=lambda body, ctype: "これは抽出された日本語の文です。",
        )
        assert len(docs_ja) == 1 and docs_zh == []
        assert docs_ja[0].tag_digest == []
        assert docs_ja[0].sentences[0].tokens

    def test_embedding_gate_in_pipeline(self, fixture_site, tmp_path):
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
        result = run_pipeline(config)
        kept = [json.loads(l) for l in open(result.corpus_jsonl, encoding="utf-8")]
        assert kept
        covered_set = {tuple(p) for p in covered}
        for row in kept:
            assert row["embed_sim"] is not None and row["embed_sim"] >= 0.7
            assert (row["ja"], row["zh"]) in covered_set

    def test_jobs_parallelism_is_deterministic(self, fixture_site, tmp_path):
        config1 = load_config(write_run_config(fixture_site, tmp_path / "out1"))
        result1 = run_pipeline(config1)
        config2 = load_config(write_run_config(fixture_site, tmp_path / "out2"))
        config2.pipeline.jobs = 3
        result2 = run_pipeline(config2)
        assert result1.corpus_jsonl.read_bytes() == result2.corpus_jsonl.read_bytes()
        assert result1.report_tsv.read_bytes() == result2.report_tsv.read_bytes()


class TestConfig:
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
