"""The line files the miner writes are JSON Lines: unescaped UTF-8, one
object per line, each line ended by LF.  Its readers skip blank lines.
Each writer and reader here is one the miner itself uses."""

import json
import re

import pytest

from localmine import pipeline
from localmine.crawl import Page, PageStore, dump_snapshot
from localmine.discovery import SOURCE_CROWD, CandidateSite
from localmine.embeddings import FileVectorProvider, sentence_key, write_vector_file
from localmine.fetching import load_manifest
from localmine.jsonl import read_jsonl

JA = "学生は新聞を読む。"
ZH = "学生读报纸。"


class TestWriters:
    def test_run_checkpoint(self, tmp_path):
        path = tmp_path / "example.jp" / "filtered.jsonl"
        pipeline._write_jsonl(path, iter([{"ja": JA, "zh": ZH}, {"n": 1}]))
        assert path.read_bytes() == (
            '{"ja": "学生は新聞を読む。", "zh": "学生读报纸。"}\n{"n": 1}\n'.encode("utf-8")
        )

    def test_rows_that_fail_midway_leave_the_old_file(self, tmp_path):
        path = tmp_path / "example.jp" / "filtered.jsonl"

        def failing_rows():
            yield {"ja": JA, "zh": ZH}
            raise RuntimeError("row 2")

        for old in (None, b'{"n": 1}\n'):
            if old is not None:
                path.write_bytes(old)
            with pytest.raises(RuntimeError, match="row 2"):
                pipeline._write_jsonl(path, failing_rows())
            assert (path.read_bytes() if path.exists() else None) == old
            assert [p.name for p in path.parent.iterdir()] == ([] if old is None else [path.name])

    def test_snapshot_manifest(self, tmp_path):
        store = PageStore(host="例え.jp", pages=[
            Page("https://例え.jp/ページ.html", "text/html", b"<p>x</p>"),
            Page("https://例え.jp/a.pdf", "application/pdf", b"%PDF"),
        ])
        dump_snapshot(store, tmp_path / "pages")
        assert (tmp_path / "pages" / "manifest.jsonl").read_bytes() == (
            '{"file": "page0000.html", "url": "https://例え.jp/ページ.html", '
            '"content_type": "text/html"}\n'
            '{"file": "page0001.bin", "url": "https://例え.jp/a.pdf", '
            '"content_type": "application/pdf"}\n'
        ).encode("utf-8")

    def test_empty_snapshot_manifest(self, tmp_path):
        dump_snapshot(PageStore(host="例え.jp"), tmp_path / "pages")
        assert (tmp_path / "pages" / "manifest.jsonl").read_bytes() == b""

    def test_vector_file(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_vector_file(path, {ZH: [0.5, 1], JA: (0.25, -1.0)})
        assert path.read_bytes() == (
            f'{{"sha256": "{sentence_key(ZH)}", "vector": [0.5, 1]}}\n'
            f'{{"sha256": "{sentence_key(JA)}", "vector": [0.25, -1.0]}}\n'
        ).encode("utf-8")

    def test_vector_file_creates_parent_directories(self, tmp_path):
        path = tmp_path / "embed" / "vectors.jsonl"
        write_vector_file(path, {ZH: [1.0]})
        assert FileVectorProvider(path)([ZH]) == [[1.0]]


class TestReaders:
    def test_sites_skip_blank_lines(self, tmp_path):
        site = CandidateSite("例え.jp", ["https://例え.jp/"], SOURCE_CROWD)
        path = tmp_path / "sites.jsonl"
        path.write_text(
            "\n" + json.dumps(site.to_json(), ensure_ascii=False) + "\n\n  \n", encoding="utf-8"
        )
        assert pipeline.read_sites(path) == [site]

    def test_manifest_skips_blank_lines(self, tmp_path):
        entry = {"file": "page0000.html", "url": "https://例え.jp/", "content_type": "text/html"}
        (tmp_path / "manifest.jsonl").write_text(
            "\n" + json.dumps(entry, ensure_ascii=False) + "\n\n", encoding="utf-8"
        )
        assert load_manifest(tmp_path) == [entry]

    def test_vector_file_skips_blank_lines(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text(
            "\n" + json.dumps({"sha256": sentence_key(ZH), "vector": [0.5, 1]}) + "\n\n",
            encoding="utf-8",
        )
        assert FileVectorProvider(path)([ZH, JA]) == [[0.5, 1.0], None]

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null"])
    def test_a_line_that_is_not_an_object_names_its_file_and_line(self, tmp_path, line):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"n": 1}\n\n' + line + "\n", encoding="utf-8")
        rows = read_jsonl(path)
        assert next(rows) == {"n": 1}
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: not a JSON object$"):
            next(rows)
