import random

import pytest

from localmine.config import PipelineConfig
from localmine.discovery import (
    ERR_SAME_URL,
    ERR_WRONG_LANGUAGE,
    HostStats,
    ingest_url_pairs,
    iter_directory_records,
    iter_warc_records,
    scan_archive,
    select_balanced_hosts,
    write_warc,
)
from localmine.fetching import FetchResponse
from localmine.pipeline import discover_archive


def ja_page(chars=500):
    body = "これは日本語の文章です。" * (chars // 12 + 1)
    return f"<html><body><p>{body[:chars]}</p></body></html>".encode("utf-8")


def zh_page(chars=500):
    body = "这是一个中文的句子。" * (chars // 10 + 1)
    return f"<html><body><p>{body[:chars]}</p></body></html>".encode("utf-8")


class TestScanArchive:
    def test_single_host_accumulation(self):
        records = [
            ("https://a.example.com/1", ja_page(1000)),
            ("https://a.example.com/2", ja_page(1000)),
            ("https://a.example.com/3", zh_page(1500)),
        ]
        scan = scan_archive(records)
        stats = scan.hosts["example.com"]
        assert stats.page_count == 3
        assert stats.bytes_ja > 0 and stats.bytes_zh > 0
        assert stats.bytes_ja > stats.bytes_zh  # two JA pages vs one ZH page

    def test_empty_stream(self):
        scan = scan_archive([])
        assert scan.hosts == {}

    def test_undecodable_payload_counted_not_fatal(self):
        scan = scan_archive([("https://a.example.com/1", b"\xff\xfe\x99\x80\x81")])
        assert scan.skipped_records == 1

    def test_order_independence(self):
        records = [
            (f"https://h{i % 5}.example{i % 5}.com/p{i}", ja_page(200 + i) if i % 2 else zh_page(300 + i))
            for i in range(100)
        ]
        scan_a = scan_archive(records)
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        scan_b = scan_archive(shuffled)
        assert scan_a.hosts.keys() == scan_b.hosts.keys()
        for host in scan_a.hosts:
            a, b = scan_a.hosts[host], scan_b.hosts[host]
            assert (a.bytes_ja, a.bytes_zh, a.bytes_other, a.page_count, a.seed_url) == (
                b.bytes_ja, b.bytes_zh, b.bytes_other, b.page_count, b.seed_url
            )

    def test_five_host_fixture_totals(self):
        # Manifest of planted page counts per registrable domain.
        manifest = {f"example{h}.org": (h + 1, 5 - h) for h in range(5)}
        records = []
        for h, (domain, (n_ja, n_zh)) in enumerate(sorted(manifest.items())):
            for i in range(n_ja):
                records.append((f"https://www.{domain}/ja{i}", ja_page(400)))
            for i in range(n_zh):
                records.append((f"https://zh.{domain}/zh{i}", zh_page(400)))
        scan = scan_archive(records)
        assert set(scan.hosts) == set(manifest)
        for domain, (n_ja, n_zh) in manifest.items():
            assert scan.hosts[domain].page_count == n_ja + n_zh


class TestSelectBalanced:
    def test_balanced_host_kept(self):
        stats = HostStats("a.com", bytes_ja=2000, bytes_zh=1500, page_count=2, seed_url="https://a.com/")
        sites = select_balanced_hosts([stats], min_bytes=1000, min_balance=0.3)
        assert len(sites) == 1
        assert sites[0].balance == pytest.approx(0.75)

    def test_lopsided_host_dropped(self):
        stats = HostStats("a.com", bytes_ja=2000, bytes_zh=100, page_count=2)
        assert select_balanced_hosts([stats], min_bytes=50, min_balance=0.3) == []

    def test_min_bytes_threshold(self):
        stats = HostStats("a.com", bytes_ja=900, bytes_zh=800, page_count=2)
        assert select_balanced_hosts([stats], min_bytes=1000, min_balance=0.3) == []

    def test_sorted_by_volume_and_truncated(self):
        hosts = [
            HostStats(f"h{i}.com", bytes_ja=1000 * (i + 1), bytes_zh=1000 * (i + 1),
                      page_count=1, seed_url=f"https://h{i}.com/")
            for i in range(5)
        ]
        sites = select_balanced_hosts(hosts, min_bytes=500, min_balance=0.5, limit=3)
        assert [s.host for s in sites] == ["h4.com", "h3.com", "h2.com"]

    def test_tie_breaks_on_host_name(self):
        hosts = [
            HostStats("bbb.com", bytes_ja=1000, bytes_zh=1000, page_count=1),
            HostStats("aaa.com", bytes_ja=1000, bytes_zh=1000, page_count=1),
        ]
        sites = select_balanced_hosts(hosts, min_bytes=100, min_balance=0.5)
        assert [s.host for s in sites] == ["aaa.com", "bbb.com"]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            select_balanced_hosts([], min_balance=0.0)
        with pytest.raises(ValueError):
            select_balanced_hosts([], limit=0)


class FakeFetch:
    def __init__(self, pages):
        self.pages = pages

    def __call__(self, url, timeout=30.0):
        body = self.pages.get(url)
        if body is None:
            return FetchResponse(404, "", b"")
        return FetchResponse(200, "text/html", body)


def write_submissions(path, rows):
    path.write_text("".join(f"{a}\t{b}\t{w}\n" for a, b, w in rows), encoding="utf-8")


class TestIngestUrlPairs:
    def test_same_url_rejected(self, tmp_path):
        f = tmp_path / "s.tsv"
        write_submissions(f, [("https://a.jp/x", "https://a.jp/x", "w1")])
        sites, rows = ingest_url_pairs(f, FakeFetch({}))
        assert sites == []
        assert rows[0].status == "ERROR" and rows[0].error == ERR_SAME_URL

    def test_wrong_language_rejected(self, tmp_path):
        f = tmp_path / "s.tsv"
        write_submissions(f, [("https://a.jp/ja", "https://a.jp/zh", "w1")])
        fetch = FakeFetch({"https://a.jp/ja": zh_page(), "https://a.jp/zh": zh_page()})
        sites, rows = ingest_url_pairs(f, fetch)
        assert sites == []
        assert rows[0].error == ERR_WRONG_LANGUAGE

    def test_fixture_with_planted_failures(self, tmp_path):
        pages = {}
        rows = []
        for i in range(8):
            ja_url = f"https://site{i}.example{i}.jp/ja"
            zh_url = f"https://site{i}.example{i}.jp/zh"
            pages[ja_url] = ja_page()
            pages[zh_url] = zh_page()
            rows.append((ja_url, zh_url, f"w{i}"))
        rows.append(("https://dup.example0.jp/ja", "https://dup.example0.jp/zh", "w8"))  # duplicate host
        rows.append(("not a url", "https://x.jp/zh", "w9"))  # malformed
        f = tmp_path / "s.tsv"
        write_submissions(f, rows)
        sites, out_rows = ingest_url_pairs(f, FakeFetch(pages))
        n_valid = sum(1 for r in out_rows if r.status == "VALID")
        n_error = sum(1 for r in out_rows if r.status == "ERROR")
        assert (n_valid, n_error) == (8, 2)
        assert n_valid + n_error == len(out_rows) == 10
        hosts = [s.host for s in sites]
        assert len(hosts) == len(set(hosts))

    def test_unreachable(self, tmp_path):
        f = tmp_path / "s.tsv"
        write_submissions(f, [("https://a.jp/ja", "https://a.jp/zh", "w1")])
        sites, rows = ingest_url_pairs(f, FakeFetch({}))
        assert rows[0].error == "UNREACHABLE"

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(OSError):
            ingest_url_pairs(tmp_path / "missing.tsv", FakeFetch({}))


class TestWarc:
    def test_roundtrip(self, tmp_path):
        records = [
            ("https://a.example.jp/1", ja_page(300)),
            ("https://b.example.cn/2", zh_page(400)),
        ]
        path = tmp_path / "records.warc.gz"
        assert write_warc(records, path) == 2
        got = list(iter_warc_records(path))
        assert got == records

    def test_same_records_give_the_same_bytes(self, tmp_path, monkeypatch):
        """The gzip header carries no write time, so a rewrite of the
        same records at a later clock reads back byte-equal."""
        import time

        records = [("https://a.example.jp/1", ja_page(300))]
        path = tmp_path / "records.warc.gz"
        write_warc(records, path)
        first = path.read_bytes()
        later = time.time() + 3600.0
        monkeypatch.setattr(time, "time", lambda: later)
        write_warc(records, path)
        assert path.read_bytes() == first

    def test_http_payload_header_stripping(self, tmp_path):
        payload = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<p>body</p>"
        path = tmp_path / "r.warc.gz"
        write_warc([("https://a.jp/x", payload)], path)
        (url, body), = iter_warc_records(path)
        assert body == b"<p>body</p>"

    def test_uncompressed_variant(self, tmp_path):
        path = tmp_path / "r.warc"
        write_warc([("https://a.jp/x", b"<p>a</p>")], path)
        assert list(iter_warc_records(path)) == [("https://a.jp/x", b"<p>a</p>")]

    def test_scan_archive_over_warc(self, tmp_path):
        path = tmp_path / "r.warc.gz"
        write_warc(
            [("https://a.example.jp/1", ja_page()), ("https://a.example.jp/2", zh_page())],
            path,
        )
        scan = scan_archive(iter_warc_records(path))
        assert scan.hosts["example.jp"].page_count == 2

    def test_malformed_target_uri_is_a_skipped_record(self, tmp_path):
        good = [("https://a.example.jp/1", ja_page()), ("https://a.example.jp/2", zh_page())]
        config = PipelineConfig()
        config.discovery.min_bytes = 100
        path = tmp_path / "r.warc.gz"
        write_warc(good, path)
        clean_scan, clean_sites = discover_archive(path, config)
        # urlsplit rejects the unclosed IPv6 bracket of this record's URI.
        write_warc([good[0], ("http://[bad/x.html", ja_page()), good[1]], path)
        scan, sites = discover_archive(path, config)
        assert [s.host for s in sites] == [s.host for s in clean_sites] == ["example.jp"]
        assert scan.skipped_records == clean_scan.skipped_records + 1

    def test_truncated_warc_ends_quietly(self, tmp_path):
        import gzip

        path = tmp_path / "r.warc.gz"
        write_warc([("https://a.jp/1", b"<p>ok</p>")], path)
        payload = gzip.decompress(path.read_bytes())
        truncated = tmp_path / "t.warc.gz"
        # second record's declared length exceeds the remaining bytes
        partial = (
            b"WARC/1.0\r\nWARC-Type: response\r\n"
            b"WARC-Target-URI: https://a.jp/2\r\nContent-Length: 5000\r\n\r\n<p>cut"
        )
        truncated.write_bytes(gzip.compress(payload + partial))
        got = list(iter_warc_records(truncated))
        assert got == [("https://a.jp/1", b"<p>ok</p>")]

    def test_cut_gzip_yields_records_before_the_cut(self, tmp_path, caplog):
        import random
        import zlib

        rng = random.Random(3)
        # Random payloads barely compress, so whole records precede each cut.
        records = [
            (f"https://a.jp/{k}", bytes(rng.randrange(256) for _ in range(3000)))
            for k in range(6)
        ]
        path = tmp_path / "full.warc.gz"
        write_warc(records, path)
        data = path.read_bytes()
        ends = []  # uncompressed offset where each record's bytes end
        for k in range(1, len(records) + 1):
            write_warc(records[:k], tmp_path / "prefix.warc")
            ends.append((tmp_path / "prefix.warc").stat().st_size)
        for cut in range(len(data) // 5, len(data) - 8, len(data) // 5):
            cut_path = tmp_path / f"cut{cut}.warc.gz"
            cut_path.write_bytes(data[:cut])
            readable = len(zlib.decompressobj(wbits=31).decompress(data[:cut]))
            expected = [r for r, end in zip(records, ends) if end <= readable]
            assert 1 <= len(expected) < len(records)
            caplog.clear()
            with caplog.at_level("WARNING", logger="localmine.discovery"):
                assert list(iter_warc_records(cut_path)) == expected
            assert "truncated or corrupt" in caplog.text

    def test_flipped_byte_never_raises(self, tmp_path, caplog):
        # Every byte after the fixed 10-byte gzip header: the file name,
        # the deflate data and the CRC32/ISIZE trailer.  A flip may end
        # the stream early or garble a record, but never raises.
        records = [(f"https://a.jp/{k}", f"<p>{'本文です。' * 12}{k}</p>".encode()) for k in range(4)]
        path = tmp_path / "r.warc.gz"
        write_warc(records, path)
        data = path.read_bytes()
        flipped = tmp_path / "f.warc.gz"
        for pos in range(10, len(data)):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0xFF
            flipped.write_bytes(bytes(corrupt))
            caplog.clear()
            with caplog.at_level("WARNING", logger="localmine.discovery"):
                got = list(iter_warc_records(flipped))
            if pos >= len(data) - 8:  # the trailer: every record was read
                assert got == records
                assert "truncated or corrupt" in caplog.text

    def test_not_gzip_is_an_error(self, tmp_path):
        path = tmp_path / "plain.warc.gz"
        path.write_bytes(b"WARC/1.0\r\n\r\n")
        with pytest.raises(OSError):
            list(iter_warc_records(path))

    @pytest.mark.parametrize("length", ["12abc", "-5"])
    def test_bad_content_length_ends_stream(self, tmp_path, length):
        import gzip

        good = tmp_path / "good.warc"
        write_warc([("https://a.jp/1", b"<p>ok</p>")], good)
        bad = (
            b"WARC/1.0\r\nWARC-Type: response\r\n"
            b"WARC-Target-URI: https://a.jp/2\r\nContent-Length: " + length.encode()
            + b"\r\n\r\n<p>bad</p>\r\n\r\n"
        )
        path = tmp_path / "b.warc.gz"
        path.write_bytes(gzip.compress(good.read_bytes() * 2 + bad + good.read_bytes()))
        got = list(iter_warc_records(path))
        assert got == [("https://a.jp/1", b"<p>ok</p>")] * 2

    def test_garbage_header_ends_stream(self, tmp_path):
        import gzip

        path = tmp_path / "g.warc.gz"
        path.write_bytes(gzip.compress(b"not a warc at all\r\n\r\n"))
        assert list(iter_warc_records(path)) == []


class TestDirectoryRecords:
    def _dump(self, tmp_path, pages):
        from localmine.crawl import Page, PageStore, dump_snapshot

        store = PageStore(host="b.jp")
        store.pages = [Page(url, ctype, body) for url, ctype, body in pages]
        dump_snapshot(store, tmp_path / "snap")
        return tmp_path / "snap"

    def test_records_follow_the_manifest(self, tmp_path):
        # URLs out of sorted order, a binary body and a body that looks
        # like an HTTP response: payloads come back as stored, unstripped.
        pages = [
            ("https://b.jp/zh/2.html", "text/html", zh_page(200)),
            ("https://b.jp/a.pdf", "application/pdf", bytes(range(256))),
            ("https://b.jp/ja/1.html", "text/html", b"HTTP/1.1 200 OK\r\n\r\n" + ja_page(200)),
        ]
        snap = self._dump(tmp_path, pages)
        assert list(iter_directory_records(snap)) == [(url, body) for url, _, body in pages]

        # The manifest's line order, not file names or URLs, sets the order.
        manifest = snap / "manifest.jsonl"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
        assert list(iter_directory_records(snap)) == [(url, body) for url, _, body in reversed(pages)]

    def test_feeds_scan_archive(self, tmp_path):
        pages = [("https://b.jp/ja/1.html", "text/html", ja_page(600)),
                 ("https://b.jp/zh/1.html", "text/html", zh_page(600))]
        scan = scan_archive(iter_directory_records(self._dump(tmp_path, pages)))
        assert scan.hosts["b.jp"].page_count == 2

    def test_missing_manifest_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_directory_records(tmp_path))
