import random

import pytest

from localmine.discovery import (
    ERR_SAME_URL,
    ERR_WRONG_LANGUAGE,
    HostStats,
    ingest_url_pairs,
    iter_warc_records,
    scan_archive,
    select_balanced_hosts,
    write_warc,
)
from localmine.fetching import FetchResponse


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
