"""Candidate-site discovery: archive scanning for hosts with balanced
JA/ZH text, and validation of crowdsourced top-page URL pairs.

Archive scanning is a single pass over (url, html bytes) records that
accumulates per-host text volume by language.
"""

from __future__ import annotations

import gzip
import logging
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import urlsplit

from .fetching import DEFAULT_TIMEOUT, Fetch, load_manifest
from .htmltext import EncodingError, extract_page
from .text import LanguageTag, detect_language
from .urls import registrable_domain

logger = logging.getLogger(__name__)

DEFAULT_MIN_BYTES = 10_000
DEFAULT_MIN_BALANCE = 0.3
DEFAULT_LIMIT = 1000

SOURCE_ARCHIVE = "archive"
SOURCE_CROWD = "crowd"

# Machine-readable reason codes for rejected URL-pair submissions.
ERR_UNREACHABLE = "UNREACHABLE"
ERR_WRONG_LANGUAGE = "WRONG_LANGUAGE"
ERR_DUPLICATE_HOST = "DUPLICATE_HOST"
ERR_MALFORMED_URL = "MALFORMED_URL"
ERR_SAME_URL = "SAME_URL"

STATUS_PENDING = "PENDING"
STATUS_VALID = "VALID"
STATUS_ERROR = "ERROR"


@dataclass
class HostStats:
    """Per-registrable-domain text volume by detected language."""

    host: str
    bytes_ja: int = 0
    bytes_zh: int = 0
    bytes_other: int = 0
    page_count: int = 0
    seed_url: str = ""  # lexicographically smallest URL seen (order independent)

    @property
    def total_cjk_bytes(self) -> int:
        return self.bytes_ja + self.bytes_zh

    @property
    def balance(self) -> float:
        high = max(self.bytes_ja, self.bytes_zh)
        if high == 0:
            return 0.0
        return min(self.bytes_ja, self.bytes_zh) / high

    def add_page(self, url: str, lang: LanguageTag, text_bytes: int) -> None:
        self.page_count += 1
        if lang is LanguageTag.JA:
            self.bytes_ja += text_bytes
        elif lang is LanguageTag.ZH:
            self.bytes_zh += text_bytes
        else:
            self.bytes_other += text_bytes
        if not self.seed_url or url < self.seed_url:
            self.seed_url = url


@dataclass
class CandidateSite:
    host: str
    seed_urls: list[str]
    source: str  # SOURCE_ARCHIVE or SOURCE_CROWD
    balance: float = 0.0
    bytes_ja: int = 0
    bytes_zh: int = 0

    def to_json(self) -> dict:
        return {
            "host": self.host,
            "seed_urls": self.seed_urls,
            "source": self.source,
            "balance": round(self.balance, 4),
            "bytes_ja": self.bytes_ja,
            "bytes_zh": self.bytes_zh,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CandidateSite":
        return cls(
            host=obj["host"],
            seed_urls=list(obj["seed_urls"]),
            source=obj["source"],
            balance=float(obj.get("balance", 0.0)),
            bytes_ja=int(obj.get("bytes_ja", 0)),
            bytes_zh=int(obj.get("bytes_zh", 0)),
        )


@dataclass
class UrlPairSubmission:
    url_ja: str
    url_zh: str
    worker_id: str
    status: str = STATUS_PENDING
    error: str | None = None

    def mark_error(self, reason: str) -> None:
        self.status = STATUS_ERROR
        self.error = reason

    def to_json(self) -> dict:
        return {
            "url_ja": self.url_ja,
            "url_zh": self.url_zh,
            "worker_id": self.worker_id,
            "status": self.status,
            "error": self.error,
        }


@dataclass
class ArchiveScan:
    hosts: dict[str, HostStats] = field(default_factory=dict)
    skipped_records: int = 0


def _page_text(body: bytes) -> tuple[str, LanguageTag] | None:
    """Extracted text of an HTML body and its detected language, None
    when the body is undecodable or holds no text."""
    try:
        text, _, _ = extract_page(body)
    except EncodingError:
        return None
    if not text:
        return None
    lang, _ = detect_language(text)
    return text, lang


def scan_archive(records: Iterable[tuple[str, bytes]]) -> ArchiveScan:
    """Accumulate per-host extracted-text byte counts by detected language
    (``detect_language``).

    Streaming and order-independent; undecodable payloads increment the
    skip counter and never abort the scan.
    """
    scan = ArchiveScan()
    for url, payload in records:
        page = _page_text(payload)
        if page is None:
            scan.skipped_records += 1
            continue
        text, lang = page
        host = registrable_domain(url)
        if not host:
            scan.skipped_records += 1
            continue
        stats = scan.hosts.get(host)
        if stats is None:
            stats = scan.hosts[host] = HostStats(host=host)
        stats.add_page(url, lang, len(text.encode("utf-8")))
    return scan


def select_balanced_hosts(
    stats: Iterable[HostStats],
    min_bytes: int = DEFAULT_MIN_BYTES,
    min_balance: float = DEFAULT_MIN_BALANCE,
    limit: int = DEFAULT_LIMIT,
) -> list[CandidateSite]:
    """Hosts with roughly equal JA/ZH text volume, largest first.

    Keeps hosts whose smaller side reaches ``min_bytes`` and whose
    min/max ratio reaches ``min_balance``; sorts by total volume
    descending (host name breaks ties) and truncates to ``limit``.
    """
    if not (0.0 < min_balance <= 1.0):
        raise ValueError("min_balance must be in (0, 1]")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    kept = [
        s
        for s in stats
        if min(s.bytes_ja, s.bytes_zh) >= min_bytes and s.balance >= min_balance
    ]
    kept.sort(key=lambda s: (-s.total_cjk_bytes, s.host))
    sites = []
    for s in kept[:limit]:
        seed = s.seed_url or f"https://{s.host}/"
        sites.append(
            CandidateSite(
                host=s.host,
                seed_urls=[seed],
                source=SOURCE_ARCHIVE,
                balance=s.balance,
                bytes_ja=s.bytes_ja,
                bytes_zh=s.bytes_zh,
            )
        )
    return sites


def _parse_submissions(path: str | Path) -> list[UrlPairSubmission]:
    rows: list[UrlPairSubmission] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            while len(cols) < 3:
                cols.append("")
            rows.append(UrlPairSubmission(cols[0], cols[1], cols[2]))
    return rows


def _page_language(fetch: Fetch, url: str, timeout: float) -> LanguageTag | None:
    """Detected language of a fetched top page, None when unreachable."""
    try:
        resp = fetch(url, timeout=timeout)
    except Exception:
        return None
    if not resp.ok:
        return None
    page = _page_text(resp.body)
    return None if page is None else page[1]


def _well_formed(url: str) -> bool:
    try:
        parts = urlsplit(url)
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.netloc)


def ingest_url_pairs(
    submissions_file: str | Path,
    fetch: Fetch,
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[list[CandidateSite], list[UrlPairSubmission]]:
    """Validate crowdsourced top-page URL pairs.

    Every input row comes back with a final status; VALID pairs become
    crowd candidate sites seeded with both URLs.  A top page's language
    is ``detect_language``'s.  Rows fail with a machine-readable reason;
    an unreadable submissions file is fatal.
    """
    rows = _parse_submissions(submissions_file)
    sites: list[CandidateSite] = []
    taken_hosts: set[str] = set()
    for row in rows:
        if not _well_formed(row.url_ja) or not _well_formed(row.url_zh):
            row.mark_error(ERR_MALFORMED_URL)
            continue
        if row.url_ja == row.url_zh:
            row.mark_error(ERR_SAME_URL)
            continue
        host = registrable_domain(row.url_ja)
        if host in taken_hosts:
            row.mark_error(ERR_DUPLICATE_HOST)
            continue
        lang_ja = _page_language(fetch, row.url_ja, timeout)
        lang_zh = _page_language(fetch, row.url_zh, timeout)
        if lang_ja is None or lang_zh is None:
            row.mark_error(ERR_UNREACHABLE)
            continue
        if lang_ja is not LanguageTag.JA or lang_zh is not LanguageTag.ZH:
            row.mark_error(ERR_WRONG_LANGUAGE)
            continue
        row.status = STATUS_VALID
        taken_hosts.add(host)
        sites.append(
            CandidateSite(host=host, seed_urls=[row.url_ja, row.url_zh], source=SOURCE_CROWD)
        )
    return sites, rows


# ---------------------------------------------------------------------------
# Archive record streams

_GZIP_MAGIC = b"\x1f\x8b"


def iter_warc_records(path: str | Path) -> Iterator[tuple[str, bytes]]:
    """(url, payload) pairs from a gzip-compressed WARC-style file.

    Handles response/resource records, strips an embedded HTTP header
    block when present and skips records without a target URI.
    Truncated or malformed trailing data ends the stream after the
    records read so far, without raising; a non-integer or negative
    Content-Length and a cut or corrupt gzip stream (including a CRC or
    length mismatch in its trailer) log a warning.  A ``.gz`` file that
    does not start with the gzip magic bytes is an error.
    """
    with open(path, "rb") as raw:
        if not str(path).endswith(".gz"):
            yield from _read_warc_records(raw)
            return
        if raw.read(2) != _GZIP_MAGIC:
            raise gzip.BadGzipFile(f"not a gzip file: {path}")
        raw.seek(0)
        with gzip.GzipFile(fileobj=raw) as fh:
            try:
                yield from _read_warc_records(fh)
            except (EOFError, zlib.error, gzip.BadGzipFile) as err:
                logger.warning("WARC %s is truncated or corrupt; stream ends here: %s", path, err)


def _read_warc_records(fh) -> Iterator[tuple[str, bytes]]:
    while True:
        header = _read_warc_header(fh)
        if header is None:
            return
        raw_length = header.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            logger.warning("bad WARC Content-Length %r; stream ends here", raw_length[:40])
            return
        payload = fh.read(length)
        if len(payload) < length:
            return
        _skip_record_separator(fh)
        if header.get("warc-type", "response") not in ("response", "resource"):
            continue
        url = header.get("warc-target-uri", "")
        if not url:
            continue
        yield url, _strip_http_headers(payload)


def _read_warc_header(fh) -> dict[str, str] | None:
    line = fh.readline()
    while line in (b"\r\n", b"\n"):
        line = fh.readline()
    if not line:
        return None
    if not line.startswith(b"WARC/"):
        logger.warning("not a WARC record header: %r", line[:40])
        return None
    header: dict[str, str] = {}
    while True:
        line = fh.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        if b":" in line:
            key, _, value = line.partition(b":")
            header[key.decode("ascii", "replace").strip().lower()] = (
                value.decode("utf-8", "replace").strip()
            )
    return header


def _skip_record_separator(fh) -> None:
    fh.readline()
    fh.readline()


def _strip_http_headers(payload: bytes) -> bytes:
    if payload.startswith(b"HTTP/"):
        end = payload.find(b"\r\n\r\n")
        if end != -1:
            return payload[end + 4 :]
        end = payload.find(b"\n\n")
        if end != -1:
            return payload[end + 2 :]
    return payload


def iter_directory_records(snapshot_dir: str | Path) -> Iterator[tuple[str, bytes]]:
    """Directory-of-files record stream (snapshot manifest format)."""
    root = Path(snapshot_dir)
    for entry in load_manifest(root):
        yield entry["url"], (root / entry["file"]).read_bytes()


def write_warc(records: Iterable[tuple[str, bytes]], path: str | Path) -> int:
    """Write (url, payload) pairs as a minimal gzip WARC file; returns the
    record count.  Counterpart of iter_warc_records, used by fixtures and
    snapshot tooling."""
    count = 0
    # mtime=0 keeps the clock out of the gzip header, so the same records
    # always give the same file bytes.
    gz = str(path).endswith(".gz")
    with gzip.GzipFile(path, "wb", mtime=0) if gz else open(path, "wb") as fh:
        for url, payload in records:
            head = (
                "WARC/1.0\r\n"
                "WARC-Type: response\r\n"
                f"WARC-Target-URI: {url}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "\r\n"
            ).encode("utf-8")
            fh.write(head)
            fh.write(payload)
            fh.write(b"\r\n\r\n")
            count += 1
    return count
