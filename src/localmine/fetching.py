"""Page-fetch capability: the one injection point for network I/O.

A fetch callable maps (url, timeout) to a FetchResponse.  The production
binding is a plain HTTP(S) GET with redirects capped at 5; the snapshot
binding serves a directory of files through the same interface so whole
pipeline runs are reproducible offline.

``urllib.request``, and with it ``http.client``, ``ssl`` and OpenSSL,
loads on the first ``http_fetch`` call, so a run from a snapshot never
loads the network stack.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .jsonl import read_jsonl

logger = logging.getLogger(__name__)

MAX_REDIRECTS = 5
DEFAULT_TIMEOUT = 30.0
_USER_AGENT = "localmine/0.1 (+parallel corpus research crawler)"


@dataclass
class FetchResponse:
    status: int
    content_type: str
    body: bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and bool(self.body)


class Fetch(Protocol):
    def __call__(self, url: str, timeout: float = DEFAULT_TIMEOUT) -> FetchResponse: ...


@functools.cache
def _opener():
    """The one redirect-capped opener of the process, built on first use."""
    import urllib.request

    class _CappedRedirects(urllib.request.HTTPRedirectHandler):
        max_redirections = MAX_REDIRECTS

    return urllib.request.build_opener(_CappedRedirects)


def http_fetch(url: str, timeout: float = DEFAULT_TIMEOUT) -> FetchResponse:
    """Production binding: GET with a capped redirect chain.  HTTP errors
    come back as status codes, transport errors raise."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers={"User-Agent": _USER_AGENT})
    try:
        with _opener().open(request, timeout=timeout) as resp:
            content_type = resp.headers.get("Content-Type", "")
            return FetchResponse(resp.status, content_type.split(";")[0].strip(), resp.read())
    except urllib.error.HTTPError as err:
        return FetchResponse(err.code, "", b"")


def snapshot_fetch(snapshot_dir: str | Path) -> Fetch:
    """Serve a snapshot directory through the fetch interface.

    The directory holds a ``manifest.jsonl`` (keys: file, url,
    content_type) next to the page files; URLs absent from the manifest
    come back as 404.
    """
    root = Path(snapshot_dir)
    by_url: dict[str, tuple[Path, str]] = {}
    for entry in load_manifest(root):
        by_url[entry["url"]] = (root / entry["file"], entry.get("content_type", "text/html"))

    def fetch(url: str, timeout: float = DEFAULT_TIMEOUT) -> FetchResponse:
        del timeout
        hit = by_url.get(url)
        if hit is None:
            return FetchResponse(404, "", b"")
        path, content_type = hit
        return FetchResponse(200, content_type, path.read_bytes())

    return fetch


def load_manifest(snapshot_dir: str | Path) -> list[dict]:
    """Parse a snapshot manifest; missing manifest is fatal."""
    manifest_path = Path(snapshot_dir) / "manifest.jsonl"
    if not manifest_path.exists():
        raise FileNotFoundError(f"snapshot manifest not found: {manifest_path}")
    return list(read_jsonl(manifest_path))
