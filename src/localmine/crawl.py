"""Budgeted polite BFS crawler confined to one site's registrable domain.

The crawl halts as soon as any budget limit (wall clock, page count,
stored bytes) is reached.  Only HTML bodies are stored; PDF/Word bodies
and other types are counted and skipped.  With a deterministic fetch
capability the resulting PageStore is bit-reproducible (FIFO frontier,
document-order link expansion).

Robots exclusion is honoured for agent ``*`` as ``urllib.robotparser``
reads robots.txt: the first group whose ``User-agent`` is empty, else
the first ``*`` group, and within it the first ``Allow``/``Disallow``
rule whose path prefixes the URL's path (RFC 9309 would take the
longest).  ``_robots_rules`` keeps that module's quirks, so the answers
equal its ``can_fetch("*", url)``, without importing it: it imports
``urllib.request`` and so the network stack and OpenSSL, which a crawl
from a snapshot never uses.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import quote, unquote, urldefrag, urljoin, urlparse, urlsplit, urlunparse

from .fetching import DEFAULT_TIMEOUT, Fetch
from .htmltext import extract_links
from .jsonl import write_jsonl
from .urls import registrable_domain

logger = logging.getLogger(__name__)

_HTML_TYPES = ("text/html", "application/xhtml+xml", "application/xhtml")
_BINARY_TYPES = (
    "application/pdf",
    "application/msword",
    "application/vnd.openxmlformats-officedocument.wordprocessingml.document",
)
_BINARY_EXTENSIONS = (".pdf", ".doc", ".docx")


@dataclass
class CrawlBudget:
    """The ``[crawler]`` config section: hard limits, where the crawl
    halts when ANY of them is reached, the politeness delay between two
    requests to one host, and the timeout of each request.  Each field's
    ``range`` is checked when a config is loaded (``config``)."""

    # 48 h, the default wall clock per site
    max_seconds: int = field(default=172_800, metadata={"range": "[1, inf)"})
    max_pages: int = field(default=10_000, metadata={"range": "[1, inf)"})
    max_bytes: int = field(default=256 * 1024 * 1024, metadata={"range": "[1, inf)"})
    per_host_delay_ms: int = field(default=100, metadata={"range": "[0, inf)"})
    timeout: float = field(default=DEFAULT_TIMEOUT, metadata={"range": "(0, inf)"})


@dataclass
class Page:
    url: str
    content_type: str
    body: bytes


@dataclass
class PageStore:
    """Pages stored for one site; URLs are unique and stay within the
    site's registrable domain(s)."""

    host: str
    pages: list[Page] = field(default_factory=list)
    crawl_failed: bool = False
    failure_reason: str = ""
    fetched_pages: int = 0
    fetch_failures: int = 0
    skipped_binary: int = 0
    skipped_other: int = 0

    def stored_bytes(self) -> int:
        return sum(len(page.body) for page in self.pages)


def _is_html(content_type: str, url: str) -> bool:
    if content_type:
        return content_type.lower().startswith(_HTML_TYPES)
    # No declared type: go by the URL shape.
    path = urlsplit(url).path.lower()
    return path.endswith((".html", ".htm", "/")) or "." not in path.rsplit("/", 1)[-1]


def _is_binary_document(content_type: str, url: str) -> bool:
    """PDF/Word by declared type or URL extension."""
    if content_type.lower() in _BINARY_TYPES:
        return True
    return urlsplit(url).path.lower().endswith(_BINARY_EXTENSIONS)


def _robots_rules(text: str) -> list[tuple[str, bool]]:
    """The ordered ``(path, allowed)`` rules robots.txt gives agent ``*``.

    Follows ``RobotFileParser.parse``: a group is one or more
    ``User-agent`` lines and the rules under them; ``Crawl-delay`` and
    ``Request-rate`` also close the agent list; only an empty line (not a
    whitespace-only or comment one) ends a group, and discards a group
    that has no rule yet.  An empty ``Disallow`` allows everything.  Raises
    ``ValueError`` where the stdlib parser would (``Disallow: http://[``,
    ``Crawl-delay: ²``).
    """
    groups: list[tuple[list[str], list[tuple[str, bool]]]] = []
    agents: list[str] = []
    rules: list[tuple[str, bool]] = []
    state = 0  # 0: no group, 1: agent lines, 2: past them
    for line in text.splitlines():
        if not line and state:
            if state == 2:
                groups.append((agents, rules))
            agents, rules, state = [], [], 0
        key, sep, value = line.split("#", 1)[0].partition(":")
        if not sep:
            continue
        key = key.strip().lower()
        value = unquote(value.strip())
        if key == "user-agent":
            if state == 2:
                groups.append((agents, rules))
                agents, rules = [], []
            agents.append(value)
            state = 1
        elif not state:
            continue
        elif key in ("allow", "disallow"):
            path = quote(urlunparse(urlparse(value)))
            rules.append((path, key == "allow" or not value))
            state = 2
        elif key in ("crawl-delay", "request-rate"):
            # The values go unused, but int() raises on a digit it cannot
            # read ("²"), and so the stdlib parse does.
            numbers = value.split("/") if key == "request-rate" else [value]
            if len(numbers) == 1 + (key == "request-rate") and all(
                n.strip().isdigit() for n in numbers
            ):
                for n in numbers:
                    int(n)
            state = 2
    if state == 2:
        groups.append((agents, rules))
    # The stdlib files a group naming "*" as the default, keeping the
    # first; any other group applies to "*" when it names the empty agent.
    default = next((r for a, r in groups if "*" in a), [])
    return next((r for a, r in groups if "*" not in a and "" in a), default)


def _robots_allow(rules: list[tuple[str, bool]], url: str) -> bool:
    """``RobotFileParser.can_fetch("*", url)`` under ``rules``: the first
    rule whose path prefixes the URL's path decides.  The stdlib also
    lets a rule path ``*`` match everything, but ``quote`` never leaves
    a ``*`` in a path, so that branch never fires."""
    parsed = urlparse(unquote(url))
    path = quote(urlunparse(("", "", *parsed[2:]))) or "/"
    return next((allowed for prefix, allowed in rules if path.startswith(prefix)), True)


class _RobotsCache:
    """Per-origin robots.txt rules, fetched through the same capability;
    ``None`` allows every URL."""

    def __init__(self, fetch: Fetch, timeout: float) -> None:
        self._fetch = fetch
        self._timeout = timeout
        self._rules: dict[str, list[tuple[str, bool]] | None] = {}

    def allowed(self, url: str) -> bool:
        """Whether robots.txt lets agent ``*`` fetch ``url``.  A URL that
        ``_robots_allow`` cannot parse is disallowed: it unquotes the URL
        first, so a ``%5B`` in the host becomes a bracket."""
        parts = urlsplit(url)
        key = f"{parts.scheme}://{parts.netloc}"
        if key not in self._rules:
            self._rules[key] = self._load(key)
        rules = self._rules[key]
        try:
            return rules is None or _robots_allow(rules, url)
        except ValueError:
            return False

    def _load(self, origin: str) -> list[tuple[str, bool]] | None:
        try:
            resp = self._fetch(origin + "/robots.txt", timeout=self._timeout)
        except Exception as err:  # robots failures never block the crawl
            logger.debug("robots fetch failed for %s: %s", origin, err)
            return None
        if resp.status != 200 or not resp.body:
            return None
        try:
            return _robots_rules(resp.body.decode("utf-8", "replace"))
        except Exception:
            return None


def crawl_site(
    site,
    budget: CrawlBudget,
    fetch: Fetch,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> PageStore:
    """Breadth-first crawl of one candidate site under a strict budget.

    ``site`` needs ``host`` and ``seed_urls`` attributes.  Every
    request, robots.txt included, is fetched with ``budget.timeout``.
    Only HTML bodies are stored and parsed for links; PDF/Word bodies
    count in ``skipped_binary`` and other types in ``skipped_other``.
    Only links within the seeds' registrable domains are followed and
    robots exclusion is honored; a link that does not parse as a URL is
    skipped.  All seeds unreachable marks the site crawl-failed.
    """
    store = PageStore(host=site.host)
    seeds = [urldefrag(u)[0] for u in site.seed_urls]
    seed_set = set(seeds)
    allowed_domains = frozenset(registrable_domain(u) for u in seeds)
    robots = _RobotsCache(fetch, budget.timeout)
    start = clock()
    last_request: dict[str, float] = {}
    frontier: deque[str] = deque(seeds)
    seen: set[str] = set(seeds)
    stored_bytes = 0
    any_seed_ok = False

    def over_time() -> bool:
        return clock() - start >= budget.max_seconds

    def polite_wait(netloc: str) -> None:
        if budget.per_host_delay_ms <= 0:
            return
        previous = last_request.get(netloc)
        now = clock()
        if previous is not None:
            remaining = budget.per_host_delay_ms / 1000.0 - (now - previous)
            if remaining > 0:
                sleep(remaining)
                now = clock()
        last_request[netloc] = now

    while frontier:
        if store.fetched_pages >= budget.max_pages or over_time():
            break
        url = frontier.popleft()
        if not robots.allowed(url):
            logger.debug("robots disallows %s", url)
            continue
        netloc = urlsplit(url).netloc
        polite_wait(netloc)
        store.fetched_pages += 1
        try:
            resp = fetch(url, timeout=budget.timeout)
        except Exception as err:
            logger.debug("fetch failed for %s: %s", url, err)
            store.fetch_failures += 1
            continue
        if not resp.ok:
            store.fetch_failures += 1
            continue
        if url in seed_set:
            any_seed_ok = True
        if _is_binary_document(resp.content_type, url):
            store.skipped_binary += 1
            continue
        if not _is_html(resp.content_type, url):
            store.skipped_other += 1
            continue
        body = resp.body
        if stored_bytes + len(body) > budget.max_bytes:
            break
        stored_bytes += len(body)
        store.pages.append(Page(url, resp.content_type, body))
        try:
            links = extract_links(body)
        except Exception as err:  # no markup may abort a crawl
            logger.debug("link extraction failed for %s: %s", url, err)
            links = []
        for href in links:
            try:
                child = urldefrag(urljoin(url, href))[0]
                scheme = urlsplit(child).scheme
            except ValueError:  # e.g. an unclosed IPv6 bracket in the host
                continue
            if scheme not in ("http", "https"):
                continue
            if registrable_domain(child) not in allowed_domains:
                continue
            if child not in seen:
                seen.add(child)
                frontier.append(child)

    if not store.pages:
        store.crawl_failed = True
        if store.fetch_failures and not any_seed_ok:
            store.failure_reason = "seeds unreachable"
        else:
            store.failure_reason = "no pages stored"
    return store


def dump_snapshot(store: PageStore, out_dir: str | Path) -> None:
    """Write a PageStore as a snapshot directory (round-trips through
    ``snapshot_fetch``)."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, page in enumerate(store.pages):
        suffix = ".html" if _is_html(page.content_type, page.url) else ".bin"
        name = f"page{idx:04d}{suffix}"
        (root / name).write_bytes(page.body)
        entries.append({"file": name, "url": page.url, "content_type": page.content_type})
    write_jsonl(root / "manifest.jsonl", entries)
