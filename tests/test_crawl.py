import json
from urllib.robotparser import RobotFileParser

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.crawl import (
    CrawlBudget,
    _robots_allow,
    _robots_rules,
    _RobotsCache,
    crawl_site,
    dump_snapshot,
)
from localmine.discovery import CandidateSite
from localmine.fetching import FetchResponse, load_manifest, snapshot_fetch
from localmine.htmltext import extract_links


def make_site(seed="https://site.example.com/index.html", host="example.com"):
    return CandidateSite(host=host, seed_urls=[seed], source="archive")


class CountingFetch:
    """In-memory site with a fetch-call tally."""

    def __init__(self, pages: dict, robots: str | None = None):
        self.pages = pages
        self.robots = robots
        self.calls = []

    def __call__(self, url, timeout=30.0):
        self.calls.append(url)
        if url.endswith("/robots.txt"):
            if self.robots is None:
                return FetchResponse(404, "", b"")
            return FetchResponse(200, "text/plain", self.robots.encode())
        body = self.pages.get(url)
        if body is None:
            return FetchResponse(404, "", b"")
        return FetchResponse(200, "text/html", body.encode("utf-8"))

    @property
    def page_fetches(self):
        return [u for u in self.calls if not u.endswith("/robots.txt")]


def chain_pages(n, base="https://site.example.com", off_domain=()):
    """Page i links to page i+1 plus any off-domain URLs."""
    pages = {}
    for i in range(n):
        nxt = f'<a href="{base}/p{i + 1}.html">next</a>' if i + 1 < n else ""
        extra = "".join(f'<a href="{u}">x</a>' for u in off_domain)
        url = f"{base}/index.html" if i == 0 else f"{base}/p{i}.html"
        pages[url] = f"<html><body><p>page {i} text</p>{nxt}{extra}</body></html>"
    return pages


class TestBudget:
    def test_max_pages_exact(self):
        fetch = CountingFetch(chain_pages(10))
        budget = CrawlBudget(max_pages=5, per_host_delay_ms=0)
        store = crawl_site(make_site(), budget, fetch)
        assert len(store.pages) == 5
        assert len(fetch.page_fetches) <= 5
        # BFS chain order from the seed
        assert store.pages[0].url == "https://site.example.com/index.html"
        assert store.pages[1].url == "https://site.example.com/p1.html"

    def test_max_bytes_cap(self):
        fetch = CountingFetch(chain_pages(10))
        page_size = len(fetch.pages["https://site.example.com/index.html"].encode())
        budget = CrawlBudget(max_bytes=page_size * 2 + 10, per_host_delay_ms=0)
        store = crawl_site(make_site(), budget, fetch)
        assert store.stored_bytes() <= budget.max_bytes

    def test_time_budget(self):
        fetch = CountingFetch(chain_pages(50))
        clock_value = [0.0]

        def clock():
            clock_value[0] += 1.0
            return clock_value[0]

        budget = CrawlBudget(max_seconds=10, per_host_delay_ms=0)
        store = crawl_site(make_site(), budget, fetch, clock=clock, sleep=lambda s: None)
        assert len(store.pages) < 50

    def test_budget_property_fuzz(self):
        for max_pages in (1, 3, 7, 30):
            for max_bytes in (100, 1000, 10**6):
                fetch = CountingFetch(chain_pages(12))
                budget = CrawlBudget(max_pages=max_pages, max_bytes=max_bytes, per_host_delay_ms=0)
                store = crawl_site(make_site(), budget, fetch)
                assert len(fetch.page_fetches) <= max_pages
                assert store.stored_bytes() <= max_bytes


class TestPoliteness:
    def test_robots_disallow_all(self):
        fetch = CountingFetch(chain_pages(3), robots="User-agent: *\nDisallow: /\n")
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), fetch)
        assert len(store.pages) == 0
        assert store.crawl_failed
        assert fetch.page_fetches == []

    def test_robots_partial_disallow(self):
        pages = chain_pages(5)
        fetch = CountingFetch(pages, robots="User-agent: *\nDisallow: /p2.html\n")
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), fetch)
        assert "https://site.example.com/p2.html" not in [p.url for p in store.pages]

    def test_per_host_delay(self):
        fetch = CountingFetch(chain_pages(4))
        sleeps = []
        clock_value = [0.0]

        def clock():
            return clock_value[0]

        def sleep(seconds):
            sleeps.append(seconds)
            clock_value[0] += seconds

        crawl_site(make_site(), CrawlBudget(per_host_delay_ms=500), fetch, clock=clock, sleep=sleep)
        assert len(sleeps) >= 3
        assert all(s > 0.0 for s in sleeps)


class TestConfinement:
    def test_off_domain_links_never_fetched(self):
        off = ("https://evil.example.org/x.html", "http://other.net/y", "https://cdn.example.io/z")
        fetch = CountingFetch(chain_pages(30, off_domain=off))
        store = crawl_site(make_site(), CrawlBudget(max_pages=100, per_host_delay_ms=0), fetch)
        assert len(store.pages) == 30
        fetched_hosts = {u.split("/")[2] for u in fetch.page_fetches}
        assert fetched_hosts == {"site.example.com"}

    def test_subdomains_of_same_site_allowed(self):
        base = "https://site.example.com"
        pages = chain_pages(2)
        pages[f"{base}/index.html"] += '<a href="https://ja.example.com/s.html">s</a>'
        pages["https://ja.example.com/s.html"] = "<p>sub</p>"
        fetch = CountingFetch(pages)
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), fetch)
        assert "https://ja.example.com/s.html" in [p.url for p in store.pages]


class TestFailureModes:
    def test_link_extraction_failure_keeps_the_page(self, monkeypatch):
        def broken(body):
            if b"page 1 " in body:
                raise ValueError("unparseable markup")
            return extract_links(body)

        monkeypatch.setattr("localmine.crawl.extract_links", broken)
        fetch = CountingFetch(chain_pages(4))
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), fetch)
        assert [p.url for p in store.pages] == [
            "https://site.example.com/index.html",
            "https://site.example.com/p1.html",
        ]

    # urljoin rejects the first three links.  The fourth is in the
    # site's domain, but the robots check unquotes it to a host with a
    # bracket, which urlparse rejects.
    @pytest.mark.parametrize("href, robots", [
        ("http://[oops/x", None),
        ("//[::1/x", None),
        ("http://a]b/", None),
        ("https://ja%5B.example.com/x.html", "User-agent: *\nDisallow: /private/\n"),
    ], ids=["unclosed-bracket", "scheme-relative-ipv6", "stray-bracket", "robots-bracket-host"])
    def test_malformed_link_never_fails_the_site(self, href, robots):
        seed = "https://site.example.com/index.html"
        other = "https://site.example.com/other.html"
        pages = {
            seed: f'<html><body><a href="{href}">bad</a><a href="{other}">ok</a></body></html>',
            other: "<html><body><p>other page</p></body></html>",
        }
        store = crawl_site(make_site(seed), CrawlBudget(per_host_delay_ms=0),
                           CountingFetch(pages, robots=robots))
        assert [p.url for p in store.pages] == [seed, other]

    def test_all_seeds_unreachable(self):
        fetch = CountingFetch({})
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), fetch)
        assert store.crawl_failed
        assert store.fetch_failures == 1

    def test_binary_documents_skipped_without_extractor(self):
        """PDF/Word bodies, by declared type or by URL extension, are
        counted in ``skipped_binary`` and never stored or parsed."""
        binary = {
            "https://site.example.com/doc.pdf": "application/pdf",
            "https://site.example.com/download?id=7": "application/pdf",
            "https://site.example.com/report.docx": "text/html",
            "https://site.example.com/memo": "application/msword",
        }
        # Were a skipped body parsed, its link would be followed.
        linked = '<html><body><a href="/hidden.html">more</a></body></html>'

        class BinaryFetch(CountingFetch):
            def __call__(self, url, timeout=30.0):
                if url in binary:
                    self.calls.append(url)
                    return FetchResponse(200, binary[url], linked.encode("utf-8"))
                return super().__call__(url, timeout)

        pages = chain_pages(2)
        pages["https://site.example.com/index.html"] += "".join(
            f'<a href="{url}">d</a>' for url in binary
        )
        pages["https://site.example.com/hidden.html"] = "<p>only linked from binaries</p>"
        fetch = BinaryFetch(pages)
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), fetch)
        assert set(binary) <= set(fetch.page_fetches)
        assert "https://site.example.com/hidden.html" not in fetch.calls
        assert store.skipped_binary == len(binary)
        assert store.skipped_other == 0
        assert [p.url for p in store.pages] == [
            "https://site.example.com/index.html",
            "https://site.example.com/p1.html",
        ]


class TestSnapshot:
    def test_snapshot_fetch_serves_the_manifest(self, tmp_path):
        (tmp_path / "a.html").write_text("<a href='b.html'>a</a>", encoding="utf-8")
        (tmp_path / "b.html").write_text("<p>b</p>", encoding="utf-8")
        manifest = [
            {"file": "a.html", "url": "https://s.example.com/a.html", "content_type": "text/html"},
            {"file": "b.html", "url": "https://s.example.com/b.html", "content_type": "text/html"},
        ]
        (tmp_path / "manifest.jsonl").write_text(
            "\n".join(json.dumps(m) for m in manifest) + "\n", encoding="utf-8"
        )
        fetch = snapshot_fetch(tmp_path)
        site = make_site("https://s.example.com/a.html")
        store = crawl_site(site, CrawlBudget(per_host_delay_ms=0), fetch)
        assert [p.url for p in store.pages] == [m["url"] for m in manifest]
        assert store.pages[1].body == b"<p>b</p>"
        assert fetch("https://s.example.com/c.html").status == 404

    def test_empty_snapshot(self, tmp_path):
        (tmp_path / "manifest.jsonl").write_text("", encoding="utf-8")
        assert load_manifest(tmp_path) == []
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), snapshot_fetch(tmp_path))
        assert len(store.pages) == 0
        assert store.crawl_failed

    def test_missing_manifest_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            snapshot_fetch(tmp_path)

    def test_crawl_equals_snapshot_content(self, tmp_path, fixture_site):
        """An unlimited-budget crawl over the snapshot covers exactly the
        linked pages of the snapshot."""
        fetch = snapshot_fetch(fixture_site.snapshot_dir)
        site = CandidateSite(
            host="example-news.jp",
            seed_urls=[
                "https://example-news.jp/ja/index.html",
                "https://example-news.jp/zh/index.html",
            ],
            source="crowd",
        )
        store = crawl_site(site, CrawlBudget(per_host_delay_ms=0), fetch)
        linked = {p.url for p in store.pages}
        from_manifest = {
            e["url"] for e in load_manifest(fixture_site.snapshot_dir)
            if not e["url"].endswith("robots.txt")
        }
        assert linked == from_manifest

    def test_dump_roundtrip(self, tmp_path):
        fetch = CountingFetch(chain_pages(3))
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), fetch)
        dump_snapshot(store, tmp_path / "dump")
        assert [e["url"] for e in load_manifest(tmp_path / "dump")] == [p.url for p in store.pages]
        again = crawl_site(
            make_site(), CrawlBudget(per_host_delay_ms=0), snapshot_fetch(tmp_path / "dump")
        )
        assert [p.url for p in again.pages] == [p.url for p in store.pages]
        assert [p.body for p in again.pages] == [p.body for p in store.pages]


def robots_answers(text: str, url: str):
    """The crawl's answer for ``url`` under robots file ``text`` and
    ``urllib.robotparser``'s, each True/False or the type of the error
    it raised.  A file whose parse raises counts as absent (allow all)."""

    def answer(parse, can_fetch):
        try:
            parsed = parse()
        except Exception:
            return True
        try:
            return can_fetch(parsed, url)
        except Exception as err:
            return type(err)

    def stdlib_parse():
        parser = RobotFileParser()
        parser.parse(text.splitlines())
        return parser

    ours = answer(lambda: _robots_rules(text), _robots_allow)
    stdlib = answer(stdlib_parse, lambda parser, u: parser.can_fetch("*", u))
    return ours, stdlib


PIECES = [
    "*", "", "/", "/a", "/a/b", "/a/", "b", "%7E", "~", "%7e", "?", "?q=1", "#", "#x",
    ";", ";p", " ", "%20", "\t", "é", "ページ", "%E3%83%9A", "%", "%2A", "%5B", "http://[",
    "http://h.example/a", "googlebot", "Bot", "1", "5", "²",
]
values = st.lists(st.sampled_from(PIECES), max_size=4).map("".join)
rule_paths = st.sampled_from(
    ["/a", "/a/b", "/", "", "/a/b/c", "/~", "/%7E", "/a?q", "/a;p", "/a b", "/ページ", "*", "/*"]
)
# Each key mostly draws the values that make it bite: agents that apply
# to "*", paths under the URLs' paths, delays and rates that parse.
FIELDS = {
    "user-agent": st.sampled_from(
        ["*", "*", "*", "", "", "googlebot", "Bot", "%2A", "ページ", "*/1"]
    ),
    "allow": rule_paths | st.tuples(rule_paths, st.sampled_from(PIECES)).map("".join),
    "crawl-delay": st.sampled_from(["5", "²", " 1 ", "x"]) | values,
    "request-rate": st.sampled_from(["1/5", "1/²", "1/5/2", "x/5"]) | values,
    "sitemap": values,
    "noindex": values,
}
FIELDS["disallow"] = FIELDS["allow"]
KEYS = ["disallow", "allow", "disallow", "user-agent", *FIELDS]


@st.composite
def robots_lines(draw):
    kind = draw(st.sampled_from(["field"] * 8 + ["empty", "whitespace", "comment", "no-colon"]))
    if kind == "empty":
        return ""
    if kind == "whitespace":
        return draw(st.sampled_from([" ", "\t", "  \t"]))
    if kind == "comment":
        return "#" + draw(values)
    name = draw(st.sampled_from(KEYS))
    key = "".join(c.upper() if draw(st.booleans()) else c for c in name)
    if kind == "no-colon":
        return key + " " + draw(FIELDS[name])
    sep = draw(st.sampled_from([":", ": ", " : ", ":\t"]))
    return draw(st.sampled_from(["", " "])) + key + sep + draw(FIELDS[name]) + draw(
        st.sampled_from(["", " ", " # note"])
    )


rule_lines = st.tuples(
    st.sampled_from(["Disallow: ", "Allow: ", "disallow:", "ALLOW :"]), FIELDS["allow"]
).map("".join)
# Groups (agent lines, then mostly rules, each maybe followed by a
# separator that may or may not end the group), or lines at random.
# Hypothesis favours the first branch and the first elements, so the
# ones that make rules apply come first.
separators = st.lists(st.sampled_from(["", " ", "# end"]), max_size=1)
groups = st.tuples(
    st.lists(FIELDS["user-agent"].map("User-agent: ".__add__), min_size=1, max_size=2),
    separators,
    st.lists(rule_lines | rule_lines | robots_lines(), min_size=1, max_size=5),
    separators,
).map(lambda group: [line for part in group for line in part])
robots_files = st.tuples(
    st.lists(groups, max_size=4).map(lambda gs: [line for g in gs for line in g])
    | st.lists(robots_lines(), max_size=14),
    st.sampled_from(["\n", "\r\n"]),
).map(lambda t: t[1].join(t[0]))

urls = st.tuples(
    st.sampled_from(["/a/b/c", "/a/b", "/a", "/", "", "/%7e", "/~", "/%E3%83%9A", "/*"]),
    st.just("") | values,
).map("".join)


# One example per quirk of urllib.robotparser: (robots.txt, URL path, allowed).
# A rule path "*" is quoted to "%2A", so it matches no absolute path.
QUIRKS = {
    "first-match-not-longest": ("User-agent: *\nAllow: /a\nDisallow: /a/b\n", "/a/b/c", True),
    "first-match-disallow": ("User-agent: *\nDisallow: /a/b\nAllow: /a\n", "/a/b/c", False),
    "empty-disallow-allows-all": ("User-agent: *\nDisallow:\nDisallow: /\n", "/x", True),
    "empty-line-discards-ruleless-group": ("User-agent: *\n\nDisallow: /\n", "/x", True),
    "whitespace-line-keeps-group": ("User-agent: *\n \nDisallow: /\n", "/x", False),
    "comment-line-keeps-group": ("User-agent: *\n# note\nDisallow: /\n", "/x", False),
    "crawl-delay-closes-agents": (
        "User-agent: *\nCrawl-delay: 5\nUser-agent: bot\nDisallow: /\n", "/x", True
    ),
    "request-rate-closes-agents": (
        "User-agent: *\nRequest-rate: 1/5\nUser-agent: bot\nDisallow: /\n", "/x", True
    ),
    "agent-lines-share-rules": ("User-agent: *\nUser-agent: bot\nDisallow: /\n", "/x", False),
    "first-star-group-only": (
        "User-agent: *\nDisallow: /a\n\nUser-agent: *\nDisallow: /\n", "/b", True
    ),
    "empty-agent-beats-star": ("User-agent: *\nDisallow: /\n\nUser-agent:\nAllow: /\n", "/x", True),
    "empty-agent-among-others": (
        "User-agent: bot\nUser-agent:\nDisallow: /x\n\nUser-agent: *\n", "/x", False
    ),
    "star-path-is-literal": ("User-agent: *\nDisallow: *\n", "/x", True),
    "star-path-matches-star": ("User-agent: *\nDisallow: /*\n", "/*", False),
    "escaped-rule-plain-url": ("User-agent: *\nDisallow: /%7Efoo\n", "/~foo/page", False),
    "plain-rule-escaped-url": ("User-agent: *\nDisallow: /~foo\n", "/%7efoo/page", False),
    "space-quoted-alike": ("User-agent: *\nDisallow: /a b\n", "/a%20b", False),
    "query-kept-in-path": ("User-agent: *\nDisallow: /a?q\n", "/a?q=1", False),
    "empty-path-is-root": ("User-agent: *\nDisallow: /\n", "", False),
    "no-group-for-star": ("User-agent: bot\nDisallow: /\n", "/x", True),
}


class TestRobotsOracle:
    """``_robots_rules`` and ``_robots_allow`` answer exactly what
    ``RobotFileParser.can_fetch("*", url)`` answers."""

    @settings(max_examples=600, deadline=None)
    @given(text=robots_files, paths=st.lists(urls, min_size=1, max_size=4))
    def test_agrees_with_urllib_robotparser(self, text, paths):
        for path in paths:
            ours, stdlib = robots_answers(text, "http://h.example" + path)
            assert ours == stdlib

    @pytest.mark.parametrize("text, url, expected", QUIRKS.values(), ids=list(QUIRKS))
    def test_quirk(self, text, url, expected):
        assert robots_answers(text, "http://h.example" + url) == (expected, expected)

    @pytest.mark.parametrize(
        "text",
        [
            "User-agent: *\nDisallow: /\nDisallow: http://[\n",
            "User-agent: *\nDisallow: /\nCrawl-delay: ²\n",
        ],
        ids=["unparseable-path", "unreadable-digit"],
    )
    def test_a_file_whose_parse_raises_is_absent(self, text):
        with pytest.raises(ValueError):
            RobotFileParser().parse(text.splitlines())
        with pytest.raises(ValueError):
            _robots_rules(text)
        fetch = CountingFetch(chain_pages(3), robots=text)
        store = crawl_site(make_site(), CrawlBudget(per_host_delay_ms=0), fetch)
        assert len(store.pages) == 3

    def test_rules_are_cached_per_origin(self):
        fetch = CountingFetch({}, robots="User-agent: *\nDisallow: /p\n")
        robots = _RobotsCache(fetch, 1.0)
        answers = [robots.allowed(f"https://a.example/{p}") for p in ("p", "q", "p2")]
        answers.append(robots.allowed("http://a.example/p"))
        assert answers == [False, True, False, False]
        assert fetch.calls == ["https://a.example/robots.txt", "http://a.example/robots.txt"]
