import gc
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localmine import htmltext
from localmine.crawl import CrawlBudget, crawl_site
from localmine.discovery import scan_archive
from localmine.htmltext import EncodingError, decode_html, extract_links, extract_page
from localmine.text import Document, LanguageTag, detect_language, document_from_text, \
    normalize_text, split_sentences

from reference_html import open_construct_start, reference_extract
from test_crawl import CountingFetch, make_site


class TestExtractText:
    def test_paragraphs_and_digest(self):
        text, digest, _ = extract_page("<p>你好</p><p>世界</p>")
        assert text == "你好\n世界"
        assert digest == ["p", "p"]

    def test_script_stripped(self):
        text, _, _ = extract_page("<script>x=1</script><p>hi</p>")
        assert text == "hi"

    @pytest.mark.parametrize("tag", ["script", "style"])
    def test_self_closing_skip_tag_keeps_the_rest(self, tag):
        """A self-closing ``<script/>`` or ``<style/>`` has no content to
        drop, so the text after it survives."""
        text, digest, _ = extract_page(f"<{tag} src='a.js'/><p>本文</p>".encode("utf-8"))
        assert text == "本文"
        assert digest == ["p"]

    def test_style_and_comments_stripped(self):
        text, _, _ = extract_page("<style>p{}</style><!-- c --><p>a</p>")
        assert text == "a"

    def test_golden_page(self):
        html = (
            "<html><head><title>見出し</title></head><body>"
            "<h1>記事</h1><p>一文目。</p><div><a href='/x'>リンク</a></div>"
            "<ul><li>項目</li></ul><img src='a.png'></body></html>"
        )
        text, digest, _ = extract_page(html)
        assert text == "見出し\n記事\n一文目。\nリンク\n項目"
        assert digest == ["title", "h1", "p", "div", "a", "li", "img"]

    def test_entities_decoded(self):
        text, _, _ = extract_page("<p>a&amp;b</p>")
        assert text == "a&b"

    def test_no_control_chars_except_lf(self):
        text, _, _ = extract_page("<p>a\x01b\tc</p><p>d</p>")
        assert all(ch == "\n" or ord(ch) >= 0x20 for ch in text)

    def test_malformed_html_is_not_fatal(self):
        text, _, _ = extract_page("<p>open<div<b>odd</p> tail")
        assert "open" in text


class TestDecoding:
    def test_utf8_first(self):
        assert decode_html("日本".encode("utf-8")) == "日本"

    def test_meta_shift_jis_fallback(self):
        body = "<html><head><meta charset=shift_jis></head><body><p>日本語</p></body></html>"
        raw = body.encode("cp932")
        text, _, _ = extract_page(raw)
        assert "日本語" in text

    def test_meta_gbk_fallback(self):
        body = '<html><head><meta http-equiv="Content-Type" content="text/html; charset=gbk"></head><body><p>中文页面</p></body></html>'
        raw = body.encode("gbk")
        text, _, _ = extract_page(raw)
        assert "中文页面" in text

    def test_undecodable_raises_encoding_error(self):
        with pytest.raises(EncodingError):
            decode_html(b"\xff\xfe\x99" + "日本".encode("cp932"))

    @pytest.mark.parametrize("charset", ["utf-16", "UTF-16LE", "utf-16be", "utf-32", "cp037"])
    def test_charset_not_read_as_ascii_is_rejected(self, charset):
        """A page whose meta tag reads as ASCII is not UTF-16 or UTF-32
        (nor EBCDIC): this Latin-1 page of even length would decode as
        UTF-16 into Han characters and be tagged Chinese."""
        page = f'<html><head><meta charset="{charset}"></head><body><p>café crème</p></body></html>'
        raw = (page + " " * (-len(page) % 4)).encode("latin-1")
        if charset.lower().startswith("utf-16"):
            assert raw.decode(charset)  # the codec alone reads it
        with pytest.raises(EncodingError):
            decode_html(raw)
        assert scan_archive([("https://a.example.com/1", raw)]).skipped_records == 1

    @pytest.mark.parametrize("charset", ["x-unknown", "hex", "punycode"])
    def test_charset_without_a_text_codec_is_rejected(self, charset):
        raw = f'<meta charset="{charset}"><p>café</p>'.encode("latin-1")
        with pytest.raises(EncodingError):
            decode_html(raw)

    def test_leading_byte_order_mark_is_dropped(self):
        page = '<html><body><h1>会议通知</h1><p>明天朋友在北京吃料理。</p><a href="/x">x</a></body></html>'
        plain = extract_page(page)
        assert plain[0] == "会议通知\n明天朋友在北京吃料理。\nx"
        for marked in ("\ufeff" + page, ("\ufeff" + page).encode("utf-8")):
            assert extract_page(marked) == plain
            assert extract_links(marked) == plain[2]
        assert extract_page("\ufeff\ufeff" + page)[0] == "\ufeff\n" + plain[0]  # one is dropped


class TestLinks:
    def test_document_order(self):
        links = extract_links("<a href='/a'>1</a><p><a href='/b'>2</a></p>")
        assert links == ["/a", "/b"]


class TestOutputChanges:
    """Where the tokenizer's output differs from ``HTMLParser``'s."""

    def test_open_construct_ends_the_text(self):
        """The construct's text and any link after it are dropped, where
        ``HTMLParser.close`` kept them as text and parsed on."""
        page = '<p>kept <a href="/b">b</a></p><!-- open > <a href="/c">c</a> tail'
        assert extract_page(page) == ("kept b", ["p", "a"], ["/b"])
        assert reference_extract(page) == ('kept b\n<!-- open > c tail', ["p", "a", "a"], ["/b", "/c"])

    @pytest.mark.parametrize("section, rest", [
        ("<![foo[x]>y]]>", "y]]>"), ("<![ CDATA[x>y]]>", "y]]>"), ("<![9>y", "y"),
    ])
    def test_unknown_marked_section_is_a_bogus_comment(self, section, rest):
        """``HTMLParser`` raised AssertionError on these; they now end at
        the next ``>`` as the HTML5 tokenizer's bogus comment does."""
        page = f"<p>a</p>{section}<p>b</p>"
        with pytest.raises(AssertionError):
            reference_extract(page)
        assert extract_page(page)[0] == f"a\n{rest}\nb"


# Text with runs of line breaks of every kind, with spaces, tabs and
# combining marks beside them, inside blocks, <br>, <pre> and inline tags.
_BREAKING_MARKUP = st.lists(st.sampled_from([
    "a", "日本語。", "中文", "e\u0301", "\u0301", "\u3099", "\uff21", " ", "  ", "\t", "\u3000",
    "\u00a0", "\n", "\n\n", "\r", "\r\n", "\u2028", "\u2029", "\x85", "\x0b",
    "<p>", "</p>", "<br>", "<pre>", "</pre>", "<div>", "<span>", "</span>",
]), max_size=24).map("".join)


def _former_page_text(markup: str) -> str:
    """``extract_page``'s text as it was while ``document_from_text``
    normalized each line again: one space per line feed in a line."""
    markup = htmltext._markup(markup)
    lines = [line.replace("\x00", " ") for line in htmltext._scan(markup, True)[0]]
    text = normalize_text(htmltext._CONTROL_RE.sub(" ", "\x00".join(lines)))
    lines = [line.strip().replace("\n", " ") for line in text.split("\x00")]
    return "\n".join(line for line in lines if line)


def _former_document(url: str, text: str, tag_digest: list[str]) -> Document:
    """``document_from_text`` as it was, normalizing each line again."""
    normalized_lines = [normalize_text(line) for line in text.split("\n")]
    body = "\n".join(line for line in normalized_lines if line)
    lang = detect_language(body)[0] if body else LanguageTag.OTHER
    sentences = [s for line in body.split("\n") for s in split_sentences(line)]
    return Document(url=url, lang=lang, sentences=sentences, tag_digest=list(tag_digest),
                    raw_char_count=sum(s.char_len for s in sentences))


class TestNormalizedLines:
    """Each line ``extract_page`` returns is normalized text, so
    ``document_from_text`` reads the lines as given."""

    def test_a_run_of_line_feeds_is_one_space(self):
        page = "<p>a\n\nb</p><p>c \u2028\u2029 d</p><pre>x\n\n\ny</pre>"
        assert extract_page(page)[0] == "a b\nc d\nx y"
        assert _former_page_text(page) == "a  b\nc  d\nx   y"

    @given(_BREAKING_MARKUP)
    @settings(max_examples=500, deadline=None)
    def test_every_line_is_a_fixed_point_of_normalize_text(self, markup):
        text = extract_page(markup)[0]
        for line in text.split("\n") if text else []:
            assert line and normalize_text(line) == line

    @given(_BREAKING_MARKUP)
    @settings(max_examples=500, deadline=None)
    def test_documents_equal_the_former_double_normalized_ones(self, markup):
        text, digest, _ = extract_page(markup)
        assert document_from_text("https://a.jp/", text, digest) == (
            _former_document("https://a.jp/", _former_page_text(markup), digest))


# The hostile bodies: each repeats one construct left open at end of input.
HOSTILE = ["<a x=", "<!--", "</a", "<!", "<?"]


def _best_times(fn, *markups: str) -> list[float]:
    """Each markup's fastest mean of 5 calls in 7 rounds, the markups
    taking turns so that a slow stretch of the machine slows them alike,
    with no garbage collection in between."""
    best = [float("inf")] * len(markups)
    gc.collect()
    gc.disable()
    try:
        for _ in range(7):
            for k, markup in enumerate(markups):
                start = time.perf_counter()
                for _ in range(5):
                    fn(markup)
                best[k] = min(best[k], (time.perf_counter() - start) / 5)
    finally:
        gc.enable()
    return best


class TestHostileMarkup:
    """``HTMLParser.close`` rescanned an open construct's rest once per
    ``<``: 3.0 s for 25 kB of ``<a x=`` and 50 s for 100 kB."""

    @pytest.mark.parametrize("fn", [extract_page, extract_links], ids=["page", "links"])
    @pytest.mark.parametrize("unit", HOSTILE)
    def test_linear_time(self, unit, fn):
        small, large = _best_times(fn, unit * (25_000 // len(unit)), unit * (100_000 // len(unit)))
        assert small < 1.0 and large < 1.0
        assert large < 6 * small

    def test_crawl_stores_the_page_and_follows_no_link_inside(self):
        seed = "https://site.example.com/index.html"
        other = "https://site.example.com/b.html"
        trap = "https://site.example.com/c.html"
        pages = {
            seed: f'<p><a href="{other}">b</a></p>' + f"<a href={trap} x=" * 4000,
            other: "<p>page b</p>",
            trap: "<p>page c</p>",
        }
        fetch = CountingFetch(pages)
        store = crawl_site(make_site(seed), CrawlBudget(per_host_delay_ms=0), fetch)
        assert [p.url for p in store.pages] == [seed, other]
        assert trap not in fetch.page_fetches


# A grammar of markup fragments: tags with every kind of attribute,
# script and style bodies, comments, declarations, references, control
# characters and CJK text, then possibly a construct left open.
_NAMES = st.sampled_from(["p", "P", "div", "a", "A", "br", "li", "td", "h1", "title",
                          "img", "span", "x-y", "p:q", "bl\u212aockquote", "ul"])
_SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", "/", " / ", "\x0b", "\x0c", "\u3000"])
_TEXT = st.lists(st.sampled_from(
    list("ab xyz-/;#=\"'日本語中文\t\n\r\x00\x01\x0b\x1c\x85\u3000\u0301\uff21ſ")
    + ["&amp;", "&amp", "&lt", "&#60;", "&#60", "&#x3C;", "&#x3c", "&#1;", "&#0;", "&nbsp",
       "&notin;", "&notit;", "&#xD800;", "&#128;", "&bogus;", "&", "<", "< ", "<3", "<<"]),
    max_size=12).map("".join)
_VALUE = st.one_of(
    st.builds("'{}'".format, _TEXT.map(lambda t: t.replace("'", ""))),
    st.builds('"{}"'.format, _TEXT.map(lambda t: t.replace('"', ""))),
    st.sampled_from(["x", "/a/b.html", "a&amp;b", "1/", "&lt;x&gt;", "", "a=b", "ſ", "&#1;"]),
)
_ATTRIBUTE = st.builds(
    lambda space, name, eq, value: space + name + (eq + value if eq is not None else ""),
    st.sampled_from([" ", "  ", "\n", "/", " /", "'"]),
    st.sampled_from(["href", "HREF", "Href", "class", "x", "data-a", "'q"]),
    st.none() | st.sampled_from(["=", " = ", "==", "\n=\t"]),
    _VALUE,
)
_START_TAG = st.builds(
    lambda name, attrs, space, close: f"<{name}{''.join(attrs)}{space}{close}",
    _NAMES, st.lists(_ATTRIBUTE, max_size=3), _SPACE, st.sampled_from([">", "/>", " />"]))
_END_TAG = st.one_of(
    st.builds(lambda pad, name, tail: f"</{pad}{name}{tail}>", st.sampled_from(["", " ", "\n"]),
              _NAMES, st.sampled_from(["", " ", "\t", " x='>'", "/", "\x0b"])),
    st.sampled_from(["</>", "</ x>", "</3>", "</ſcript>", "</script>"]),
)
_RAW = st.lists(st.sampled_from(list("ab <>/'\"-!") + ["</x", "</scriptx>", "</ script", "&amp;"]),
                max_size=12).map("".join)
_SKIPPED = st.builds(
    lambda tag, attrs, body, close: f"<{tag}{attrs}>{body}{close}",
    st.sampled_from(["script", "style", "SCRIPT", "Style"]),
    st.sampled_from(["", " src='a.js'", ' type="x>y"']),
    _RAW,
    st.sampled_from(["</script>", "</style>", "</SCRIPT >", "</style\n>", "</ script>", "</ſcript>", ""]),
)
_SELF_CLOSING = st.sampled_from(["<script/>", "<style />", "<script src=a.js />", "<script x=a/>"])
# A tag name ended by NUL is no tag: its text is kept as written.
_NOT_A_TAG = st.sampled_from(["<a&amp;\x00", "<p&lt;b\x00>", "<b\x00c", "<script\x00>"])
_COMMENT = st.builds(
    lambda body, close: f"<!--{body}{close}",
    st.lists(st.sampled_from(list("ab ->!<") + ["- ->", "--!", "\n"]), max_size=8).map("".join),
    st.sampled_from(["-->", "-- >", "--\n>", "--->"]),
)
_DECLARATION = st.sampled_from([
    "<!DOCTYPE html>", "<!doctype x 'y'>", "<!x>", "<!>", "<?xml version='1.0'?>", "<?php x ?>",
    "<![CDATA[a<b>c]]>", "<![cdata[x] ]>", "<![if !IE]>", "<![if a>b]>", "<![endif]>", "<!-->", "<!--->",
])
_OPEN = st.sampled_from([
    "", "", "", "<a x=", "<a href='/x' title=", "<p class=\"x", "<!--", "<!-- a > b", "</a", "</",
    "<!", "<!doctype", "<?", "<![CDATA[x", "<![if", "<div", "<p x", "<a/",
])
_MARKUP = st.builds(
    lambda pieces, open_tail, tail: "".join(pieces) + open_tail + tail,
    st.lists(st.one_of(_TEXT, _START_TAG, _END_TAG, _SKIPPED, _SELF_CLOSING, _NOT_A_TAG, _COMMENT,
                       _DECLARATION), max_size=12),
    _OPEN,
    st.one_of(st.just(""), _TEXT, _START_TAG.map(lambda tag: tag + '<a href="/after">x</a>')),
)


class TestEqualsReference:
    """The tokenizer against ``HTMLParser`` (CPython 3.11.7, from the copy
    under ``tests/cpython``) with the former handler: where a construct
    is left open at end of input, against the markup before it."""

    @given(_MARKUP)
    @settings(max_examples=1500, deadline=None)
    def test_extract_page_and_links(self, markup):
        try:
            start = open_construct_start(markup)
            expected = reference_extract(markup if start is None else markup[:start])
        except AssertionError:  # an unknown marked section; pinned above
            assume(False)
        assert extract_page(markup) == expected
        assert extract_links(markup) == expected[2]

    @pytest.mark.parametrize("markup", [
        "<a href='&#1;'>a</a><a href=&#1;&#1;>b</a><a href>c</a><a href=''>d</a>",
        "<A HREF='/x' href=/y Href>e</A>",
        *("<p>a<a" + " x=1" * count + " href='/h'>b</a><p>c" for count in (63, 64, 65, 200)),
    ])
    def test_case(self, markup):
        """Hrefs that unescape to nothing, repeated ones, and tags whose
        attributes take more than one 64-attribute match."""
        expected = reference_extract(markup)
        assert expected[2] in ([], ["/x", "/y"], ["/h"])
        assert extract_page(markup) == expected
        assert extract_links(markup) == expected[2]
