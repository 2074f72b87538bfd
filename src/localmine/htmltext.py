"""HTML to text conversion with a structural tag digest.

One tokenizer scans the markup left to right with compiled regexes and
``str.find``, in time linear in its length.  It reads markup as CPython
3.11.7's ``html.parser.HTMLParser`` does (its tag, attribute, comment
and declaration regexes are copied here as constants, so extraction does
not move with the installed stdlib) and converts character references
per text chunk, as ``convert_charrefs=True`` does.
``tests/test_htmltext.py`` compares it with that parser, run from a
verbatim copy under ``tests/cpython``.  Only an ``a`` tag's attributes
are read; any other tag needs only its name and where it ends.

Script and style content is dropped (``<script/>`` drops nothing),
comments and declarations are skipped, block boundaries become newlines
and the digest records document-order structural tags.  A start or end
tag, comment, declaration or processing instruction whose end is not in
the markup ends the scan there: nothing from it on is text or a link,
as the HTML5 tokenizer ends such a construct at end of input.
(``HTMLParser.close`` instead rescans the rest once per ``<``, which is
quadratic.)  A marked section ``<![...`` with an unknown keyword, on
which ``HTMLParser`` raises, is skipped to the next ``>`` like any other
bogus comment.

Charset handling: UTF-8 first, then the declared meta charset
(Shift_JIS and GB* pages are common), then reject; a declared charset
whose codec does not read an ASCII meta tag as ASCII (UTF-16, UTF-32,
EBCDIC) is rejected too.  One leading byte-order mark is dropped.
"""

from __future__ import annotations

import re
import string
from html import unescape

from .text import normalize_text

# Tags whose start/end forces a line break in the extracted text.
_BLOCK_TAGS = {
    "address", "article", "aside", "blockquote", "br", "dd", "div", "dl",
    "dt", "fieldset", "figcaption", "figure", "footer", "form", "h1", "h2",
    "h3", "h4", "h5", "h6", "header", "hr", "li", "main", "nav", "ol", "p",
    "pre", "section", "table", "tbody", "td", "th", "thead", "title", "tr",
    "ul",
}
# Document-order digest of structural tags used for document similarity.
_DIGEST_TAGS = {
    "h1", "h2", "h3", "h4", "h5", "h6", "p", "li", "td", "div", "title",
    "img", "a",
}

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+?(?:charset\s*=\s*["']?([A-Za-z0-9_\-]+))""", re.IGNORECASE
)
_CHARSET_ALIASES = {"shift_jis": "cp932", "shift-jis": "cp932", "sjis": "cp932",
                    "gb2312": "gb18030", "gbk": "gb18030"}
# What a meta tag is written in: a codec that does not decode these
# ASCII bytes to the same text cannot be the charset such a tag declares.
_META_TEXT = string.ascii_letters + string.digits + " \t\r\n<>/=\"';:,.-_"
# Control characters but NUL and LF: each becomes a space in the text.
_CONTROL_RE = re.compile(r"[\x01-\x09\x0b-\x1f\x7f-\x9f]")
# A run of line feeds inside one extracted line: one space.
_LINE_FEEDS_RE = re.compile("\n+")

# CPython 3.11.7 html/parser.py: `tagfind_tolerant` and
# `attrfind_tolerant` read a start tag's name and attributes, and
# `endtagfind` a well-formed end tag.
_TAGFIND = r'([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*'
_ATTRFIND = (r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*'
             r'(\'[^\']*\'|"[^"]*"|(?![\'"])[^>\s]*))?(?:\s|/(?!>))*')
_TAGFIND_RE = re.compile(_TAGFIND)
_ATTRFIND_RE = re.compile(_ATTRFIND)
# Where a start tag's attributes end.  `HTMLParser` finds a tag's end
# with `locatestarttagend_tolerant`, which stops where these attributes
# stop, or past a `/` right before `>`.  This takes 64 attributes a
# match, the last one captured so that a 64th asks for more: one match
# over a hostile tag's thousands of attributes holds state for each, and
# its time per character grows with the tag.
_ATTRIBUTE = re.sub(r"\((?!\?)", "(?:", _ATTRFIND)  # without its groups
_START_TAG_RE = re.compile(rf"<{_TAGFIND}(?:{_ATTRIBUTE}){{0,63}}({_ATTRIBUTE})?")
_MORE_ATTRIBUTES_RE = re.compile(rf"(?:{_ATTRIBUTE}){{0,63}}({_ATTRIBUTE})?")
_ENDTAG_RE = re.compile(r'</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>')
# Where script and style content ends (`HTMLParser.set_cdata_mode`).
_CDATA_END_RE = {tag: re.compile(r'</\s*%s\s*>' % tag, re.I) for tag in ("script", "style")}
# CPython 3.11.7 _markupbase.py: comment and marked-section ends and
# the keyword of a marked section.
_COMMENT_END_RE = re.compile(r'--\s*>')
_DECL_NAME_RE = re.compile(r'[a-zA-Z][-_.a-zA-Z0-9]*\s*')
_MARKED_SECTION_END_RE = re.compile(r']\s*]\s*>')
_MS_MARKED_SECTION_END_RE = re.compile(r']\s*>')
_MARKED_SECTION_ENDS = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), _MARKED_SECTION_END_RE),
    **dict.fromkeys(("if", "else", "endif"), _MS_MARKED_SECTION_END_RE),
}
# `<p>` and `</p>`: a start tag without attributes or a well-formed end
# tag, which the regexes above would read the same way.
_PLAIN_TAG_RE = re.compile(r'<(/?)([a-zA-Z][a-zA-Z0-9]*)>')
_LETTERS = frozenset(string.ascii_letters)


class EncodingError(ValueError):
    """Raised when page bytes decode neither as UTF-8 nor as the charset
    declared in the markup."""


def decode_html(raw: bytes) -> str:
    """Decode page bytes: strict UTF-8, else the meta-declared charset."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        pass
    match = _META_CHARSET_RE.search(raw[:4096])
    if match:
        name = match.group(1).decode("ascii", "ignore").lower()
        name = _CHARSET_ALIASES.get(name, name)
        try:
            if _META_TEXT.encode("ascii").decode(name) == _META_TEXT:
                return raw.decode(name)
        except (LookupError, UnicodeError):
            pass
    raise EncodingError("encoding")


def _markup(html: bytes | str) -> str:
    markup = decode_html(html) if isinstance(html, bytes) else html
    return markup[1:] if markup.startswith("\ufeff") else markup


def _scan(markup: str, keep_text: bool) -> tuple[list[str], list[str], list[str]]:
    """Tokenize ``markup`` once; return its text lines (raw: block tags
    end a line), its tag digest and its link hrefs.  With ``keep_text``
    false the lines stay empty."""
    lines: list[str] = []
    parts: list[str] = []
    digest: list[str] = []
    links: list[str] = []
    find = markup.find
    n = len(markup)
    i = 0
    while i < n:
        lt = find("<", i)
        if lt < 0:
            lt = n
        if lt > i and keep_text:
            parts.append(unescape(markup[i:lt]))
        if lt == n:
            break
        i = lt
        m = _PLAIN_TAG_RE.match(markup, i)
        if m is not None:
            slash, tag = m.groups()
            tag = tag.lower()
            end = m.end()
            if slash:
                i = end
                if tag in _BLOCK_TAGS and parts:
                    lines.append("".join(parts))
                    parts = []
                continue
            self_closing = False
        else:
            c = markup[i + 1:i + 2]
            if c in _LETTERS:
                m = _START_TAG_RE.match(markup, i)
                tag, more = m.group(1, 2)
                k = m.end()
                while more is not None:  # a 64th attribute: there may be more
                    m = _MORE_ATTRIBUTES_RE.match(markup, k)
                    more = m.group(1)
                    k = m.end()
                tag = tag.lower()
                c = markup[k:k + 1]
                if c == ">":
                    end, self_closing = k + 1, False
                elif markup.startswith("/>", k):
                    end, self_closing = k + 2, True
                elif c == "" or c == "=" or c == "/" or c in _LETTERS:
                    break  # a start tag open at end of input
                else:  # not a tag: its text stays as it is
                    if keep_text:
                        parts.append(markup[i:k])
                    i = k
                    continue
            elif c == "/":
                gt = find(">", i + 2)
                if gt < 0:
                    break
                m = _ENDTAG_RE.match(markup, i)
                if m is None:
                    m = _TAGFIND_RE.match(markup, i + 2)
                i = gt + 1
                if m is not None and m.group(1).lower() in _BLOCK_TAGS and parts:
                    lines.append("".join(parts))
                    parts = []
                continue
            elif c == "!":
                if markup.startswith("<!--", i):
                    m = _COMMENT_END_RE.search(markup, i + 4)
                    if m is None:
                        break
                    i = m.end()
                    continue
                if markup.startswith("<![", i):
                    m = _DECL_NAME_RE.match(markup, i + 3)
                    if m is not None:
                        close = _MARKED_SECTION_ENDS.get(m.group().strip().lower())
                        if close is not None:
                            m = close.search(markup, i + 3)
                            if m is None:
                                break
                            i = m.end()
                            continue
                gt = find(">", i + 2)  # a doctype or bogus comment
                if gt < 0:
                    break
                i = gt + 1
                continue
            elif c == "?":
                gt = find(">", i + 2)
                if gt < 0:
                    break
                i = gt + 1
                continue
            else:
                if keep_text:
                    parts.append("<")
                i += 1
                continue
        # a start tag from i to end
        if tag == "script" or tag == "style":
            i = end
            if not self_closing:
                close = _CDATA_END_RE[tag]
                while True:
                    m = close.search(markup, i)
                    if m is None:
                        i = n  # the content runs to the end
                        break
                    i = m.end()
                    inner = _ENDTAG_RE.match(markup, m.start())
                    if inner is not None and inner.group(1).lower() == tag:
                        break
            continue
        if tag in _DIGEST_TAGS:
            digest.append(tag)
        if tag == "a":
            _hrefs(markup, i, end, links)
        if tag in _BLOCK_TAGS and parts:
            lines.append("".join(parts))
            parts = []
        i = end
    if parts:
        lines.append("".join(parts))
    return lines, digest, links


def _hrefs(markup: str, start: int, end: int, links: list[str]) -> None:
    """Add the href values of the start tag from ``start`` to ``end``,
    its attributes read as ``HTMLParser.parse_starttag`` reads them."""
    k = _TAGFIND_RE.match(markup, start + 1).end()
    while k < end:
        m = _ATTRFIND_RE.match(markup, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        k = m.end()
        if not rest or name.lower() != "href":
            continue
        if value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = unescape(value)
            if value:
                links.append(value)


def extract_page(html: bytes | str) -> tuple[str, list[str], list[str]]:
    """One parse returning (text, tag digest, link hrefs).

    A line's control characters become spaces, it is normalized
    (``normalize_text``) and each run of line feeds in it becomes one
    space, so every line is a fixed point of ``normalize_text``; empty
    lines are dropped.  All lines go through one ``normalize_text``
    call, joined by NUL: a control character, so never text of its own,
    and one that NFKC neither changes nor composes with its neighbours."""
    markup = _markup(html)
    lines, digest, links = _scan(markup, True)
    if "\x00" in markup:
        lines = [line.replace("\x00", " ") for line in lines]
    text = normalize_text(_CONTROL_RE.sub(" ", "\x00".join(lines)))
    lines = [_LINE_FEEDS_RE.sub(" ", line.strip()) for line in text.split("\x00")]
    return "\n".join(line for line in lines if line), digest, links


def extract_links(html: bytes | str) -> list[str]:
    """Href values of anchors, in document order."""
    return _scan(_markup(html), False)[2]
