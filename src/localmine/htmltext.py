"""HTML to text conversion with a structural tag digest.

Parsing is lenient (stdlib HTMLParser, never fatal on malformed
markup); script/style/comment content is dropped, block boundaries
become newlines and the digest records document-order structural tags.
Charset handling: UTF-8 first, then the declared meta charset
(Shift_JIS and GB* pages are common), then reject.
"""

from __future__ import annotations

import codecs
import re
from html.parser import HTMLParser

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
_SKIP_CONTENT_TAGS = {"script", "style"}

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+?(?:charset\s*=\s*["']?([A-Za-z0-9_\-]+))""", re.IGNORECASE
)
_CONTROL_RE = re.compile(r"[\x00-\x09\x0b-\x1f\x7f-\x9f]")


class EncodingError(ValueError):
    """Raised when page bytes decode neither as UTF-8 nor as the charset
    declared in the markup."""


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.lines: list[list[str]] = [[]]
        self.digest: list[str] = []
        self.links: list[str] = []
        self._skip_depth = 0

    def _break_line(self) -> None:
        if self.lines[-1]:
            self.lines.append([])

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _SKIP_CONTENT_TAGS:
            self._skip_depth += 1
            return
        if tag in _DIGEST_TAGS:
            self.digest.append(tag)
        if tag == "a":
            for name, value in attrs:
                if name == "href" and value:
                    self.links.append(value)
        if tag in _BLOCK_TAGS:
            self._break_line()

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_CONTENT_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag in _BLOCK_TAGS:
            self._break_line()

    def handle_data(self, data: str) -> None:
        if self._skip_depth == 0 and data:
            self.lines[-1].append(data)


def decode_html(raw: bytes) -> str:
    """Decode page bytes: strict UTF-8, else the meta-declared charset."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        pass
    match = _META_CHARSET_RE.search(raw[:4096])
    if match:
        name = match.group(1).decode("ascii", "ignore").lower()
        aliases = {"shift_jis": "cp932", "shift-jis": "cp932", "sjis": "cp932",
                   "gb2312": "gb18030", "gbk": "gb18030"}
        name = aliases.get(name, name)
        try:
            codecs.lookup(name)
            return raw.decode(name)
        except (LookupError, UnicodeDecodeError):
            pass
    raise EncodingError("encoding")


def _parse(html: bytes | str) -> _TextExtractor:
    markup = decode_html(html) if isinstance(html, bytes) else html
    parser = _TextExtractor()
    parser.feed(markup)
    parser.close()
    return parser


def extract_page(html: bytes | str) -> tuple[str, list[str], list[str]]:
    """One parse returning (text, tag digest, link hrefs)."""
    parser = _parse(html)
    out_lines: list[str] = []
    for parts in parser.lines:
        line = normalize_text(_CONTROL_RE.sub(" ", "".join(parts)))
        line = line.replace("\n", " ").strip()
        if line:
            out_lines.append(line)
    return "\n".join(out_lines), parser.digest, parser.links


def extract_links(html: bytes | str) -> list[str]:
    """Href values of anchors, in document order."""
    return _parse(html).links
