"""The former HTML extraction and ``normalize_text``, kept as references.

``reference_extract`` is the ``HTMLParser`` subclass ``localmine.htmltext``
used before its tokenizer, run on the parser of CPython 3.11.7: the
files under ``cpython/`` are verbatim copies of that release's
``Lib/html/parser.py`` and ``Lib/_markupbase.py`` (licence in
``cpython/LICENSE``), loaded under private names so that newer patch
releases check the tokenizer against the same parser.
"""

from __future__ import annotations

import importlib.util
import re
import sys
import unicodedata
from pathlib import Path

from localmine.htmltext import _BLOCK_TAGS, _DIGEST_TAGS, decode_html

CPYTHON = Path(__file__).resolve().parent / "cpython"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_parser():
    """``html_parser.py`` runs ``import _markupbase``: it gets the copy,
    and the stdlib module, if loaded, is put back."""
    markupbase = _load("cpython311_markupbase", CPYTHON / "_markupbase.py")
    saved = sys.modules.get("_markupbase")
    sys.modules["_markupbase"] = markupbase
    try:
        return _load("cpython311_html_parser", CPYTHON / "html_parser.py")
    finally:
        if saved is None:
            del sys.modules["_markupbase"]
        else:
            sys.modules["_markupbase"] = saved


HTMLParser = _load_parser().HTMLParser

_SKIP_CONTENT_TAGS = {"script", "style"}
_CONTROL_RE = re.compile(r"[\x00-\x09\x0b-\x1f\x7f-\x9f]")
_LINE_SEPARATORS = ("\r\n", "\r", "\u2028", "\u2029", "\x0b", "\x0c", "\x85")


class TextExtractor(HTMLParser):
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


def reference_normalize_text(raw: str) -> str:
    """NFKC, line separators to LF, one pass per character collapsing
    space and tab runs."""
    text = unicodedata.normalize("NFKC", raw)
    for sep in _LINE_SEPARATORS:
        text = text.replace(sep, "\n")
    out: list[str] = []
    pending_space = False
    for ch in text:
        if ch == " " or ch == "\t":
            pending_space = True
            continue
        if pending_space:
            if out and out[-1] != "\n" and ch != "\n":
                out.append(" ")
            pending_space = False
        out.append(ch)
    return "".join(out).strip()


def reference_extract(html: bytes | str) -> tuple[str, list[str], list[str]]:
    """(text, digest, links) as ``extract_page`` gives them: the whole
    markup fed, then ``close()``, and each run of line feeds left in a
    normalized line made one space."""
    parser = TextExtractor()
    parser.feed(decode_html(html) if isinstance(html, bytes) else html)
    parser.close()
    out_lines: list[str] = []
    for parts in parser.lines:
        line = reference_normalize_text(_CONTROL_RE.sub(" ", "".join(parts)))
        line = re.sub("\n+", " ", line).strip()
        if line:
            out_lines.append(line)
    return "\n".join(out_lines), parser.digest, parser.links


def open_construct_start(markup: str) -> int | None:
    """Where the first construct left open at end of input starts: where
    ``feed()`` stops with a ``<`` still buffered (outside script and
    style content), or None when every construct closes."""
    parser = TextExtractor()
    parser.feed(markup)
    rest = parser.rawdata
    if len(rest) > 1 and rest[0] == "<" and parser.cdata_elem is None:
        return len(markup) - len(rest)
    return None
