"""Shared text primitives: normalization, JA/ZH language identification,
CJK sentence splitting and lexicon-driven word segmentation.

Everything here is pure and deterministic.  Language identification and
sentence splitting scan with compiled regexes, so no Python code runs
per character: ``detect_language`` counts kana, Han and whitespace with
one ``subn`` each (``\\s`` matches exactly the characters for which
``str.isspace`` is true), and ``split_sentences`` finds each terminal,
with the closers that follow it, with one ``finditer`` per line.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Callable, Sequence

Segmenter = Callable[[str], list[str]]
"""Plug-in segmentation interface: text in, tokens out.  External
morphological analyzers can be wrapped to this signature."""

# Detection thresholds, the same for every stage: any visible kana
# marks a page as Japanese, a Han-dominated page without kana is Chinese.
KANA_FRACTION_JA = 0.05
HAN_FRACTION_ZH = 0.5

# The code point ranges of kana and of Han characters.
_KANA_RE = re.compile("[\u3041-\u309f\u30a0-\u30ff\uff66-\uff9d]")
_SPACE_RE = re.compile(r"\s")


@cache
def _han_re() -> re.Pattern:
    # Compiled on first use: the compiler walks each of the class's
    # 28,000 BMP code points, about 2 ms that a process which never tags
    # a language, such as a filter set-up, need not pay.
    return re.compile("[\u4e00-\u9fff\u3400-\u4dbf\uf900-\ufaff\U00020000-\U0002a6df]")

# Sentence terminals, each with the closing quotes and brackets right
# after it; the half-width period only ends a sentence before
# whitespace, a closer or the end of the line, so decimals and URLs
# survive.
_CLOSERS = re.escape("」』）)]】》〉\"'”’")
_TERMINAL_RE = re.compile(rf"(?:[。．！？!?]|\.(?=[\s{_CLOSERS}]|\Z))[{_CLOSERS}]*")

_SPACES_AT_LF_RE = re.compile("[ \t]*\n[ \t]*")
_SPACES_RE = re.compile("[ \t]+")
_LINE_SEPARATORS = ("\r\n", "\r", " ", " ", "\x0b", "\x0c", "\x85")


class LanguageTag(Enum):
    JA = "ja"
    ZH = "zh"
    OTHER = "other"

    def __str__(self) -> str:  # serialized form
        return self.value


@dataclass
class Sentence:
    """One sentence of normalized text; ``tokens`` is filled after
    segmentation and concatenates back to the non-space content."""

    text: str
    char_len: int = 0
    tokens: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.char_len:
            self.char_len = len(self.text)


@dataclass
class Document:
    """A language-tagged, sentence-split page with its HTML structure digest."""

    url: str
    lang: LanguageTag
    sentences: list[Sentence]
    tag_digest: list[str] = field(default_factory=list)
    raw_char_count: int = 0

    def token_bag(self) -> list[str]:
        bag: list[str] = []
        for sent in self.sentences:
            bag.extend(sent.tokens)
        return bag


def normalize_text(raw: str) -> str:
    """NFKC-normalize, unify line separators to LF, collapse runs of
    spaces/tabs to one space and trim the ends.  Idempotent.

    A run of spaces and tabs next to a line feed, or at either end, is
    dropped; any other run becomes one space.  Two regex substitutions
    do that, the first dropping the runs beside each line feed, so no
    Python code runs per character; CJK text often has no run at all.
    ``tests/test_text.py`` checks it against a per-character reference
    loop on every code point."""
    text = unicodedata.normalize("NFKC", raw)
    for sep in _LINE_SEPARATORS:
        text = text.replace(sep, "\n")
    if " " in text or "\t" in text:
        text = _SPACES_RE.sub(" ", _SPACES_AT_LF_RE.sub("\n", text))
    return text.strip()


def detect_language(text: str) -> tuple[LanguageTag, float]:
    """Character-class language detector for the JA/ZH pair, the one rule
    by which discovery, crowd validation and mining tag a page.

    Returns JA when the kana share of CJK characters reaches
    ``KANA_FRACTION_JA``, ZH when Han characters make up at least
    ``HAN_FRACTION_ZH`` of the text and kana less than that share, OTHER
    otherwise.  The confidence is the fraction that decided.
    """
    if not text:
        raise ValueError("empty input")
    kana = _KANA_RE.subn("", text)[1]
    han = _han_re().subn("", text)[1]
    total = len(text) - _SPACE_RE.subn("", text)[1]
    cjk = kana + han
    kana_frac = kana / cjk if cjk else 0.0
    han_frac = han / total if total else 0.0
    if cjk and kana_frac >= KANA_FRACTION_JA:
        return LanguageTag.JA, kana_frac
    if han_frac >= HAN_FRACTION_ZH and kana_frac < KANA_FRACTION_JA:
        return LanguageTag.ZH, han_frac
    other_frac = 1.0 - (cjk / total if total else 0.0)
    return LanguageTag.OTHER, other_frac


def split_sentences(text: str) -> list[Sentence]:
    """Split normalized text into sentences.

    Splits after terminal punctuation (and any closing quotes/brackets
    that immediately follow it); newlines always split.  Fragments
    shorter than 2 characters are merged into the preceding sentence.
    Joining the outputs reconstructs the input minus whitespace at the
    split points.  JA and ZH share the rule set.
    """
    segments: list[str] = []
    for line in text.split("\n"):
        start = 0
        for match in _TERMINAL_RE.finditer(line):
            end = match.end()
            seg = line[start:end].strip()
            if seg:
                segments.append(seg)
            start = end
        seg = line[start:].strip()
        if seg:
            segments.append(seg)

    merged: list[str] = []
    carry = ""  # leading fragments with no sentence to merge back into
    for seg in segments:
        if len(seg) < 2:
            if merged:
                merged[-1] += seg
            else:
                carry += seg
        else:
            merged.append(carry + seg)
            carry = ""
    if carry:
        merged.append(carry)
    return [Sentence(text=s) for s in merged if s]


def segment_words(text: str, lang: LanguageTag, lexicon) -> list[str]:
    """Greedy left-to-right longest-match segmentation over the lexicon's
    headwords for ``lang``, with single-character fallback.  Every
    non-space character lands in exactly one token; tokens never span a
    space (each whitespace-free run of ``text.split()`` is matched on its
    own; ``str.split`` and ``str.isspace`` share one whitespace table)."""
    headwords = lexicon.headwords(lang) if lexicon is not None else frozenset()
    widths = lexicon.headword_widths(lang) if lexicon is not None else {}
    tokens: list[str] = []
    for run in text.split():
        n = len(run)
        i = 0
        while i < n:
            match = run[i]
            # Only the lengths of headwords that start with this character
            # can match here, tried longest first.
            for width in widths.get(match, ()):
                if width <= n - i:
                    candidate = run[i : i + width]
                    if candidate in headwords:
                        match = candidate
                        break
            tokens.append(match)
            i += len(match)
    return tokens


def make_segmenter(lexicon, lang: LanguageTag) -> Segmenter:
    """Bind the built-in segmenter to a lexicon and language."""
    return lambda text: segment_words(text, lang, lexicon)


def document_from_text(url: str, text: str, tag_digest: Sequence[str] = ()) -> Document:
    """Build a Document from extracted page text: detect the language
    (``detect_language``), split sentences per line and record the raw
    size."""
    normalized_lines = [normalize_text(line) for line in text.split("\n")]
    body = "\n".join(line for line in normalized_lines if line)
    if not body:
        lang = LanguageTag.OTHER
    else:
        lang, _ = detect_language(body)
    sentences: list[Sentence] = []
    for line in body.split("\n"):
        sentences.extend(split_sentences(line))
    return Document(
        url=url,
        lang=lang,
        sentences=sentences,
        tag_digest=list(tag_digest),
        raw_char_count=sum(s.char_len for s in sentences),
    )
