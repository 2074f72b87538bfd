"""Reduced one-to-one bilingual word-pair table with character-level
augmentation, plus the greedy dictionary match built on top of it that
document alignment, sentence alignment and the filter features share.

The normal build path: load a raw ``ja<TAB>zh`` dictionary, keep the
entries whose headwords are single tokens on both sides, then union in
Kanji/simplified-Chinese character correspondences.

For segmentation, ``Lexicon.headword_widths`` keeps, per language and
first character, the distinct headword lengths >= 2 in descending
order, built once on first use.  A headword matching at a position
starts with that position's character, so its length is in the list:
trying only those widths, longest first, finds the same longest match
as trying every width down from the longest headword.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

from .text import LanguageTag

logger = logging.getLogger(__name__)


class LexiconEntry(NamedTuple):
    ja: str
    zh: str


@dataclass
class Lexicon:
    """Immutable after construction; the indices are exact inverses of
    the entry set and map each headword to its translations as a tuple
    sorted once at build time."""

    entries: list[LexiconEntry] = field(default_factory=list)
    index_ja: dict[str, tuple[str, ...]] = field(default_factory=dict)
    index_zh: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def headwords(self, lang: LanguageTag) -> dict[str, tuple[str, ...]]:
        """Headword -> sorted translations, reading ``lang`` text: the
        table every dictionary-match kernel reads."""
        return self.index_ja if lang is LanguageTag.JA else self.index_zh

    def headword_widths(self, lang: LanguageTag) -> dict[str, tuple[int, ...]]:
        """First character -> the distinct lengths >= 2 of the ``lang``
        headwords it starts, longest first: the only widths at which a
        longest-match segmenter can find a headword there."""
        widths_ja, widths_zh = self._widths
        return widths_ja if lang is LanguageTag.JA else widths_zh

    @cached_property
    def _widths(self) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
        return _widths_by_first_char(self.index_ja), _widths_by_first_char(self.index_zh)


def _widths_by_first_char(index: dict[str, tuple[str, ...]]) -> dict[str, tuple[int, ...]]:
    by_first: dict[str, set[int]] = {}
    for head in index:
        if len(head) >= 2:
            by_first.setdefault(head[0], set()).add(len(head))
    return {first: tuple(sorted(lengths, reverse=True)) for first, lengths in by_first.items()}


def build_lexicon(entries: Iterable[LexiconEntry | tuple[str, str]]) -> Lexicon:
    """Deduplicate entries (first occurrence wins) and build both indices,
    each headword's translations sorted once."""
    seen: set[LexiconEntry] = set()
    ordered: list[LexiconEntry] = []
    index_ja: dict[str, set[str]] = {}
    index_zh: dict[str, set[str]] = {}
    for raw in entries:
        entry = LexiconEntry(*raw)
        if not entry.ja or not entry.zh or entry in seen:
            continue
        seen.add(entry)
        ordered.append(entry)
        index_ja.setdefault(entry.ja, set()).add(entry.zh)
        index_zh.setdefault(entry.zh, set()).add(entry.ja)
    return Lexicon(ordered, _freeze(index_ja), _freeze(index_zh))


def _freeze(index: dict[str, set[str]]) -> dict[str, tuple[str, ...]]:
    return {head: tuple(sorted(targets)) for head, targets in index.items()}


def reduce_dictionary(raw_entries: Iterable[tuple[str, str]]) -> list[LexiconEntry]:
    """Keep exactly the entries whose two headwords are each one token
    under ``str.split()``; deduplicated, first-occurrence order."""
    seen: set[LexiconEntry] = set()
    kept: list[LexiconEntry] = []
    for ja, zh in raw_entries:
        if len(ja.split()) != 1 or len(zh.split()) != 1:
            continue
        entry = LexiconEntry(ja, zh)
        if entry in seen:
            continue
        seen.add(entry)
        kept.append(entry)
    return kept


def augment_with_char_map(
    entries: Iterable[LexiconEntry | tuple[str, str]],
    char_map: Iterable[tuple[str, str]],
) -> Lexicon:
    """Union word entries with single-character correspondences.  Rows of
    the character map that are not single scalar values are skipped."""
    combined: list[tuple[str, str]] = [tuple(e) for e in entries]
    skipped = 0
    for kanji, simplified in char_map:
        if len(kanji) != 1 or len(simplified) != 1:
            logger.warning("char map row is not single characters: %r/%r", kanji, simplified)
            skipped += 1
            continue
        combined.append((kanji, simplified))
    if skipped:
        logger.warning("skipped %d malformed char map rows", skipped)
    return build_lexicon(combined)


def coverage(
    tokens_src: list[str],
    tokens_trg: list[str],
    lex: Lexicon,
    direction: LanguageTag,
) -> float:
    """Greedy one-to-one dictionary coverage of the source tokens:
    matched/|source|, 0 for an empty source."""
    if not tokens_src:
        return 0.0
    return greedy_match_count(tokens_src, tokens_trg, lex.headwords(direction)) / len(tokens_src)


def greedy_match_count(
    tokens_src: list[str],
    tokens_trg: list[str],
    translations: dict[str, tuple[str, ...]],
) -> int:
    """Number of greedy one-to-one matches (the ``m`` of dictionary
    similarity scores) under a ``Lexicon.headwords`` table.

    Scans source tokens left to right; a token matches when any of its
    translations, tried in sorted order, is still unconsumed in the
    target multiset.  Linear-time approximation of the optimal bipartite
    matching.
    """
    remaining: dict[str, int] = {}
    for tok in tokens_trg:
        remaining[tok] = remaining.get(tok, 0) + 1
    matched = 0
    for tok in tokens_src:
        for cand in translations.get(tok, ()):
            left = remaining.get(cand, 0)
            if left:
                remaining[cand] = left - 1
                matched += 1
                break
    return matched


def load_pair_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Load a UTF-8 ``left<TAB>right`` TSV (no header, LF endings)."""
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) < 2:
                logger.warning("%s:%d: expected 2 columns, got %d", path, lineno, len(cols))
                continue
            pairs.append((cols[0], cols[1]))
    return pairs


def load_lexicon(
    dictionary_path: str | Path, char_map_path: str | Path | None = None
) -> Lexicon:
    """Load, reduce and augment a lexicon from TSV files; headwords are
    reduced with the whitespace segmenter."""
    entries = reduce_dictionary(load_pair_tsv(dictionary_path))
    char_map = load_pair_tsv(char_map_path) if char_map_path else []
    return augment_with_char_map(entries, char_map)
