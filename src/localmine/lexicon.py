"""Reduced one-to-one bilingual word-pair table with character-level
augmentation, plus the greedy dictionary match built on top of it that
document alignment, sentence alignment and the filter features share.

The greedy match has one kernel, ``table_match_count``, over two
tables: the source side's translation rows (``translation_rows``: the
translation tuple of each source token that has one, in token order)
and the target side's token counts (``token_counts``), which the
kernel uses up as it matches.  A caller that scores one side against
many others builds each side's tables once and hands the kernel a
``dict.copy()`` of the counts for each pair: document matching keeps
one key per document, and the sentence DP one table per sentence.
``greedy_match_count`` builds both tables from token lists.

The normal build path, one pass: ``load_lexicon`` chains two lazy
filters over the raw ``ja<TAB>zh`` rows into ``build_lexicon`` -- the
dictionary rows whose headwords are single tokens on both sides
(``reduce_dictionary``), then the character map's Kanji/simplified-
Chinese rows that are single characters (``single_char_pairs``).
``build_lexicon`` is the only place that deduplicates: it fills both
indices in one loop and freezes each headword's translations once.

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
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from .text import LanguageTag

logger = logging.getLogger(__name__)


@dataclass
class Lexicon:
    """Immutable after construction; the indices are exact inverses of
    each other and map each headword to its translations as a tuple
    sorted once at build time."""

    index_ja: dict[str, tuple[str, ...]] = field(default_factory=dict)
    index_zh: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        """Number of distinct (ja, zh) pairs."""
        return sum(map(len, self.index_ja.values()))

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


def build_lexicon(pairs: Iterable[tuple[str, str]]) -> Lexicon:
    """Build both indices in one pass over ``(ja, zh)`` pairs.  A pair
    with an empty side is skipped, a repeated pair counts once, and each
    headword's translations are sorted once."""
    index_ja: dict[str, list[str]] = {}
    index_zh: dict[str, list[str]] = {}
    for ja, zh in pairs:
        if ja and zh:
            index_ja.setdefault(ja, []).append(zh)
            index_zh.setdefault(zh, []).append(ja)
    return Lexicon(_freeze(index_ja), _freeze(index_zh))


def _freeze(index: dict[str, list[str]]) -> dict[str, tuple[str, ...]]:
    return {head: tuple(sorted(set(targets))) for head, targets in index.items()}


def reduce_dictionary(rows: Iterable[tuple[str, str]]) -> Iterator[tuple[str, str]]:
    """Yield exactly the rows whose two headwords are each one token
    under ``str.split()``, unchanged and in order."""
    for ja, zh in rows:
        if len(ja.split()) == 1 and len(zh.split()) == 1:
            yield ja, zh


def single_char_pairs(char_map: Iterable[tuple[str, str]]) -> Iterator[tuple[str, str]]:
    """Yield the character-map rows that are one scalar value on each
    side; each other row is skipped with a warning, and their count is
    logged once the map is exhausted."""
    skipped = 0
    for kanji, simplified in char_map:
        if len(kanji) != 1 or len(simplified) != 1:
            logger.warning("char map row is not single characters: %r/%r", kanji, simplified)
            skipped += 1
            continue
        yield kanji, simplified
    if skipped:
        logger.warning("skipped %d malformed char map rows", skipped)


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
    return table_match_count(translation_rows(tokens_src, translations), token_counts(tokens_trg))


def translation_rows(
    tokens: list[str], translations: dict[str, tuple[str, ...]]
) -> list[tuple[str, ...]]:
    """The translation tuple of each token that has a non-empty one, in
    token order: the source table of ``table_match_count``."""
    return list(filter(None, map(translations.get, tokens)))


def token_counts(tokens: list[str]) -> dict[str, int]:
    """Each distinct token's count: the target table of
    ``table_match_count``."""
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    return counts


def table_match_count(rows: list[tuple[str, ...]], remaining: dict[str, int]) -> int:
    """``greedy_match_count`` over a source side's translation rows and a
    target side's counts, which it decrements as tokens match: pass a
    copy of counts that are used again.  A row's candidate with no count
    never matches, so rows may name tokens the target lacks."""
    matched = 0
    for cands in rows:
        for cand in cands:
            left = remaining.get(cand)
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
    """Load a lexicon from TSV files in one build pass: the dictionary's
    one-token rows, then the character map's single-character rows."""
    pairs = reduce_dictionary(load_pair_tsv(dictionary_path))
    if char_map_path:
        pairs = chain(pairs, single_char_pairs(load_pair_tsv(char_map_path)))
    return build_lexicon(pairs)
