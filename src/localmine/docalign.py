"""Pair JA documents with their ZH translations within one site.

``match_documents`` builds each document's key once per call
(``_DocKey``): its URL with the language markers stripped, its token
bag's length, its bag's translation rows and its bag's token counts
(``lexicon.translation_rows`` and ``token_counts``).  Each direction
of a pair's dictionary similarity is then one ``table_match_count``
over one side's rows and the other side's counts, equal to
``lexicon.coverage`` over the two bags.  A pair is scored only when its
URL similarity or its dictionary similarity (the harmonic mean of the
two coverage directions) clears a pre-filter; its score weighs those
two with HTML structure digest similarity and a length ratio by the
fixed ``DEFAULT_WEIGHTS``.  The pipeline keeps pairs scoring at least
``DEFAULT_MIN_SCORE`` and strips the markers
``urls.DEFAULT_LANG_MARKERS``; no config key changes these constants.
Matching is greedy over descending scores: near-mirror translations
dominate their column/row, so greedy stays near the optimal assignment
at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .lexicon import Lexicon, table_match_count, token_counts, translation_rows
from .text import Document, LanguageTag
from .urls import normalized_similarity, strip_lang_markers

DEFAULT_WEIGHTS = (0.5, 0.2, 0.2, 0.1)  # dict, url, struct, length
DEFAULT_MIN_SCORE = 0.4
PREFILTER_URL_SIM = 0.3
PREFILTER_DICT_SIM = 0.1

FEATURE_NAMES = ("dict_sim", "url_sim", "struct_sim", "len_ratio")


@dataclass
class DocPair:
    doc_ja: Document
    doc_zh: Document
    score: float
    features: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        row = {
            "url_ja": self.doc_ja.url,
            "url_zh": self.doc_zh.url,
            "score": round(self.score, 4),
        }
        row.update({k: round(v, 4) for k, v in self.features.items()})
        return row


class _DocKey(NamedTuple):
    """What ``match_documents`` reads of one document, built once."""

    url: str  # the URL with its language markers stripped
    n_tokens: int
    rows: list[tuple[str, ...]]  # the bag's translation rows
    counts: dict[str, int]  # the bag's token counts


def _doc_key(doc: Document, translations: dict[str, tuple[str, ...]]) -> _DocKey:
    bag = doc.token_bag()
    rows = translation_rows(bag, translations)
    return _DocKey(strip_lang_markers(doc.url), len(bag), rows, token_counts(bag))


def _coverage(key_src: _DocKey, key_trg: _DocKey) -> float:
    """``lexicon.coverage`` of the source bag by the target bag."""
    if not key_src.n_tokens:
        return 0.0
    return table_match_count(key_src.rows, key_trg.counts.copy()) / key_src.n_tokens


def _score(
    a: Document, key_a: _DocKey, b: Document, key_b: _DocKey
) -> tuple[float, dict[str, float]] | None:
    """Weighted score and named features of one JA/ZH pair, given each
    document's key; None for an empty document or a pair that fails the
    pre-filter."""
    if a.raw_char_count == 0 or b.raw_char_count == 0:
        return None
    url_sim = normalized_similarity(key_a.url, key_b.url)
    # Harmonic mean of the two coverage directions over the full bags.
    j2z = _coverage(key_a, key_b)
    z2j = _coverage(key_b, key_a)
    dict_sim = 0.0 if j2z + z2j == 0.0 else 2.0 * j2z * z2j / (j2z + z2j)
    if url_sim < PREFILTER_URL_SIM and dict_sim < PREFILTER_DICT_SIM:
        return None
    features = {
        "dict_sim": dict_sim,
        "url_sim": url_sim,
        "struct_sim": normalized_similarity(a.tag_digest, b.tag_digest),
        "len_ratio": (
            min(a.raw_char_count, b.raw_char_count)
            / max(a.raw_char_count, b.raw_char_count)
        ),
    }
    # A left fold from 0.0: Python 3.12's ``sum`` compensates float
    # rounding, which would change the score's low bits, and the
    # matching sorts on the exact score.
    score = 0.0
    for w, name in zip(DEFAULT_WEIGHTS, FEATURE_NAMES):
        score += w * features[name]
    return score, features


def match_documents(
    pages_ja: list[Document],
    pages_zh: list[Document],
    lex: Lexicon,
    min_score: float = DEFAULT_MIN_SCORE,
) -> list[DocPair]:
    """Greedy one-to-one matching by descending score.

    Candidate pairs are fully scored only when URL similarity or
    dictionary similarity clears a pre-filter; each document is used at
    most once; pairs below ``min_score`` are discarded.  Ties break on
    (url_sim desc, URL pair lexicographic).
    """
    keys_ja = [_doc_key(d, lex.headwords(LanguageTag.JA)) for d in pages_ja]
    keys_zh = [_doc_key(d, lex.headwords(LanguageTag.ZH)) for d in pages_zh]
    scored: list[tuple[float, float, str, str, int, int, dict[str, float]]] = []
    for i, (doc_ja, key_ja) in enumerate(zip(pages_ja, keys_ja)):
        for j, (doc_zh, key_zh) in enumerate(zip(pages_zh, keys_zh)):
            found = _score(doc_ja, key_ja, doc_zh, key_zh)
            if found is None or found[0] < min_score:
                continue
            score, features = found
            scored.append((score, features["url_sim"], doc_ja.url, doc_zh.url, i, j, features))

    scored.sort(key=lambda row: (-row[0], -row[1], row[2], row[3]))
    used_ja: set[int] = set()
    used_zh: set[int] = set()
    pairs: list[DocPair] = []
    for score, _, _, _, i, j, features in scored:
        if i in used_ja or j in used_zh:
            continue
        used_ja.add(i)
        used_zh.add(j)
        pairs.append(DocPair(pages_ja[i], pages_zh[j], score, features))
    return pairs
