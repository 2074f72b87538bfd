"""Pair JA documents with their ZH translations within one site.

The similarity score combines bidirectional dictionary coverage, URL
path similarity after language-marker stripping, HTML structure digest
similarity and a length ratio.  Matching is greedy over descending
scores: near-mirror translations dominate their column/row, so greedy
stays near the optimal assignment at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexicon import Lexicon, coverage
from .text import Document, LanguageTag
from .urls import DEFAULT_LANG_MARKERS, normalized_similarity, strip_lang_markers

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


def _check_weights(weights: tuple[float, float, float, float]) -> None:
    if len(weights) != 4 or any(w < 0 for w in weights):
        raise ValueError("need 4 nonnegative weights")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")


def _dict_similarity(a: Document, b: Document, lex: Lexicon) -> float:
    """Harmonic mean of the two coverage directions over full-document
    token bags."""
    bag_ja = a.token_bag()
    bag_zh = b.token_bag()
    j2z = coverage(bag_ja, bag_zh, lex, LanguageTag.JA)
    z2j = coverage(bag_zh, bag_ja, lex, LanguageTag.ZH)
    if j2z + z2j == 0.0:
        return 0.0
    return 2.0 * j2z * z2j / (j2z + z2j)


def _url_similarity(a: Document, b: Document, markers) -> float:
    path_a = strip_lang_markers(a.url, markers)
    path_b = strip_lang_markers(b.url, markers)
    return normalized_similarity(path_a, path_b)


def _assemble(
    a: Document,
    b: Document,
    weights,
    dict_sim: float,
    url_sim: float,
) -> tuple[float, dict[str, float]]:
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
    for w, name in zip(weights, FEATURE_NAMES):
        score += w * features[name]
    return score, features


def doc_similarity(
    a: Document,
    b: Document,
    lex: Lexicon,
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS,
    markers: tuple[str, ...] = DEFAULT_LANG_MARKERS,
) -> tuple[float, dict[str, float]]:
    """Weighted document-pair score plus the named feature map."""
    _check_weights(weights)
    if a.raw_char_count == 0 or b.raw_char_count == 0:
        return 0.0, dict.fromkeys(FEATURE_NAMES, 0.0)
    return _assemble(
        a, b, weights,
        _dict_similarity(a, b, lex),
        _url_similarity(a, b, markers),
    )


def match_documents(
    pages_ja: list[Document],
    pages_zh: list[Document],
    lex: Lexicon,
    min_score: float = DEFAULT_MIN_SCORE,
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS,
    markers: tuple[str, ...] = DEFAULT_LANG_MARKERS,
) -> list[DocPair]:
    """Greedy one-to-one matching by descending score.

    Candidate pairs are fully scored only when URL similarity or
    dictionary similarity clears a pre-filter; each document is used at
    most once; pairs below ``min_score`` are discarded.  Ties break on
    (url_sim desc, URL pair lexicographic).
    """
    _check_weights(weights)
    scored: list[tuple[float, float, str, str, int, int, dict[str, float]]] = []
    for i, doc_ja in enumerate(pages_ja):
        for j, doc_zh in enumerate(pages_zh):
            if doc_ja.raw_char_count == 0 or doc_zh.raw_char_count == 0:
                continue
            url_sim = _url_similarity(doc_ja, doc_zh, markers)
            dict_sim = _dict_similarity(doc_ja, doc_zh, lex)
            if url_sim < PREFILTER_URL_SIM and dict_sim < PREFILTER_DICT_SIM:
                continue
            score, features = _assemble(doc_ja, doc_zh, weights, dict_sim, url_sim)
            if score < min_score:
                continue
            scored.append((score, url_sim, doc_ja.url, doc_zh.url, i, j, features))

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
