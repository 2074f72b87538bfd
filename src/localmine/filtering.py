"""Sentence-pair filtering: translation-probability and language-model
features feeding the bagged-tree classifier, plus the embedding gate.

The trained filter bundles both translation directions, both character
LMs and the forest into one model file (version 3, ``modelfile``): a
header line of scalars and array entries, then each component's arrays
as raw little-endian bytes.  Each component gives its own section
(``to_arrays`` and ``from_arrays`` on ``TranslationTable``, ``CharLM``
and ``RandomForest``), and the file round-trips exactly: a loaded model
saves to the same bytes.  ``BitextFilter.load`` builds the tables, the
language models and then the forest, each from arrays read straight
from the file, so the load holds no text or parsed payload and its peak
is about the model it keeps.  A JSON model file (version 1 or 2) is
rejected with a one-line error that says to retrain it; so is a file
``modelfile`` rejects or a section its component rejects, with a
one-line ``ValueError`` naming the section.  Other top-level header
keys are ignored, such as a ``seed`` or ``threshold``: the forest
section keeps its own seed, and a run keeps pairs by ``[filter]
threshold``.

Features are taken a batch at a time (``extract_features``,
``BitextFilter.features``): each character LM scores every distinct
side of the batch once (``charlm.lm_scores``), each Model 1 table looks
the batch up a chunk at a time with array searches
(``TranslationTable.best_probs``), and no pair's features depend on the
rest of the batch.
A ``FeatureVector`` is a named tuple whose field order is the forest's
column order.
"""

from __future__ import annotations

import logging
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .charlm import CharLM, lm_scores, train_char_lm
from .forest import DEFAULT_DEPTH, DEFAULT_TREES, RandomForest
from .lexicon import Lexicon, coverage
from .model1 import TranslationTable, train_model1
from .modelfile import read as read_model
from .modelfile import write as write_model
from .text import LanguageTag, Segmenter

logger = logging.getLogger(__name__)

DEFAULT_SCORE_THRESHOLD = 0.5
DEFAULT_EMBED_THRESHOLD = 0.7
# The model file's sections, in the order the load builds them.
SECTIONS = ("table_j2z", "table_z2j", "lm_ja", "lm_zh", "forest")

_DIGIT_RUN_RE = re.compile(r"\d+")
_PUNCT_SET = set("。．！？!?.、，,：:；;「」『』（）()[]【】《》〈〉\"“”'‘’")

EmbeddingProvider = Callable[[Sequence[str]], "list[list[float] | None]"]
"""Batch sentence-vector capability; None marks a per-sentence failure."""


class FeatureVector(NamedTuple):
    """The 12 filter features, in the forest's column order."""

    len_ja: float = 0.0
    len_zh: float = 0.0
    len_ratio: float = 0.0
    tok_ratio: float = 0.0
    cov_j2z: float = 0.0
    cov_z2j: float = 0.0
    avgmaxp_j2z: float = 0.0
    avgmaxp_z2j: float = 0.0
    lm_ja: float = 0.0
    lm_zh: float = 0.0
    num_match: float = 0.0
    punct_diff: float = 0.0


FEATURE_NAMES = FeatureVector._fields


@dataclass
class CorpusRecord:
    """One sentence pair from alignment candidate to corpus line: the
    filter sets ``filter_score``, the embedding gate ``embed_sim``.

    ``tokens_ja`` and ``tokens_zh`` are a side's tokens as mining
    segmented them, or None when the filter must segment that side;
    the filter drops them once it has the features, and they are never
    serialized."""

    ja: str
    zh: str
    src_url_ja: str = ""
    src_url_zh: str = ""
    doc_score: float = 0.0
    bead_cost: float = 0.0
    filter_score: float = 0.0
    embed_sim: float | None = None
    tokens_ja: list[str] | None = field(default=None, repr=False, compare=False)
    tokens_zh: list[str] | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "ja": self.ja,
            "zh": self.zh,
            "src_url_ja": self.src_url_ja,
            "src_url_zh": self.src_url_zh,
            "doc_score": round(self.doc_score, 4),
            "bead_cost": round(self.bead_cost, 4),
            "filter_score": round(self.filter_score, 4),
            "embed_sim": None if self.embed_sim is None else round(self.embed_sim, 4),
        }

    def to_raw_json(self) -> dict:
        """The unscored candidate row of ``raw_pairs.jsonl``."""
        return {
            "ja": self.ja,
            "zh": self.zh,
            "url_ja": self.src_url_ja,
            "url_zh": self.src_url_zh,
            "doc_score": round(self.doc_score, 4),
            "bead_cost": round(self.bead_cost, 4),
        }

    @classmethod
    def from_raw_json(cls, obj: dict) -> "CorpusRecord":
        """A ``to_raw_json`` row; a row whose ``ja`` or ``zh`` is missing
        or not a string, or whose scores are not numbers, is a one-line
        ``ValueError`` naming the key."""
        for key in ("ja", "zh"):
            if key not in obj:
                raise ValueError(f"candidate pair row lacks the key {key!r}")
            if type(obj[key]) is not str:
                raise ValueError(f"candidate pair row's {key!r} is a "
                                 f"{type(obj[key]).__name__}, not a string")
        scores = {}
        for key in ("doc_score", "bead_cost"):
            try:
                scores[key] = float(obj.get(key, 0.0))
            except (TypeError, ValueError):
                raise ValueError(f"candidate pair row's {key!r} is not a number") from None
        return cls(
            ja=obj["ja"],
            zh=obj["zh"],
            src_url_ja=obj.get("url_ja", ""),
            src_url_zh=obj.get("url_zh", ""),
            **scores,
        )


@dataclass
class LabeledPair:
    ja: str
    zh: str
    label: int


def _avg_max_prob(
    src_sides: list[list[str]], trg_sides: list[list[str]], table: TranslationTable
) -> list[float]:
    """Per pair, the mean over source tokens of the best translation
    probability among tokens present on the other side, 0.0 for an empty
    source side.  The table looks the batch up a chunk at a time
    (``best_probs``); each mean is a left fold in token order, so it
    keeps the bits of the per-token loop."""
    means = []
    for src, best in zip(src_sides, table.best_probs(zip(src_sides, trg_sides))):
        total = 0.0
        for p in best:
            total += p
        means.append(total / len(src) if src else 0.0)
    return means


def _digit_runs(text: str) -> Counter:
    return Counter(_DIGIT_RUN_RE.findall(text))


def _punct_count(text: str) -> int:
    return sum(1 for ch in text if ch in _PUNCT_SET)


def extract_features(
    pairs: Sequence[tuple[str, str, list[str], list[str]]],
    table_j2z: TranslationTable,
    table_z2j: TranslationTable,
    lm_ja_model: CharLM,
    lm_zh_model: CharLM,
    lex: Lexicon,
) -> list[FeatureVector]:
    """All 12 filter features for each candidate pair ``(ja, zh,
    tokens_ja, tokens_zh)``.  Each language model scores every distinct
    side once, in one batch (an empty side scores 0), and each Model 1
    table looks the batch up a chunk at a time (``_avg_max_prob``)."""
    lm_ja = _side_scores(lm_ja_model, [ja for ja, _, _, _ in pairs])
    lm_zh = _side_scores(lm_zh_model, [zh for _, zh, _, _ in pairs])
    sides_ja = [tokens_ja for _, _, tokens_ja, _ in pairs]
    sides_zh = [tokens_zh for _, _, _, tokens_zh in pairs]
    avgmaxp_j2z = _avg_max_prob(sides_ja, sides_zh, table_j2z)
    avgmaxp_z2j = _avg_max_prob(sides_zh, sides_ja, table_z2j)
    features = []
    for (ja, zh, tokens_ja, tokens_zh), j2z, z2j in zip(pairs, avgmaxp_j2z, avgmaxp_z2j):
        len_ja = len(ja)
        len_zh = len(zh)
        longer = max(len_ja, len_zh)
        n_tok_ja = len(tokens_ja)
        n_tok_zh = len(tokens_zh)
        longer_tok = max(n_tok_ja, n_tok_zh)
        p_ja = _punct_count(ja)
        p_zh = _punct_count(zh)
        features.append(FeatureVector(
            len_ja=float(len_ja),
            len_zh=float(len_zh),
            len_ratio=(min(len_ja, len_zh) / longer) if longer else 0.0,
            tok_ratio=(min(n_tok_ja, n_tok_zh) / longer_tok) if longer_tok else 0.0,
            cov_j2z=coverage(tokens_ja, tokens_zh, lex, LanguageTag.JA),
            cov_z2j=coverage(tokens_zh, tokens_ja, lex, LanguageTag.ZH),
            avgmaxp_j2z=j2z,
            avgmaxp_z2j=z2j,
            lm_ja=lm_ja[ja],
            lm_zh=lm_zh[zh],
            num_match=1.0 if _digit_runs(ja) == _digit_runs(zh) else 0.0,
            punct_diff=abs(p_ja - p_zh) / max(p_ja + p_zh, 1),
        ))
    return features


def _side_scores(lm: CharLM, texts: list[str]) -> dict[str, float]:
    """Each distinct text's ``lm_scores`` score; the empty text's is 0."""
    distinct = list(dict.fromkeys(text for text in texts if text))
    scores = dict(zip(distinct, lm_scores(lm, distinct)))
    scores[""] = 0.0
    return scores


def synthesize_negatives(
    positives: Sequence[tuple[str, str]],
    seed: int = 0,
) -> list[LabeledPair]:
    """Interleave each positive with one synthetic negative.

    Negative schemes, drawn uniformly per positive: replace the target
    with another row's target, shuffle the target, or truncate the
    target to its first 40%.  When ten draws all fail (a one-character
    target shuffles and truncates to itself), the next row's target,
    cyclically, that differs is taken.  No generated negative equals
    its source pair.
    """
    if len(positives) < 10:
        raise ValueError("need at least 10 positive pairs")
    rng = random.Random(seed)
    rows: list[LabeledPair] = []
    for idx, (ja, zh) in enumerate(positives):
        rows.append(LabeledPair(ja, zh, 1))
        negative = None
        for _ in range(10):
            scheme = rng.randrange(3)
            if scheme == 0:
                other = rng.randrange(len(positives))
                if other == idx:
                    continue
                candidate = positives[other][1]
            elif scheme == 1:
                pieces = zh.split(" ") if " " in zh else list(zh)
                rng.shuffle(pieces)
                candidate = " ".join(pieces) if " " in zh else "".join(pieces)
            else:
                candidate = zh[: max(1, int(len(zh) * 0.4))]
            if candidate and candidate != zh:
                negative = candidate
                break
        if negative is None:
            n = len(positives)
            later = (positives[(idx + step) % n][1] for step in range(1, n))
            negative = next((c for c in later if c and c != zh), None)
        if negative is None:
            raise ValueError(f"cannot synthesize a distinct negative for row {idx}")
        rows.append(LabeledPair(ja, negative, 0))
    return rows


def train_classifier(
    rows: Sequence[tuple[FeatureVector, int]],
    trees: int = DEFAULT_TREES,
    depth: int = DEFAULT_DEPTH,
    seed: int = 0,
) -> RandomForest:
    """Fit the bagged-tree ensemble on labeled feature vectors."""
    if not rows:
        raise ValueError("no training rows")
    x = np.array([fv for fv, _ in rows], dtype=np.float64)
    y = np.array([label for _, label in rows], dtype=np.int64)
    model = RandomForest(n_trees=trees, max_depth=depth, seed=seed)
    return model.fit(x, y)


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    norm = float(np.linalg.norm(va) * np.linalg.norm(vb))
    if norm == 0.0:
        return 0.0
    return float(np.dot(va, vb) / norm)


def embedding_gate(
    pairs: Sequence[CorpusRecord],
    provider: EmbeddingProvider,
    threshold: float = DEFAULT_EMBED_THRESHOLD,
    counters: dict | None = None,
) -> list[CorpusRecord]:
    """Keep pairs whose sentence-vector cosine similarity clears the
    threshold (inclusive).  Dropped pairs are counted in ``counters``
    by reason, and none is fatal: ``embed_rejected`` below the
    threshold, ``embed_missing`` when the provider has no vector for a
    side (a vector-file miss), ``embed_failures`` when the provider
    raises (an outage) or returns a batch of the wrong length, both of
    which count every pair, or when a pair's two vectors cannot be
    compared (different lengths, non-numeric entries)."""
    if counters is None:
        counters = {}
    kept: list[CorpusRecord] = []
    if not pairs:
        return kept
    sentences: list[str] = []
    for pair in pairs:
        sentences.append(pair.ja)
        sentences.append(pair.zh)
    try:
        vectors = provider(sentences)
        if len(vectors) != len(sentences):
            raise ValueError(f"{len(vectors)} vectors for {len(sentences)} sentences")
    except Exception as err:
        logger.warning("embedding provider failed for the whole batch: %s", err)
        counters["embed_failures"] = counters.get("embed_failures", 0) + len(pairs)
        return kept
    for idx, pair in enumerate(pairs):
        vec_ja = vectors[2 * idx]
        vec_zh = vectors[2 * idx + 1]
        if vec_ja is None or vec_zh is None:
            counters["embed_missing"] = counters.get("embed_missing", 0) + 1
            continue
        try:
            sim = cosine_similarity(vec_ja, vec_zh)
        except (TypeError, ValueError) as err:
            logger.debug("unusable embedding vectors for %r: %s", pair.ja, err)
            counters["embed_failures"] = counters.get("embed_failures", 0) + 1
            continue
        if sim >= threshold:
            pair.embed_sim = sim
            kept.append(pair)
        else:
            counters["embed_rejected"] = counters.get("embed_rejected", 0) + 1
    return kept


@dataclass
class BitextFilter:
    """The trained filter: feature models plus the classifier."""

    table_j2z: TranslationTable
    table_z2j: TranslationTable
    lm_ja: CharLM
    lm_zh: CharLM
    forest: RandomForest

    def features(self, pairs: Sequence[tuple[str, str, list[str], list[str]]],
                 lex: Lexicon) -> list[FeatureVector]:
        """``extract_features`` of each ``(ja, zh, tokens_ja, tokens_zh)``."""
        return extract_features(
            pairs, self.table_j2z, self.table_z2j, self.lm_ja, self.lm_zh, lex,
        )

    def score_batch(self, fvs: Sequence[FeatureVector]) -> list[float]:
        """Ensemble vote fraction in [0, 1] per feature vector, all scored
        in one forest call; the pipeline keeps pairs whose score reaches
        ``[filter] threshold`` (default 0.5, inclusive).  A row's score
        does not depend on the rest of the batch."""
        return self.forest.predict_proba(np.array(fvs, dtype=np.float64)).tolist()

    def score(self, fv: FeatureVector) -> float:
        """``score_batch`` of one feature vector."""
        return self.score_batch([fv])[0]

    def save(self, path: str | Path) -> None:
        """Write the model file; see the module docstring."""
        write_model(path, {name: getattr(self, name).to_arrays() for name in SECTIONS})

    @classmethod
    def load(cls, path: str | Path) -> "BitextFilter":
        """Read ``save`` output; see the module docstring."""
        return cls(**read_model(path, {
            "table_j2z": TranslationTable.from_arrays,
            "table_z2j": TranslationTable.from_arrays,
            "lm_ja": CharLM.from_arrays,
            "lm_zh": CharLM.from_arrays,
            "forest": RandomForest.from_arrays,
        }))


def train_filter(
    parallel: Sequence[tuple[str, str]],
    lex: Lexicon,
    seg_ja: Segmenter,
    seg_zh: Segmenter,
    trees: int = DEFAULT_TREES,
    depth: int = DEFAULT_DEPTH,
    seed: int = 0,
) -> BitextFilter:
    """Train every component of the filter from one parallel corpus:
    Model 1 with its ``DEFAULT_ITERATIONS`` and the character LMs with
    their ``DEFAULT_ORDER`` and ``DEFAULT_ADD_K``.  The forest settings
    are checked before any training work, so a bad one costs no
    training time."""
    if len(parallel) < 10:
        raise ValueError("need at least 10 parallel pairs to train the filter")
    RandomForest(n_trees=trees, max_depth=depth)  # checks the forest settings
    tokenized = [(seg_ja(ja), seg_zh(zh)) for ja, zh in parallel]
    table_j2z = train_model1(tokenized, direction="ja-zh")
    table_z2j = train_model1([(zh, ja) for ja, zh in tokenized], direction="zh-ja")
    lm_ja_model = train_char_lm([ja for ja, _ in parallel])
    lm_zh_model = train_char_lm([zh for _, zh in parallel])
    labeled = synthesize_negatives(list(parallel), seed=seed)
    pairs = []
    for idx, row in enumerate(labeled):
        # Rows alternate positive, negative; both keep the positive's JA,
        # so only a negative's synthesized ZH needs segmenting.
        tokens_ja, tokens_zh = tokenized[idx // 2]
        if row.label == 0:
            tokens_zh = seg_zh(row.zh)
        pairs.append((row.ja, row.zh, tokens_ja, tokens_zh))
    features = extract_features(pairs, table_j2z, table_z2j, lm_ja_model, lm_zh_model, lex)
    forest_model = train_classifier(
        [(fv, row.label) for fv, row in zip(features, labeled)], trees=trees, depth=depth,
        seed=seed,
    )
    return BitextFilter(
        table_j2z=table_j2z,
        table_z2j=table_z2j,
        lm_ja=lm_ja_model,
        lm_zh=lm_zh_model,
        forest=forest_model,
    )
