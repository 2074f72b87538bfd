"""Sentence-pair filtering: translation-probability and language-model
features feeding the bagged-tree classifier, plus the embedding gate.

The trained filter bundles both translation directions, both character
LMs and the forest into one JSON container that round-trips exactly.
"""

from __future__ import annotations

import json
import logging
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .charlm import CharLM, lm_score, train_char_lm
from .forest import RandomForest
from .lexicon import Lexicon, coverage
from .model1 import TranslationTable, train_model1
from .text import LanguageTag, Segmenter

logger = logging.getLogger(__name__)

DEFAULT_SCORE_THRESHOLD = 0.5
DEFAULT_EMBED_THRESHOLD = 0.7

FEATURE_NAMES = (
    "len_ja", "len_zh", "len_ratio", "tok_ratio",
    "cov_j2z", "cov_z2j", "avgmaxp_j2z", "avgmaxp_z2j",
    "lm_ja", "lm_zh", "num_match", "punct_diff",
)

_DIGIT_RUN_RE = re.compile(r"\d+")
_PUNCT_SET = set("。．！？!?.、，,：:；;「」『』（）()[]【】《》〈〉\"“”'‘’")

EmbeddingProvider = Callable[[Sequence[str]], "list[list[float] | None]"]
"""Batch sentence-vector capability; None marks a per-sentence failure."""


@dataclass
class FeatureVector:
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

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


@dataclass
class CorpusRecord:
    """One sentence pair from alignment candidate to corpus line: the
    filter sets ``filter_score``, the embedding gate ``embed_sim``."""

    ja: str
    zh: str
    src_url_ja: str = ""
    src_url_zh: str = ""
    doc_score: float = 0.0
    bead_cost: float = 0.0
    filter_score: float = 0.0
    embed_sim: float | None = None

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

    @classmethod
    def from_json(cls, obj: dict) -> "CorpusRecord":
        return cls(
            ja=obj["ja"],
            zh=obj["zh"],
            src_url_ja=obj.get("src_url_ja", ""),
            src_url_zh=obj.get("src_url_zh", ""),
            doc_score=float(obj.get("doc_score", 0.0)),
            bead_cost=float(obj.get("bead_cost", 0.0)),
            filter_score=float(obj.get("filter_score", 0.0)),
            embed_sim=(None if obj.get("embed_sim") is None else float(obj["embed_sim"])),
        )

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
        return cls(
            ja=obj["ja"],
            zh=obj["zh"],
            src_url_ja=obj.get("url_ja", ""),
            src_url_zh=obj.get("url_zh", ""),
            doc_score=float(obj.get("doc_score", 0.0)),
            bead_cost=float(obj.get("bead_cost", 0.0)),
        )


@dataclass
class LabeledPair:
    ja: str
    zh: str
    label: int


def _avg_max_prob(
    src_tokens: list[str], trg_tokens: list[str], table: TranslationTable
) -> float:
    """Mean over source tokens of the best translation probability among
    tokens actually present on the other side."""
    if not src_tokens:
        return 0.0
    trg_set = set(trg_tokens)
    total = 0.0
    for tok in src_tokens:
        total += table.best_prob(tok, trg_set)
    return total / len(src_tokens)


def _digit_runs(text: str) -> Counter:
    return Counter(_DIGIT_RUN_RE.findall(text))


def _punct_count(text: str) -> int:
    return sum(1 for ch in text if ch in _PUNCT_SET)


def extract_features(
    ja: str,
    zh: str,
    tokens_ja: list[str],
    tokens_zh: list[str],
    table_j2z: TranslationTable,
    table_z2j: TranslationTable,
    lm_ja_model: CharLM,
    lm_zh_model: CharLM,
    lex: Lexicon,
) -> FeatureVector:
    """All 12 filter features for one candidate pair."""
    len_ja = len(ja)
    len_zh = len(zh)
    longer = max(len_ja, len_zh)
    n_tok_ja = len(tokens_ja)
    n_tok_zh = len(tokens_zh)
    longer_tok = max(n_tok_ja, n_tok_zh)
    p_ja = _punct_count(ja)
    p_zh = _punct_count(zh)
    return FeatureVector(
        len_ja=float(len_ja),
        len_zh=float(len_zh),
        len_ratio=(min(len_ja, len_zh) / longer) if longer else 0.0,
        tok_ratio=(min(n_tok_ja, n_tok_zh) / longer_tok) if longer_tok else 0.0,
        cov_j2z=coverage(tokens_ja, tokens_zh, lex, LanguageTag.JA),
        cov_z2j=coverage(tokens_zh, tokens_ja, lex, LanguageTag.ZH),
        avgmaxp_j2z=_avg_max_prob(tokens_ja, tokens_zh, table_j2z),
        avgmaxp_z2j=_avg_max_prob(tokens_zh, tokens_ja, table_z2j),
        lm_ja=lm_score(lm_ja_model, ja) if ja else 0.0,
        lm_zh=lm_score(lm_zh_model, zh) if zh else 0.0,
        num_match=1.0 if _digit_runs(ja) == _digit_runs(zh) else 0.0,
        punct_diff=abs(p_ja - p_zh) / max(p_ja + p_zh, 1),
    )


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
    trees: int = 100,
    depth: int = 8,
    seed: int = 0,
) -> RandomForest:
    """Fit the bagged-tree ensemble on labeled feature vectors."""
    if not rows:
        raise ValueError("no training rows")
    x = np.stack([fv.as_array() for fv, _ in rows])
    y = np.array([label for _, label in rows], dtype=np.int64)
    model = RandomForest(n_trees=trees, max_depth=depth, seed=seed)
    return model.fit(x, y)


def score_pair(model: RandomForest, fv: FeatureVector) -> float:
    """Ensemble vote fraction in [0, 1]; the pipeline keeps pairs whose
    score reaches the configured threshold (default 0.5, inclusive)."""
    return model.score_one(fv.as_array())


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
    keep_below: bool = False,
    counters: dict | None = None,
) -> list[CorpusRecord]:
    """Keep pairs whose sentence-vector cosine similarity clears the
    threshold (inclusive); provider failures drop the pair, counted,
    never fatal.  ``keep_below`` flips the comparison direction."""
    kept: list[CorpusRecord] = []
    if not pairs:
        return kept
    sentences: list[str] = []
    for pair in pairs:
        sentences.append(pair.ja)
        sentences.append(pair.zh)
    try:
        vectors = provider(sentences)
    except Exception as err:
        logger.warning("embedding provider failed for the whole batch: %s", err)
        if counters is not None:
            counters["embed_failures"] = counters.get("embed_failures", 0) + len(pairs)
        return kept
    if len(vectors) != len(sentences):
        raise ValueError("embedding provider returned a misaligned batch")
    for idx, pair in enumerate(pairs):
        vec_ja = vectors[2 * idx]
        vec_zh = vectors[2 * idx + 1]
        if vec_ja is None or vec_zh is None:
            if counters is not None:
                counters["embed_failures"] = counters.get("embed_failures", 0) + 1
            continue
        sim = cosine_similarity(vec_ja, vec_zh)
        keep = sim < threshold if keep_below else sim >= threshold
        if keep:
            pair.embed_sim = sim
            kept.append(pair)
        elif counters is not None:
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
    seed: int = 0
    threshold: float = DEFAULT_SCORE_THRESHOLD

    def features(self, ja: str, zh: str, tokens_ja: list[str], tokens_zh: list[str],
                 lex: Lexicon) -> FeatureVector:
        return extract_features(
            ja, zh, tokens_ja, tokens_zh,
            self.table_j2z, self.table_z2j, self.lm_ja, self.lm_zh, lex,
        )

    def score(self, fv: FeatureVector) -> float:
        return score_pair(self.forest, fv)

    def save(self, path: str | Path) -> None:
        payload = {
            "version": 1,
            "seed": self.seed,
            "threshold": self.threshold,
            "table_j2z": _table_to_json(self.table_j2z),
            "table_z2j": _table_to_json(self.table_z2j),
            "lm_ja": _lm_to_json(self.lm_ja),
            "lm_zh": _lm_to_json(self.lm_zh),
            "forest": self.forest.to_json(),
        }
        Path(path).write_text(
            json.dumps(payload, ensure_ascii=False, sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "BitextFilter":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("version") != 1:
            raise ValueError(f"unsupported filter model version: {payload.get('version')}")
        return cls(
            table_j2z=_table_from_json(payload["table_j2z"]),
            table_z2j=_table_from_json(payload["table_z2j"]),
            lm_ja=_lm_from_json(payload["lm_ja"]),
            lm_zh=_lm_from_json(payload["lm_zh"]),
            forest=RandomForest.from_json(payload["forest"]),
            seed=int(payload.get("seed", 0)),
            threshold=float(payload.get("threshold", DEFAULT_SCORE_THRESHOLD)),
        )


def train_filter(
    parallel: Sequence[tuple[str, str]],
    lex: Lexicon,
    seg_ja: Segmenter,
    seg_zh: Segmenter,
    model1_iterations: int = 10,
    lm_order: int = 5,
    lm_k: float = 0.1,
    trees: int = 100,
    depth: int = 8,
    seed: int = 0,
    threshold: float = DEFAULT_SCORE_THRESHOLD,
) -> BitextFilter:
    """Train every component of the filter from one parallel corpus."""
    if len(parallel) < 10:
        raise ValueError("need at least 10 parallel pairs to train the filter")
    tokenized = [(seg_ja(ja), seg_zh(zh)) for ja, zh in parallel]
    table_j2z = train_model1(tokenized, iterations=model1_iterations, direction="ja-zh")
    table_z2j = train_model1(
        [(zh, ja) for ja, zh in tokenized], iterations=model1_iterations, direction="zh-ja"
    )
    lm_ja_model = train_char_lm([ja for ja, _ in parallel], n=lm_order, k=lm_k)
    lm_zh_model = train_char_lm([zh for _, zh in parallel], n=lm_order, k=lm_k)
    labeled = synthesize_negatives(list(parallel), seed=seed)
    rows: list[tuple[FeatureVector, int]] = []
    for row in labeled:
        fv = extract_features(
            row.ja, row.zh, seg_ja(row.ja), seg_zh(row.zh),
            table_j2z, table_z2j, lm_ja_model, lm_zh_model, lex,
        )
        rows.append((fv, row.label))
    forest_model = train_classifier(rows, trees=trees, depth=depth, seed=seed)
    return BitextFilter(
        table_j2z=table_j2z,
        table_z2j=table_z2j,
        lm_ja=lm_ja_model,
        lm_zh=lm_zh_model,
        forest=forest_model,
        seed=seed,
        threshold=threshold,
    )


def _table_to_json(table: TranslationTable) -> dict:
    return {
        "direction": table.direction,
        "entries": [
            [src, trg, p]
            for src in sorted(table.t)
            for trg, p in sorted(table.t[src].items())
        ],
    }


def _table_from_json(obj: dict) -> TranslationTable:
    table = TranslationTable(direction=obj.get("direction", ""))
    for src, trg, p in obj["entries"]:
        table.t.setdefault(src, {})[trg] = float(p)
    return table


def _lm_to_json(lm: CharLM) -> dict:
    return {
        "n": lm.n,
        "k": lm.k,
        "vocabulary": sorted(lm.vocabulary),
        "counts": [
            [["\x00".join(ctx), row] for ctx, row in sorted(level.items())]
            for level in lm.counts
        ],
    }


def _lm_from_json(obj: dict) -> CharLM:
    counts: list[dict[tuple[str, ...], dict[str, int]]] = []
    for level in obj["counts"]:
        restored: dict[tuple[str, ...], dict[str, int]] = {}
        for ctx_key, row in level:
            ctx = tuple(ctx_key.split("\x00")) if ctx_key else ()
            restored[ctx] = {ch: int(cnt) for ch, cnt in row.items()}
        counts.append(restored)
    return CharLM(n=int(obj["n"]), k=float(obj["k"]), vocabulary=set(obj["vocabulary"]), counts=counts)
