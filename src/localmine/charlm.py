"""Character n-gram language model with add-k smoothing and backoff.

A string is scored as one padded string, ``BOS * (n - 1) + text + EOS``:
every position after the padding is an event, and its context is the
``n - 1`` symbols before it.  An unseen context backs off to the
longest suffix of it that the model holds as a context, down to the
empty context, and finally to the uniform distribution over the
alphabet (vocabulary plus the end/unknown slot), so any string gets a
finite score.

Each order ``m`` below ``n`` is one ``Level`` of sorted integer arrays,
searched directly (as KenLM stores its n-grams) rather than held as
nested dicts.  A symbol is its code point (``str.encode("utf-32-le",
"surrogatepass")``, so a lone surrogate is one symbol too), which fits
in ``CODE_BITS`` bits:

- ``contexts``: each ``m``-symbol context's key, ``parent << CODE_BITS |
  last symbol``, where ``parent`` is the row of the context's first
  ``m - 1`` symbols in order ``m - 1`` (order 0 holds at most the empty
  context, key 0).  Sorting the keys sorts the contexts as strings, so
  a context's row is its rank among the sorted context strings.
- ``denominators``: each context's add-k denominator, its int64 count
  total plus ``k * alphabet_size``, as float64.
- ``ngrams``: each (context, next symbol) pair seen, ``context row <<
  CODE_BITS | symbol``, sorted; ``counts`` holds their int64 counts.

``lm_scores`` scores a batch of strings at once: every position's
order-``m`` context is found by one ``searchsorted`` per order, keyed by
the order ``m - 1`` context one position earlier, so a text costs no
Python work per position but the final ``math.log`` and the left-fold
sum.  The probability ``(count + k) / denominator`` is the same float64
expression on the same integers as a per-position dict walk, so scores
are the same bits.

Training counts each padded string's ``n``-grams, its windows of ``n``
symbols, in one ``Counter``; every order's column form (the one a model
file holds, see below) is then sorted out of the distinct n-grams at
once, and the levels are built from those columns exactly as
``from_json`` builds them.

On disk (filter model version 2) each order's count level is four
columns (``columns``): its contexts as plain sorted strings, each
row's length, one string of every row's continuation characters (each
is one code point) and their counts.  A model file must satisfy
``train_char_lm``'s rules (order in [2, 7], positive smoothing
constant) and hold one count level per order, and its vocabulary must
be a list of distinct single characters.  A level that is not an
object; a count that is not a non-negative integer (a float or a bool
included); counts whose total does not fit in int64; a context that is
not exactly ``m`` characters long, or whose first ``m - 1`` characters
are not a context of order ``m - 1``; a repeated context, or a
character repeated within a row; a row whose counts total 0; or columns
whose lengths disagree (``columns.check_lengths``) is a ``ValueError``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .columns import check_lengths, column

BOS = "\x02"  # context padding, never a continuation
EOS = "\x03"  # end symbol, the vocabulary's +1 slot

DEFAULT_ORDER = 5
DEFAULT_ADD_K = 0.1

CODE_BITS = 21  # every code point is below 2**21
_CODE_MASK = (1 << CODE_BITS) - 1
# Positions ``lm_scores`` handles per block: bounds its temporary arrays.
_BLOCK_POSITIONS = 1 << 14


class Level(NamedTuple):
    """One order's count level; see the module docstring."""

    contexts: np.ndarray  # int64, sorted
    denominators: np.ndarray  # float64, one per context
    ngrams: np.ndarray  # int64, sorted
    counts: np.ndarray  # int64, one per n-gram


@dataclass
class CharLM:
    """An order-``n`` model: ``levels[m]`` is order ``m``'s ``Level``,
    for every ``m`` below ``n``.  Made by ``train_char_lm`` or
    ``from_json``."""

    n: int = DEFAULT_ORDER
    k: float = DEFAULT_ADD_K
    vocabulary: set[str] = field(default_factory=set)
    levels: list[Level] = field(default_factory=list)

    @property
    def alphabet_size(self) -> int:
        return len(self.vocabulary) + 1  # +1: end/unknown slot

    def to_json(self) -> dict:
        """Order, smoothing constant, vocabulary and, per order, the
        count level's columns (see ``columns``), its continuation
        characters joined into one string."""
        levels = []
        names: list[str] = []
        for level in self.levels:
            if levels:  # a context is its parent's name and its last symbol
                parents = (level.contexts >> CODE_BITS).tolist()
                names = [names[p] + c for p, c in zip(parents, _text(level.contexts))]
            else:
                names = [""] * len(level.contexts)
            levels.append({
                "contexts": names,
                "row_lengths": np.bincount(level.ngrams >> CODE_BITS,
                                           minlength=len(names)).tolist(),
                "chars": _text(level.ngrams),
                "counts": level.counts.tolist(),
            })
        return {"n": self.n, "k": self.k, "vocabulary": sorted(self.vocabulary),
                "levels": levels}

    @classmethod
    def from_json(cls, obj: dict) -> "CharLM":
        """Read ``to_json`` output; a model that ``train_char_lm`` could
        not have made is a ``ValueError`` (see the module docstring)."""
        n = int(obj["n"])
        k = float(obj["k"])
        _check_parameters(n, k)
        levels = obj["levels"]
        if len(levels) != n:
            raise ValueError(f"order {n} model has {len(levels)} count levels")
        if "vocabulary" not in obj:
            raise KeyError("vocabulary")  # reported as a missing key, like "n"
        vocabulary = column(obj, "vocabulary", str)
        if any(len(char) != 1 for char in vocabulary):
            raise ValueError("a vocabulary entry is not one character")
        lm = cls(n=n, k=k, vocabulary=set(vocabulary))
        if len(lm.vocabulary) != len(vocabulary):
            raise ValueError("a vocabulary character is repeated")
        for m, level in enumerate(levels):
            if type(level) is not dict:
                raise ValueError(f"count level is a {type(level).__name__}, not an object")
            chars = level.get("chars")
            if type(chars) is not str:
                raise ValueError(f"chars is a {type(chars).__name__}, not a string")
            counts = column(level, "counts", int)
            if min(counts, default=0) < 0:
                raise ValueError("count level holds a negative count")
            if sum(counts) > np.iinfo(np.int64).max:
                raise ValueError("count level's counts do not fit in int64")
            contexts = column(level, "contexts", str)
            lengths = column(level, "row_lengths", int)
            check_lengths(contexts, lengths, len(chars), len(counts))
            if any(len(context) != m for context in contexts):
                raise ValueError(f"an order-{m} context is not {m} characters long")
            lm.levels.append(_level(
                lm, _code_points("".join(contexts)).reshape(len(contexts), m),
                np.array(lengths, dtype=np.int64), _code_points(chars),
                np.array(counts, dtype=np.int64),
            ))
        return lm


def _code_points(text: str) -> np.ndarray:
    """``text``'s code points, as a read-only uint32 array."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _text(keys: np.ndarray) -> str:
    """The symbols in the low ``CODE_BITS`` bits of ``keys``, as one string."""
    return (keys & _CODE_MASK).astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")


def _find(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Each query's row in the sorted ``keys``, or -1 where it is absent
    (a negative query, keyed by an absent row, is always absent)."""
    if not len(keys):
        return np.full(queries.shape, -1, dtype=np.int64)
    rows = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[rows] == queries, rows, -1)


def _level(lm: CharLM, contexts: np.ndarray, lengths: np.ndarray, chars: np.ndarray,
           counts: np.ndarray) -> Level:
    """Order ``len(lm.levels)``'s ``Level`` from its columns as code
    points: ``contexts`` one row of ``m`` symbols per context,
    ``lengths`` each context's number of continuations, and ``chars`` and
    ``counts`` the continuations row after row.  The lower orders must be
    in ``lm.levels`` already."""
    m = contexts.shape[1]
    # Each context's prefix's row, from the empty context's (row 0, or
    # -1 where order 0 lacks it) up through the orders.
    empty = 0 if m == 0 or len(lm.levels[0].contexts) else -1
    parents = np.full(len(contexts), empty, dtype=np.int64)
    for j in range(1, m):
        parents = _find(lm.levels[j].contexts, parents << CODE_BITS | contexts[:, j - 1])
    if (parents < 0).any():
        raise ValueError(f"the first {m - 1} characters of an order-{m} context "
                         "are not a context")
    keys = parents << CODE_BITS | contexts[:, -1] if m else parents
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("a row name is repeated")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ngrams = np.repeat(rank, lengths) << CODE_BITS | chars
    by_key = np.argsort(ngrams, kind="stable")
    ngrams = ngrams[by_key]
    if (ngrams[1:] == ngrams[:-1]).any():
        raise ValueError("a key is repeated within a row")
    totals = np.add.reduceat(counts, np.cumsum(lengths) - lengths) if len(counts) else counts
    if (totals == 0).any():
        raise ValueError("count level holds a row whose counts total 0")
    return Level(contexts=keys, denominators=totals[order] + lm.k * lm.alphabet_size,
                 ngrams=ngrams, counts=counts[by_key])


def _check_parameters(n: int, k: float) -> None:
    if not (2 <= n <= 7):
        raise ValueError("order must be in [2, 7]")
    if not k > 0:
        raise ValueError("smoothing constant must be positive")


def train_char_lm(corpus: Iterable[str], n: int = DEFAULT_ORDER, k: float = DEFAULT_ADD_K) -> CharLM:
    """Count padded character n-grams of every order up to ``n``."""
    _check_parameters(n, k)
    strings = [s for s in corpus if s]
    if not strings:
        raise ValueError("empty corpus")
    lm = CharLM(n=n, k=k)
    grams: Counter[str] = Counter()
    for text in strings:
        lm.vocabulary.update(text)
        padded = BOS * (n - 1) + text + EOS
        grams.update(padded[start : start + n] for start in range(len(padded) - n + 1))
    symbols = _code_points("".join(grams)).reshape(len(grams), n)
    gram_counts = np.fromiter(grams.values(), dtype=np.int64, count=len(grams))
    for m in range(n):
        # Order m's events: the last m + 1 symbols of each n-gram, sorted
        # as strings, equal ones merged.
        events = symbols[:, n - 1 - m :]
        order = np.lexsort(events.T[::-1])
        events = events[order]
        starts = np.flatnonzero(np.r_[True, (events[1:] != events[:-1]).any(axis=1)])
        counts = np.add.reduceat(gram_counts[order], starts)
        events = events[starts]
        rows = np.flatnonzero(np.r_[True, (events[1:, :m] != events[:-1, :m]).any(axis=1)])
        lm.levels.append(_level(lm, events[rows, :m], np.diff(np.r_[rows, len(events)]),
                                events[:, m], counts))
    return lm


def lm_scores(lm: CharLM, texts: Sequence[str]) -> list[float]:
    """Each text's mean log-probability per character, end symbol
    included (<= 0); see the module docstring."""
    if not all(texts):
        raise ValueError("empty text")
    scores: list[float] = []
    block: list[str] = []
    size = 0
    for text in texts:
        block.append(text)
        size += len(text) + lm.n
        if size >= _BLOCK_POSITIONS:
            scores += _block_scores(lm, block)
            block, size = [], 0
    if block:
        scores += _block_scores(lm, block)
    return scores


def _block_scores(lm: CharLM, texts: list[str]) -> list[float]:
    """``lm_scores`` of one block of non-empty texts."""
    n = lm.n
    symbols = _code_points("".join(BOS * (n - 1) + text + EOS for text in texts))
    # The row of each position's order-m context, the m symbols before
    # it (-1 where the model lacks it); the order-0 context is empty.
    context = np.full(len(symbols), 0 if len(lm.levels[0].contexts) else -1, dtype=np.int64)
    best_order = np.where(context < 0, -1, 0)
    best_row = context.copy()
    for m in range(1, n):
        context[1:] = _find(lm.levels[m].contexts, context[:-1] << CODE_BITS | symbols[:-1])
        context[0] = -1
        found = context >= 0
        best_order[found] = m
        best_row[found] = context[found]
    # Events: every position past each text's padding.
    lengths = [len(text) + n for text in texts]
    events = np.ones(len(symbols), dtype=bool)
    events[(np.cumsum(lengths) - lengths)[:, None] + np.arange(n - 1)] = False
    events = np.flatnonzero(events)
    event_order = best_order[events]
    event_row = best_row[events]
    event_symbol = symbols[events]
    probs = np.full(len(events), 1.0 / lm.alphabet_size)
    for m, level in enumerate(lm.levels):
        at = np.flatnonzero(event_order == m)
        rows = event_row[at]
        found = _find(level.ngrams, rows << CODE_BITS | event_symbol[at])
        counts = np.where(found >= 0, level.counts[found], 0)
        probs[at] = (counts + lm.k) / level.denominators[rows]
    # math.log and a left fold, as a loop over the positions would do.
    values = probs.tolist()
    scores = []
    start = 0
    for length in lengths:
        end = start + length - n + 1
        scores.append(reduce(operator.add, map(math.log, values[start:end]), 0.0)
                      / (end - start))
        start = end
    return scores


def lm_score(lm: CharLM, text: str) -> float:
    """``lm_scores`` of one text."""
    return lm_scores(lm, [text])[0]
