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
symbols, in one ``Counter``; every order's columns (its contexts, each
context's number of continuations, and the continuations with their
counts) are then sorted out of the distinct n-grams at once, and
``_level`` turns them into the order's ``Level``.

On disk (filter model version 3, ``modelfile``) the vocabulary is its
sorted code points (``<u4``) and each order ``m`` is the three arrays
the ``Level`` keeps, ``level{m}.contexts``, ``level{m}.ngrams`` and
``level{m}.counts`` (``<i8``), read straight into it; the denominators
are recomputed from the counts.  ``from_arrays`` checks what training
guarantees.  An order outside [2, 7], a smoothing constant that is not
positive, a count level missing or extra, a vocabulary code point that
is repeated or not a character, keys that are negative or not strictly
increasing (a repeated context, or a character repeated within a row),
an order-0 context other than the empty one, a context whose first
``m - 1`` symbols are not a context of order ``m - 1``, an n-gram whose
context is not a context, a context with no n-gram, n-grams and counts
of different lengths, a negative count, counts whose total does not fit
in int64, or a context whose counts total 0, is a ``ValueError``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .modelfile import Arrays, Section, array

BOS = "\x02"  # context padding, never a continuation
EOS = "\x03"  # end symbol, the vocabulary's +1 slot

DEFAULT_ORDER = 5
DEFAULT_ADD_K = 0.1

CODE_BITS = 21  # every code point is below 2**21
# Positions ``lm_scores`` handles per block (a block ends with the text
# that reaches it): bounds its temporary arrays, each int64 one at about
# 32 kB.
_BLOCK_POSITIONS = 1 << 12


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
    ``from_arrays``."""

    n: int = DEFAULT_ORDER
    k: float = DEFAULT_ADD_K
    vocabulary: set[str] = field(default_factory=set)
    levels: list[Level] = field(default_factory=list)

    @property
    def alphabet_size(self) -> int:
        return len(self.vocabulary) + 1  # +1: end/unknown slot

    def to_arrays(self) -> Section:
        """Order, smoothing constant, and the vocabulary's and each
        level's arrays (see the module docstring)."""
        vocabulary = _code_points("".join(sorted(self.vocabulary)))
        arrays = {"vocabulary": vocabulary}
        for m, level in enumerate(self.levels):
            arrays[f"level{m}.contexts"] = level.contexts
            arrays[f"level{m}.ngrams"] = level.ngrams
            arrays[f"level{m}.counts"] = level.counts
        return {"n": self.n, "k": self.k}, arrays

    @classmethod
    def from_arrays(cls, scalars: dict, arrays: Arrays) -> "CharLM":
        """Read ``to_arrays`` output; a model that ``train_char_lm`` could
        not have made is a ``ValueError`` (see the module docstring)."""
        n = int(scalars["n"])
        k = float(scalars["k"])
        _check_parameters(n, k)
        n_levels = len({name.split(".")[0] for name in arrays} - {"vocabulary"})
        if n_levels != n:
            raise ValueError(f"order {n} model has {n_levels} count levels")
        vocabulary = array(arrays, "vocabulary", "<u4")
        ordered = np.sort(vocabulary)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("a vocabulary character is repeated")
        try:
            lm = cls(n=n, k=k, vocabulary=set(str(vocabulary.data, "utf-32-le", "surrogatepass")))
        except UnicodeDecodeError:
            raise ValueError("a vocabulary entry is not one character") from None
        for m in range(n):
            contexts = array(arrays, f"level{m}.contexts", "<i8")
            ngrams = array(arrays, f"level{m}.ngrams", "<i8")
            counts = array(arrays, f"level{m}.counts", "<i8")
            _check_keys(contexts, f"order-{m} contexts")
            _check_keys(ngrams, f"order-{m} n-grams")
            if m == 0 and (len(contexts) > 1 or contexts.any()):
                raise ValueError("order 0 holds a context other than the empty one")
            if m and len(contexts) and contexts[-1] >> CODE_BITS >= len(lm.levels[-1].contexts):
                raise ValueError(f"the first {m - 1} characters of an order-{m} context "
                                 "are not a context")
            if len(ngrams) != len(counts):
                raise ValueError(f"{len(ngrams)} order-{m} n-grams but {len(counts)} counts")
            rows = ngrams >> CODE_BITS
            if len(rows) and rows[-1] >= len(contexts):
                raise ValueError(f"an order-{m} n-gram's context is not a context")
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]]) if len(rows) else rows
            if len(starts) != len(contexts):
                raise ValueError(f"an order-{m} context has no n-gram")
            if len(counts) and counts.min() < 0:
                raise ValueError("count level holds a negative count")
            if counts.sum(dtype=np.float64) >= 2.0**62 and sum(counts.tolist()) >= 2**63:
                raise ValueError("count level's counts do not fit in int64")
            totals = np.add.reduceat(counts, starts) if len(counts) else counts
            if (totals == 0).any():
                raise ValueError("count level holds a row whose counts total 0")
            lm.levels.append(Level(contexts=contexts, denominators=totals + k * lm.alphabet_size,
                                   ngrams=ngrams, counts=counts))
        return lm


def _check_keys(keys: np.ndarray, what: str) -> None:
    """A ``ValueError`` unless ``keys`` are non-negative and strictly
    increasing."""
    if len(keys) and keys[0] < 0:
        raise ValueError(f"{what} hold a negative key")
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError(f"{what} are not strictly increasing")


def _code_points(text: str) -> np.ndarray:
    """``text``'s code points, as a read-only uint32 array."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


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
    points, in any row order: ``contexts`` one row of ``m`` symbols per
    context, ``lengths`` each context's number of continuations, and
    ``chars`` and ``counts`` the continuations row after row.  The lower
    orders must be in ``lm.levels`` already, and every context's first
    ``m - 1`` symbols must be one of them."""
    m = contexts.shape[1]
    # Each context's prefix's row, from the empty context's (row 0, or
    # -1 where order 0 lacks it) up through the orders.
    empty = 0 if m == 0 or len(lm.levels[0].contexts) else -1
    parents = np.full(len(contexts), empty, dtype=np.int64)
    for j in range(1, m):
        parents = _find(lm.levels[j].contexts, parents << CODE_BITS | contexts[:, j - 1])
    keys = parents << CODE_BITS | contexts[:, -1] if m else parents
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ngrams = np.repeat(rank, lengths) << CODE_BITS | chars
    by_key = np.argsort(ngrams, kind="stable")
    totals = np.add.reduceat(counts, np.cumsum(lengths) - lengths) if len(counts) else counts
    return Level(contexts=keys, denominators=totals[order] + lm.k * lm.alphabet_size,
                 ngrams=ngrams[by_key], counts=counts[by_key])


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
