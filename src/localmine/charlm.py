"""Character n-gram language model with add-k smoothing and backoff.

A string is scored as one padded string, ``BOS * (n - 1) + text + EOS``:
every position after the padding is an event, and its context is the
``n - 1`` symbols before it.  A context is a ``str`` of exactly ``m``
symbols, kept in ``counts[m]``.  An unseen context backs off to the next
shorter order, down to the empty context, and finally to the uniform
distribution over the alphabet (vocabulary plus the end/unknown slot),
so any string gets a finite score.

Training counts each padded string's ``n``-grams, its windows of ``n``
symbols, in one ``Counter``, and then folds every distinct n-gram's
count into each order's row: an n-gram ``gram`` is the event
``gram[-1]`` after the ``m``-symbol context ``gram[n - 1 - m : n - 1]``,
for every ``m`` below ``n``.  The counts equal a per-position count of
every order; only the order in which rows and their entries enter the
dicts differs, which no integer sum sees and which a saved model sorts
away (``to_json`` sorts the contexts and each row's characters).

On disk (filter model version 2) each order's count level is four
columns (``columns``): its contexts as plain sorted strings, each
row's length, one string of every row's continuation characters (each
is one code point) and their counts.  ``from_json`` builds each row
from the columns, every distinct continuation character one shared
string, and then the denominators, as for a trained model.  A model
file must satisfy ``train_char_lm``'s rules (order in [2, 7], positive
smoothing constant) and hold one count level per order; a level that
is not an object, a count that is not a non-negative integer (a float
or a bool included), a row whose counts total 0, or columns that
``columns.from_columns`` rejects, is a ``ValueError``.

``CharLM.denominators`` keeps each context's add-k denominator,
``count total + k * alphabet_size``, built on first use (``from_json``
builds it as it loads): the same float expression evaluated on the same
integers, so ``prob`` and ``lm_score`` return the same bits as when
they summed each row per call.  The table is never serialized.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .columns import column, from_columns, to_columns

BOS = "\x02"  # context padding, never a continuation
EOS = "\x03"  # end symbol, the vocabulary's +1 slot

DEFAULT_ORDER = 5
DEFAULT_ADD_K = 0.1


@dataclass
class CharLM:
    n: int = DEFAULT_ORDER
    k: float = DEFAULT_ADD_K
    vocabulary: set[str] = field(default_factory=set)
    # counts[m] maps an m-character context to {next_char: count}.
    counts: list[dict[str, dict[str, int]]] = field(default_factory=list)

    @property
    def alphabet_size(self) -> int:
        return len(self.vocabulary) + 1  # +1: end/unknown slot

    @cached_property
    def denominators(self) -> list[dict[str, float]]:
        """``denominators[m][context]`` is that row's add-k denominator,
        ``count total + k * alphabet_size``; built on first use (``from_json``
        builds it as it loads) and never serialized."""
        extra = self.k * self.alphabet_size
        return [{ctx: sum(row.values()) + extra for ctx, row in level.items()}
                for level in self.counts]

    def prob(self, char: str, context: str) -> float:
        """Add-k probability of ``char`` after ``context``, backing off to
        shorter contexts and finally to the uniform distribution."""
        for m in range(min(self.n - 1, len(context)), -1, -1):
            ctx = context[len(context) - m :]
            row = self.counts[m].get(ctx)
            if row is None:
                continue
            return (row.get(char, 0) + self.k) / self.denominators[m][ctx]
        return 1.0 / self.alphabet_size

    def to_json(self) -> dict:
        """Order, smoothing constant, vocabulary and, per order, the
        count level's columns (see ``columns``), its continuation
        characters joined into one string."""
        levels = []
        for level in self.counts:
            contexts, row_lengths, chars, counts = to_columns(level)
            levels.append({"contexts": contexts, "row_lengths": row_lengths,
                           "chars": "".join(chars), "counts": counts})
        return {"n": self.n, "k": self.k, "vocabulary": sorted(self.vocabulary),
                "levels": levels}

    @classmethod
    def from_json(cls, obj: dict) -> "CharLM":
        """Read ``to_json`` output and build the denominators.  A model
        that ``train_char_lm`` could not have made (order, smoothing
        constant, number of count levels, a count that is not a
        non-negative integer, or a row whose counts total 0), or a
        level whose columns ``columns.from_columns`` rejects, is a
        ``ValueError``."""
        n = int(obj["n"])
        k = float(obj["k"])
        _check_parameters(n, k)
        levels = obj["levels"]
        if len(levels) != n:
            raise ValueError(f"order {n} model has {len(levels)} count levels")
        lm = cls(n=n, k=k, vocabulary=set(obj["vocabulary"]))
        memo: dict[str, str] = {}
        for level in levels:
            if type(level) is not dict:
                raise ValueError(f"count level is a {type(level).__name__}, not an object")
            chars = level.get("chars")
            if type(chars) is not str:
                raise ValueError(f"chars is a {type(chars).__name__}, not a string")
            counts = column(level, "counts", int)
            if min(counts, default=0) < 0:
                raise ValueError("count level holds a negative count")
            rows = from_columns(column(level, "contexts", str), column(level, "row_lengths", int),
                                chars, counts, memo)
            if any(not any(row.values()) for row in rows.values()):
                raise ValueError("count level holds a row whose counts total 0")
            lm.counts.append(rows)
        lm.denominators  # builds the table, as for a trained model
        return lm


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
    lm = CharLM(n=n, k=k, counts=[{} for _ in range(n)])
    grams: Counter[str] = Counter()
    for text in strings:
        lm.vocabulary.update(text)
        padded = BOS * (n - 1) + text + EOS
        grams.update(padded[start : start + n] for start in range(len(padded) - n + 1))
    for gram, count in grams.items():
        char = gram[-1]
        for m, level in enumerate(lm.counts):
            row = level.setdefault(gram[n - 1 - m : n - 1], {})
            row[char] = row.get(char, 0) + count
    return lm


def lm_score(lm: CharLM, text: str) -> float:
    """Mean log-probability per character, end symbol included (<= 0)."""
    if not text:
        raise ValueError("empty text")
    n = lm.n
    k = lm.k
    # ``CharLM.prob`` inlined: the context is always n - 1 symbols long,
    # so the back-off tries every order from n - 1 down to 0.
    orders = [(m, lm.counts[m], lm.denominators[m]) for m in range(n - 1, -1, -1)]
    uniform = 1.0 / lm.alphabet_size
    padded = BOS * (n - 1) + text + EOS
    total = 0.0
    for pos in range(n - 1, len(padded)):
        char = padded[pos]
        for m, level, denominators in orders:
            ctx = padded[pos - m : pos]
            row = level.get(ctx)
            if row is not None:
                total += math.log((row.get(char, 0) + k) / denominators[ctx])
                break
        else:
            total += math.log(uniform)
    return total / (len(padded) - n + 1)
