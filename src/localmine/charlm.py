"""Character n-gram language model with add-k smoothing and backoff.

A string is scored as one padded string, ``BOS * (n - 1) + text + EOS``:
every position after the padding is an event, and its context is the
``n - 1`` symbols before it.  A context is a ``str`` of exactly ``m``
symbols, kept in ``counts[m]``.  An unseen context backs off to the next
shorter order, down to the empty context, and finally to the uniform
distribution over the alphabet (vocabulary plus the end/unknown slot),
so any string gets a finite score.

On disk a context is written as its symbols joined by NUL, and read
back with ``key[::2]``, which is exact for every symbol, NUL included.
``from_json`` keeps each parsed count row as the model's row, without
copying it.  A model file must satisfy ``train_char_lm``'s rules (order
in [2, 7], positive smoothing constant) and hold one count level per
order; a count row that is not an object, that holds a negative count,
or whose counts do not sum to a positive integer, is a ``ValueError``.

``CharLM.denominators`` keeps each context's add-k denominator,
``count total + k * alphabet_size``, built once on first use: the same
float expression evaluated on the same integers, so ``prob`` and
``lm_score`` return the same bits as when they summed each row per
call.  The table is never serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

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
        ``count total + k * alphabet_size``; built on first use and never
        serialized."""
        extra = self.k * self.alphabet_size
        return [{ctx: _denominator(row, extra) for ctx, row in level.items()}
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
        return {
            "n": self.n,
            "k": self.k,
            "vocabulary": sorted(self.vocabulary),
            "counts": [
                [["\x00".join(ctx), row] for ctx, row in sorted(level.items())]
                for level in self.counts
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CharLM":
        """Read ``to_json`` output, keeping each parsed count row as the
        row.  A model that ``train_char_lm`` could not have made (order,
        smoothing constant, number of count levels, or a row that is not
        non-negative counts with a positive integer total) is a
        ``ValueError``."""
        n = int(obj["n"])
        k = float(obj["k"])
        _check_parameters(n, k)
        if len(obj["counts"]) != n:
            raise ValueError(f"order {n} model has {len(obj['counts'])} count levels")
        lm = cls(
            n=n,
            k=k,
            vocabulary=set(obj["vocabulary"]),
            counts=[{key[::2]: row for key, row in level} for level in obj["counts"]],
        )
        lm.denominators  # checks every row
        return lm


def _denominator(row: dict[str, int], extra: float) -> float:
    """A count row's add-k denominator, ``count total + extra``; a row
    that is not non-negative counts summing to a positive integer is a
    ``ValueError``."""
    try:
        total = sum(row.values())
    except AttributeError:
        raise ValueError(f"count row is a {type(row).__name__}, not an object") from None
    except TypeError:
        raise ValueError("count row holds a count that is not a number") from None
    if type(total) is not int or total <= 0:
        raise ValueError(f"count row totals {total!r}, not a positive integer")
    if len(row) > 1 and min(row.values()) < 0:  # a lone count is the positive total
        raise ValueError("count row holds a negative count")
    return total + extra


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
    for text in strings:
        lm.vocabulary.update(text)
        padded = BOS * (n - 1) + text + EOS
        for pos in range(n - 1, len(padded)):
            char = padded[pos]
            for m in range(n):
                row = lm.counts[m].setdefault(padded[pos - m : pos], {})
                row[char] = row.get(char, 0) + 1
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
