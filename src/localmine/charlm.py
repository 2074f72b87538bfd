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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def prob(self, char: str, context: str) -> float:
        """Add-k probability of ``char`` after ``context``, backing off to
        shorter contexts and finally to the uniform distribution."""
        for m in range(min(self.n - 1, len(context)), -1, -1):
            row = self.counts[m].get(context[len(context) - m :])
            if row is None:
                continue
            total = sum(row.values())
            return (row.get(char, 0) + self.k) / (total + self.k * self.alphabet_size)
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
        return cls(
            n=int(obj["n"]),
            k=float(obj["k"]),
            vocabulary=set(obj["vocabulary"]),
            counts=[
                {key[::2]: {ch: int(cnt) for ch, cnt in row.items()} for key, row in level}
                for level in obj["counts"]
            ],
        )


def train_char_lm(corpus: Iterable[str], n: int = DEFAULT_ORDER, k: float = DEFAULT_ADD_K) -> CharLM:
    """Count padded character n-grams of every order up to ``n``."""
    if not (2 <= n <= 7):
        raise ValueError("order must be in [2, 7]")
    if k <= 0:
        raise ValueError("smoothing constant must be positive")
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
    padded = BOS * (lm.n - 1) + text + EOS
    total = 0.0
    for pos in range(lm.n - 1, len(padded)):
        total += math.log(lm.prob(padded[pos], padded[pos - lm.n + 1 : pos]))
    return total / (len(padded) - lm.n + 1)
