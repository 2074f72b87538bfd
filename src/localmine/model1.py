"""Lexical translation probabilities estimated with IBM Model 1 EM.

Self-contained and deterministic: probabilities start uniform over
co-occurring token pairs (plus an explicit NULL source), the E-step
accumulates expected counts with per-position normalization and the
M-step renormalizes per source token.  Corpus log-likelihood is
recorded every iteration and is non-decreasing.

The EM loop runs over flat arrays.  Tokens are interned to ints, and
each (source, target) co-occurrence cell gets an id in the order the
corpus first visits it.  One flat array holds a cell id per (pair,
target position, source position), in that nesting order; a parallel
array holds the (pair, target position) group.  An iteration gathers
``p = prob[cell]``, sums ``denom = bincount(group, p)``, takes
``share = p / denom[group]`` and sums the shares by cell and by source.
``np.bincount`` adds its weights one at a time in array order, the
order a per-token loop visits them in, so every sum, and so the table,
its row order and the log-likelihoods, is bit-identical to that loop.
The log-likelihood is summed in Python with ``math.log`` for the same
reason.  A cell whose probability reaches exactly 0.0 leaves its row.

For scoring, ``TranslationTable.ranked`` keeps each source's targets of
positive probability in descending order, built once on first use.
``best_prob`` returns the first ranked target present among the
candidates: no later target can be larger, and the float returned is
the row's own, so the result equals the loop over the candidates.  It
looks at most ``len(candidates)`` ranked targets and, when none of them
is present in a longer row, runs that loop instead.

On disk (filter model version 3, ``modelfile``) a table is seven
arrays: the sources, sorted, as their code points (``<u4``) and their
lengths; each row's length; the distinct targets, sorted, as code
points and lengths; each entry's target as its index among them, row
after row and sorted within a row; and the probabilities as ``<f8``,
which carry every bit, so no float is written as text or parsed from
it.  ``from_arrays`` builds each row from them, every distinct target
one shared string.  Arrays whose lengths disagree, a row length that is
not positive, a code point that is not a character, a target index out
of range, a repeated source or a target repeated within a row, or a
probability that is negative, NaN or infinite, none of which training
can make, is a ``ValueError``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, islice
from typing import AbstractSet, Sequence

import numpy as np

from .modelfile import Arrays, Section, array

logger = logging.getLogger(__name__)

NULL_TOKEN = "<null>"
DEFAULT_ITERATIONS = 10


@dataclass
class TranslationTable:
    """t(trg | src) for co-occurring pairs; per-source rows sum to 1."""

    t: dict[str, dict[str, float]] = field(default_factory=dict)
    direction: str = ""
    log_likelihoods: list[float] = field(default_factory=list)

    def prob(self, trg: str, src: str) -> float:
        return self.t.get(src, {}).get(trg, 0.0)

    @cached_property
    def ranked(self) -> dict[str, tuple[str, ...]]:
        """Per source, its targets of positive probability by descending
        probability; built on first use and never serialized."""
        return {
            src: tuple(sorted((trg for trg, p in row.items() if p > 0.0),
                              key=row.__getitem__, reverse=True))
            for src, row in self.t.items()
        }

    def best_prob(self, src: str, candidates: AbstractSet[str]) -> float:
        """Max t(trg|src) over the given candidate targets, 0.0 when none
        has a positive probability.

        Scans at most ``len(candidates)`` ranked targets: the first one
        present is the maximum.  When none of those is present and the
        row ranks more, the candidates are looped over instead."""
        ranked = self.ranked.get(src)
        if not ranked:
            return 0.0
        row = self.t[src]
        limit = len(candidates)
        for trg in ranked[:limit]:
            if trg in candidates:
                return row[trg]
        if len(ranked) <= limit:
            return 0.0
        best = 0.0
        for trg in candidates:
            p = row.get(trg, 0.0)
            if p > best:
                best = p
        return best

    def to_arrays(self) -> Section:
        """Direction and the table's arrays (see the module docstring);
        the EM history is not kept.  An empty row is not written."""
        sources = sorted(src for src, row in self.t.items() if row)
        rows = [sorted(self.t[src].items()) for src in sources]
        targets = sorted({trg for row in rows for trg, _ in row})
        target_id = {trg: i for i, trg in enumerate(targets)}
        source_codes, source_lengths = _encode(sources)
        target_codes, target_lengths = _encode(targets)
        return {"direction": self.direction}, {
            "sources": source_codes,
            "source_lengths": source_lengths,
            "row_lengths": np.array([len(row) for row in rows], dtype="<i8"),
            "targets": target_codes,
            "target_lengths": target_lengths,
            "target_ids": np.array([target_id[trg] for row in rows for trg, _ in row],
                                   dtype="<i8"),
            "probs": np.array([p for row in rows for _, p in row], dtype="<f8"),
        }

    @classmethod
    def from_arrays(cls, scalars: dict, arrays: Arrays) -> "TranslationTable":
        """Read ``to_arrays`` output; see the module docstring."""
        row_lengths = array(arrays, "row_lengths", "<i8")
        target_ids = array(arrays, "target_ids", "<i8")
        probs = array(arrays, "probs", "<f8")
        sources = _decode(arrays, "sources", "source_lengths")
        if len(sources) != len(row_lengths):
            raise ValueError(f"{len(sources)} row names but {len(row_lengths)} row lengths")
        if not (row_lengths > 0).all():
            raise ValueError("a row length is not positive")
        n_entries = len(target_ids)
        if not (row_lengths <= n_entries).all() or row_lengths.sum() != n_entries \
                or n_entries != len(probs):
            raise ValueError(f"rows of {row_lengths.sum()} entries hold {n_entries} keys "
                             f"and {len(probs)} values")
        targets = _decode(arrays, "targets", "target_lengths")
        if not ((target_ids >= 0) & (target_ids < len(targets))).all():
            raise ValueError(f"a target id is not one of the {len(targets)} targets")
        if not ((probs >= 0.0) & (probs < math.inf)).all():
            raise ValueError("probs holds a probability that is negative, NaN or infinite")
        # An object array holds references only: no int object per entry.
        keys = iter(np.array(targets, dtype=object)[target_ids])
        values = iter(probs.tolist())
        t = {
            src: dict(zip(islice(keys, length), islice(values, length)))
            for src, length in zip(sources, row_lengths.tolist())
        }
        if len(t) != len(sources):
            raise ValueError("a row name is repeated")
        if sum(map(len, t.values())) != n_entries:
            raise ValueError("a key is repeated within a row")
        return cls(t=t, direction=scalars.get("direction", ""))


def _encode(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The strings' code points, one after another, and their lengths."""
    codes = "".join(strings).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(codes, dtype="<u4"), np.array([len(s) for s in strings], dtype="<i8")


def _decode(arrays: Arrays, name: str, lengths_name: str) -> list[str]:
    """The strings ``_encode`` wrote as the arrays ``name`` and
    ``lengths_name``."""
    codes = array(arrays, name, "<u4")
    lengths = array(arrays, lengths_name, "<i8")
    if not ((lengths >= 0) & (lengths <= len(codes))).all() or lengths.sum() != len(codes):
        raise ValueError(f"{lengths_name} do not add up to the {len(codes)} code points "
                         f"of {name}")
    try:
        text = str(codes.data, "utf-32-le", "surrogatepass")
    except UnicodeDecodeError:
        raise ValueError(f"{name} holds a code point that is not a character") from None
    ends = accumulate(lengths.tolist())
    return list(map(text.__getitem__, map(slice, accumulate(lengths.tolist(), initial=0), ends)))


def train_model1(
    corpus: Sequence[tuple[Sequence[str], Sequence[str]]],
    iterations: int = DEFAULT_ITERATIONS,
    direction: str = "",
) -> TranslationTable:
    """Estimate t(trg|src) by EM over a tokenized parallel corpus.

    Every target token may also align to the NULL source token.  The
    per-source probability rows sum to 1 after every iteration.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    pairs = [
        ([NULL_TOKEN] + list(src), list(trg))
        for src, trg in corpus
        if src and trg
    ]
    if not pairs:
        raise ValueError("no usable sentence pairs")

    # Intern tokens; source ids in first-seen order are the table's row order.
    src_vocab: dict[str, int] = {}
    trg_vocab: dict[str, int] = {}
    src_tokens: list[int] = []
    trg_tokens: list[int] = []
    for src, trg in pairs:
        src_tokens.extend([src_vocab.setdefault(s, len(src_vocab)) for s in src])
        trg_tokens.extend([trg_vocab.setdefault(e, len(trg_vocab)) for e in trg])
    src_len = np.array([len(src) for src, _ in pairs], dtype=np.int64)
    trg_len = np.array([len(trg) for _, trg in pairs], dtype=np.int64)

    # One group per (pair, target position), i.e. per target token; each
    # group spans its pair's source positions.
    group_pair = np.repeat(np.arange(len(pairs)), trg_len)
    group_size = src_len[group_pair]
    n_groups = len(group_size)
    group = np.repeat(np.arange(n_groups), group_size)
    group_start = np.cumsum(group_size) - group_size
    src_start = (np.cumsum(src_len) - src_len)[group_pair]
    offset = np.arange(len(group)) - group_start[group]
    flat_src = np.array(src_tokens, dtype=np.int64)[src_start[group] + offset]
    flat_trg = np.array(trg_tokens, dtype=np.int64)[group]

    # Cells numbered by first occurrence in the flat (pair, target, source) order.
    keys, first, inverse = np.unique(
        flat_src * len(trg_vocab) + flat_trg, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cell = rank[inverse.reshape(-1)]
    cell_src, cell_trg = np.divmod(keys[order], len(trg_vocab))

    # Uniform initialization over co-occurring pairs.
    prob = 1.0 / np.bincount(cell_src, minlength=len(src_vocab))[cell_src]
    log_src_len = [math.log(len(src)) for src, trg in pairs for _ in trg]

    history: list[float] = []
    for _ in range(iterations):
        before = prob
        p = prob[cell]
        denom = np.bincount(group, weights=p, minlength=n_groups)
        log_likelihood = 0.0
        for d, log_len in zip(denom.tolist(), log_src_len):
            log_likelihood += math.log(d) - log_len
        share = p / denom[group]
        counts = np.bincount(cell, weights=share, minlength=len(cell_src))
        totals = np.bincount(flat_src, weights=share, minlength=len(src_vocab))
        # Every row holds an entry of at least 1/len(row), whose share is
        # positive, so every total is positive and every row is rebuilt.
        prob = counts / totals[cell_src]
        history.append(log_likelihood)

    # A row keeps the cells the last E-step visited with nonzero
    # probability, in the order it first visited them.
    kept = np.flatnonzero(before > 0.0)
    kept = kept[np.argsort(cell_src[kept], kind="stable")]
    ends = np.cumsum(np.bincount(cell_src[kept], minlength=len(src_vocab))).tolist()
    trg_names = list(trg_vocab)
    targets = [trg_names[i] for i in cell_trg[kept].tolist()]
    values = prob[kept].tolist()
    t: dict[str, dict[str, float]] = {}
    start = 0
    for s, end in zip(src_vocab, ends):
        t[s] = dict(zip(targets[start:end], values[start:end]))
        start = end

    table = TranslationTable(t=t, direction=direction)
    table.log_likelihoods = history
    return table
