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
order a per-token loop visits them in, so every sum, and so the
table's probabilities and the log-likelihoods, is bit-identical to that
loop.
The log-likelihood is summed in Python with ``math.log`` for the same
reason.  A cell whose probability reaches exactly 0.0 leaves its row.

A table is one representation from EM to scoring to disk: sorted
arrays, as KenLM keeps its n-gram tables.  The sources, sorted, each
get a row id and the distinct targets, sorted, a target id (the two
name-to-id dicts).  Each entry is one int64 key, ``row_id * n_targets +
target_id``, and its float64 probability; the keys are strictly
increasing, so a row's entries are contiguous and sorted by target.
``train_model1`` hands its kept cells over in that order without
building any per-row structure.  Each row also keeps its largest
probability and the target id of its first entry that holds it (16
bytes a row).

``best_probs`` scores a batch of (source side, target side) pairs a
chunk at a time.  A source position whose row's top target is among
its pair's distinct targets takes the row's maximum: one
``searchsorted`` over the chunk's sorted (pair, target) keys answers
that for every position.  Each other position looks up every distinct
target of its pair with one ``searchsorted`` over the table's keys and
takes the largest positive probability found.  Both steps are exact,
so each float is the one a per-candidate loop returns.  The first step
is the common case: on the benchmark workloads the top target answers
90 to 98 % of positions, and searching the table for every (position,
target) pair instead measured two to three times as slow.

On disk (filter model version 3, ``modelfile``) a table is seven
arrays: the sources, sorted, as their code points (``<u4``) and their
lengths; each row's length; the distinct targets, sorted, as code
points and lengths; each entry's target id, row after row and sorted
within a row; and the probabilities as ``<f8``, which carry every bit,
so no float is written as text or parsed from it.  ``from_arrays``
keeps the probabilities and builds the keys from the row lengths and
target ids.  Arrays whose lengths disagree, a row length that is not
positive, a code point that is not a character, a target id out of
range, sources or targets that are repeated or not sorted, a target
repeated or out of order within a row, or a probability that is
negative, NaN or infinite, none of which training can make, is a
``ValueError``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .modelfile import Arrays, Section, array

logger = logging.getLogger(__name__)

NULL_TOKEN = "<null>"
DEFAULT_ITERATIONS = 10
# Pairs are scored a chunk at a time, a chunk ending once its sides'
# lengths multiplied, an upper bound on its lookups, reach this: its
# index arrays stay near 128 kB however large the batch.
_LOOKUP_CHUNK = 1 << 14


@dataclass(eq=False)
class TranslationTable:
    """t(trg | src) for co-occurring pairs; per-source rows sum to 1.  See
    the module docstring for the arrays."""

    source_id: dict[str, int]
    target_id: dict[str, int]
    keys: np.ndarray  # int64, row_id * len(target_id) + target_id, increasing
    probs: np.ndarray  # float64, one per key
    direction: str = ""
    log_likelihoods: list[float] = field(default_factory=list)
    # Per row: the target id of its first largest entry, and that
    # probability, or 0.0 when it is not positive.
    row_top: np.ndarray = field(init=False, repr=False)
    row_max: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        row, target = np.divmod(self.keys, max(len(self.target_id), 1))
        if not len(row):
            self.row_top, self.row_max = np.zeros(0, dtype=np.int64), np.zeros(0)
            return
        row_max = np.maximum.reduceat(self.probs, np.searchsorted(row, np.arange(row[-1] + 1)))
        at_max = np.flatnonzero(self.probs == row_max[row])
        self.row_top = target[at_max[np.r_[True, np.diff(row[at_max]) > 0]]]
        self.row_max = np.where(row_max > 0.0, row_max, 0.0)

    def best_probs(
        self, sides: Iterable[tuple[Sequence[str], Sequence[str]]]
    ) -> Iterator[list[float]]:
        """For each ``(source tokens, target tokens)``, a list of the max
        t(trg|src) of each source position over the distinct target
        tokens, 0.0 when none has a positive probability.  Sides are
        read a chunk at a time (``_LOOKUP_CHUNK``) as the lists are
        taken."""
        src_sides: list[Sequence[str]] = []
        trg_sides: list[Sequence[str]] = []
        pending = 0
        for src, trg in sides:
            src_sides.append(src)
            trg_sides.append(trg)
            pending += len(src) * len(trg)
            if pending >= _LOOKUP_CHUNK:
                yield from self._best_probs(src_sides, trg_sides)
                src_sides, trg_sides, pending = [], [], 0
        if src_sides:
            yield from self._best_probs(src_sides, trg_sides)

    def _best_probs(self, src_sides: list[Sequence[str]],
                    trg_sides: list[Sequence[str]]) -> list[list[float]]:
        """``best_probs`` of one chunk; see the module docstring."""
        n_targets = len(self.target_id)
        lengths = [len(src) for src in src_sides]
        # Each pair's distinct known targets, as sorted keys
        # pair * n_targets + target id.
        found: list[int] = []
        widths: list[int] = []
        for trg in trg_sides:
            ids = set(map(self.target_id.get, trg))
            ids.discard(None)
            found += ids
            widths.append(len(ids))
        if not found:
            return [[0.0] * length for length in lengths]
        width = np.array(widths, dtype=np.int64)
        pair_targets = np.sort(np.repeat(np.arange(len(widths)) * n_targets, width)
                               + np.array(found, dtype=np.int64))
        row = np.fromiter(map(self.source_id.get, chain.from_iterable(src_sides), repeat(-1)),
                          dtype=np.int64, count=sum(lengths))
        pair = np.repeat(np.arange(len(lengths)), lengths)
        best = np.zeros(len(row))
        known = np.flatnonzero(row >= 0)
        # A position whose row's top target is present takes the row's
        # maximum ...
        top = pair[known] * n_targets + self.row_top[row[known]]
        at = np.minimum(np.searchsorted(pair_targets, top), len(pair_targets) - 1)
        hit = pair_targets[at] == top
        best[known[hit]] = self.row_max[row[known[hit]]]
        # ... and any other looks up each target of its pair, keeping the
        # largest positive probability found.
        rest = known[~hit]
        n_each = width[pair[rest]]
        ends = np.cumsum(n_each)
        first = ends - n_each
        if len(rest) and ends[-1]:
            index = np.repeat((np.cumsum(width) - width)[pair[rest]] - first, n_each) \
                + np.arange(ends[-1])
            wanted = np.repeat((row[rest] - pair[rest]) * n_targets, n_each) + pair_targets[index]
            at = np.minimum(np.searchsorted(self.keys, wanted), len(self.keys) - 1)
            prob = self.probs[at]
            prob[(self.keys[at] != wanted) | ~(prob > 0.0)] = 0.0
            some = n_each > 0
            best[rest[some]] = np.maximum.reduceat(prob, first[some])
        flat = best.tolist()
        return [flat[end - length:end] for end, length in zip(accumulate(lengths), lengths)]

    def to_arrays(self) -> Section:
        """Direction and the table's arrays (see the module docstring);
        the EM history is not kept."""
        n_targets = max(len(self.target_id), 1)
        row, target_ids = np.divmod(self.keys, n_targets)
        source_codes, source_lengths = _encode(list(self.source_id))
        target_codes, target_lengths = _encode(list(self.target_id))
        return {"direction": self.direction}, {
            "sources": source_codes,
            "source_lengths": source_lengths,
            "row_lengths": np.bincount(row, minlength=len(self.source_id)).astype("<i8"),
            "targets": target_codes,
            "target_lengths": target_lengths,
            "target_ids": target_ids.astype("<i8"),
            "probs": np.asarray(self.probs, dtype="<f8"),
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
        _check_sorted(sources, "row name")
        _check_sorted(targets, "target name")
        keys = np.repeat(np.arange(len(sources)), row_lengths) * len(targets) + target_ids
        step = np.diff(keys)
        if not (step > 0).all():
            raise ValueError("a key is repeated within a row" if (step == 0).any()
                             else "a row's targets are not sorted")
        return cls(
            source_id=dict(zip(sources, range(len(sources)))),
            target_id=dict(zip(targets, range(len(targets)))),
            keys=keys,
            probs=probs,
            direction=scalars.get("direction", ""),
        )


def _check_sorted(names: list[str], what: str) -> None:
    """A ``ValueError`` unless ``names`` strictly ascend."""
    for before, after in zip(names, names[1:]):
        if before >= after:
            raise ValueError(f"a {what} is repeated" if before == after
                             else f"the {what}s are not sorted")


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

    # Intern tokens, in first-seen order.
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
    # probability, handed over as sorted keys (see the module docstring).
    kept = np.flatnonzero(before > 0.0)
    source_id, source_rank = _sorted_ids(list(src_vocab), cell_src[kept])
    target_id, target_rank = _sorted_ids(list(trg_vocab), cell_trg[kept])
    keys = source_rank[cell_src[kept]] * len(target_id) + target_rank[cell_trg[kept]]
    order = np.argsort(keys)
    return TranslationTable(
        source_id=source_id,
        target_id=target_id,
        keys=keys[order],
        probs=prob[kept][order],
        direction=direction,
        log_likelihoods=history,
    )


def _sorted_ids(vocab: list[str], used: np.ndarray) -> tuple[dict[str, int], np.ndarray]:
    """The tokens of ``vocab`` that ``used`` indexes, sorted, each mapped
    to its rank, and an array from each ``vocab`` index to that rank."""
    ids = np.unique(used).tolist()
    ids.sort(key=vocab.__getitem__)
    rank = np.zeros(len(vocab), dtype=np.int64)
    rank[ids] = np.arange(len(ids))
    return {vocab[i]: r for r, i in enumerate(ids)}, rank
