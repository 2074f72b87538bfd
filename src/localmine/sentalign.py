"""Sentence alignment: dynamic programming over bead types with a
length-model cost blended with dictionary similarity.

A bead maps 0-2 source sentences to 0-2 target sentences; a ladder is
an ordered bead sequence tiling both documents exactly.  The cost of a
bead is a normal-deviate length term plus a bead-type prior, reduced by
lexical evidence across the bead's spans.  The DP returns the
minimum-total-cost tiling.  The DP is the length-based bead search of
Gale & Church (1993) with a dictionary term added to each bead.  Its
parameters are this module's constants, which no config key changes:
the mean target/source character ratio ``DEFAULT_C`` and the variance
per source character ``DEFAULT_S2`` of the length term, the bead
priors ``DEFAULT_PRIORS``, the dictionary weight ``DEFAULT_DICT_WEIGHT``
and the cost ceiling ``DEFAULT_MAX_BEAD_COST`` of ``extract_pairs``.

The DP runs in a band of ``BAND_HALF_WIDTH`` target sentences on each
side of the diagonal, so a call costs time linear in the document
length; Moore (2002) and Vecalign (Thompson & Koehn 2019) also search
a narrow region around the likely path.  The band doubles and the DP
reruns while the band admits no tiling or a ladder vertex comes closer
than half the half-width to a band edge that is not a grid edge; at
``len(trg)`` the band is the full grid.  When the unbanded optimum lies
inside the band, the banded DP returns it bit for bit: every cell on
its path keeps its unbanded cost, and ``KIND_PREFERENCE`` breaks ties
as before.  The margin is needed because a band too narrow for a drift
can hold a ladder that shifts part of the document instead of following
the drift, and that ladder may come near the edge without touching it.
A path that drifts pays for each rerun, up to about twice the cells of
the band it ends in.

The DP costs the beads of a block of band rows at once, in numpy
(``_bead_costs``): for each cell and each of the six kinds, the
predecessor cell and the bead's cost, with the same float operations
in the same order as a per-bead loop.  The min-recurrence then runs in
plain Python over those flat values, row by row, and keeps the first
kind in ``KIND_PREFERENCE`` order at a tie; only one block's values are
Python objects at a time.  The dictionary term's greedy match count
comes from tables built once per call: each source token's translation
tuple cut to the target document's vocabulary (``_match_tables``).
Where every source row of a bead has one candidate left, greedy
matching takes each candidate c min(rows naming c, count of c in the
target span) times, so one sparse join of the two documents' per-span
counts gives the m of every such bead (``_DictTerms``).  A bead whose
source span holds a row with two or more candidates carries a lower
bound, from its live token counts, and the recurrence walks its greedy
match with ``lexicon.table_match_count`` only when that bound beats the
best bead found for the cell.  The bound is exact, so the ladder is the
one the unpruned DP finds.

The length term depends on the two span lengths alone, and the same
short lengths recur in every call of a run.  So the costs of spans
shorter than ``SHORT_SPAN`` characters on both sides are kept in one
process-wide float64 ``array`` (``_short_costs``, 32 kB, NaN for a cost
not yet computed), made on the first alignment; longer spans are costed
once per call.  The DP looks ``length_cost`` up at call time, and the
table is made afresh whenever that name no longer holds the function
that filled it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lexicon import Lexicon, table_match_count, token_counts
from .text import LanguageTag, Sentence

COST_CAP = 25.0
DEFAULT_C = 1.0
DEFAULT_S2 = 6.8
DEFAULT_DICT_WEIGHT = 3.0
DEFAULT_MAX_BEAD_COST = 10.0
# Starting half-width of the DP band, in target sentences.  Aligned
# documents rarely stray more than a few sentences from the diagonal.
BAND_HALF_WIDTH = 10
# Spans shorter than this many characters on both sides have their
# length costs kept across calls.
SHORT_SPAN = 64


class BeadKind(Enum):
    SUB = (0, 1)
    DEL = (1, 0)
    ONE = (1, 1)
    EXPAND = (1, 2)
    CONTRACT = (2, 1)
    MERGE = (2, 2)

    @property
    def n_src(self) -> int:
        return self.value[0]

    @property
    def n_trg(self) -> int:
        return self.value[1]

    @property
    def code(self) -> str:
        return f"{self.value[0]}-{self.value[1]}"


# Classic bead-type prior mass of Gale & Church (1993).
DEFAULT_PRIORS = {
    BeadKind.ONE: 0.89,
    BeadKind.DEL: 0.0099,
    BeadKind.SUB: 0.0099,
    BeadKind.EXPAND: 0.0445,
    BeadKind.CONTRACT: 0.0445,
    BeadKind.MERGE: 0.011,
}
# Negative log of each kind's share of the mass.  The total is a left
# fold, as in ``docalign``: Python 3.12's ``sum`` compensates float
# rounding, which would change the costs' low bits and so the ladder at
# ties.
_PRIOR_TOTAL = functools.reduce(operator.add, DEFAULT_PRIORS.values())
PRIOR_COSTS = {kind: -math.log(p / _PRIOR_TOTAL) for kind, p in DEFAULT_PRIORS.items()}

# Tie-break preference at equal cost.
KIND_PREFERENCE = (
    BeadKind.ONE,
    BeadKind.CONTRACT,
    BeadKind.EXPAND,
    BeadKind.MERGE,
    BeadKind.DEL,
    BeadKind.SUB,
)


# The kinds as the rows of the DP's arrays, in ``KIND_PREFERENCE`` order:
# the first ``_TWO_SIDED`` have both sides and so a dictionary term.
_KIND_DI = np.array([[kind.n_src] for kind in KIND_PREFERENCE])
_KIND_DJ = np.array([[kind.n_trg] for kind in KIND_PREFERENCE])
_KIND_PRIORS = np.array([[PRIOR_COSTS[kind]] for kind in KIND_PREFERENCE])
_TWO_SIDED = 4
# Band cells whose bead costs the recurrence holds as Python values at
# once.
_BLOCK_CELLS = 512


@dataclass
class Bead:
    kind: BeadKind
    src_span: tuple[int, int]  # (start, len)
    trg_span: tuple[int, int]
    cost: float


@dataclass
class AlignmentLadder:
    beads: list[Bead] = field(default_factory=list)
    total_cost: float = 0.0


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def length_cost(l_src: int, l_trg: int) -> float:
    """Two-sided tail cost of the normal length deviation from
    ``DEFAULT_C * l_src`` with variance ``DEFAULT_S2`` per source
    character, floored at 0 and capped so the DP never saturates on
    outliers.  The length term of every bead the DP in
    ``align_sentences`` costs."""
    delta = (l_trg - DEFAULT_C * l_src) / math.sqrt(max(l_src, 1) * DEFAULT_S2)
    tail = 2.0 * (1.0 - _normal_cdf(abs(delta)))
    if tail <= 0.0:
        return COST_CAP
    return min(COST_CAP, max(0.0, -math.log(tail)))


# ``_short_costs_of(l_src, l_trg)`` at index ``l_src * SHORT_SPAN +
# l_trg``, made on the first call that needs it.
_short_costs = None
_short_costs_of = None


def _short_cost_table():
    """The process-wide float64 table of short span costs, made afresh
    whenever ``length_cost`` is not the function that filled it."""
    global _short_costs, _short_costs_of
    if _short_costs_of is not length_cost:
        from array import array  # here, so that importing the package maps no array module

        _short_costs = array("d", [math.nan]) * (SHORT_SPAN * SHORT_SPAN)
        _short_costs_of = length_cost
    return _short_costs


def _band_rows(n_src: int, n_trg: int, half_width: int) -> list[tuple[int, int]]:
    """Inclusive (j_lo, j_hi) range per source index i: the target
    indices within ``half_width`` of the diagonal, and the full grid
    once ``half_width`` reaches ``n_trg``."""
    if n_src == 0 or half_width >= n_trg:
        return [(0, n_trg)] * (n_src + 1)
    rows = []
    for i in range(n_src + 1):
        center = i * n_trg / n_src
        rows.append(
            (max(0, math.ceil(center - half_width)), min(n_trg, math.floor(center + half_width)))
        )
    return rows


def _near_band_edge(
    ladder: AlignmentLadder, rows: list[tuple[int, int]], n_trg: int, margin: float
) -> bool:
    """Whether a ladder vertex lies closer than ``margin`` target
    sentences to a band edge that is not a grid edge.  The bead starts
    are every vertex but the last, the grid's far corner."""
    for bead in ladder.beads:
        i, j = bead.src_span[0], bead.trg_span[0]
        j_lo, j_hi = rows[i]
        if (j_lo > 0 and j - j_lo < margin) or (j_hi < n_trg and j_hi - j < margin):
            return True
    return False


def _span_sums(values) -> np.ndarray:
    """Per-sentence integers extended to spans: ``[d - 1, start]`` is
    the sum over the ``d`` sentences from ``start``, for d of 1 or 2,
    and a span that runs past the last sentence has the sentences it
    holds.  There are ``len(values) + 1`` starts, the last one empty."""
    sums = np.zeros((2, len(values) + 1), dtype=np.int64)
    sums[0, :-1] = values
    sums[1] = sums[0]
    sums[1, :-1] += sums[0, 1:]
    return sums


def _span_runs(keys: np.ndarray, at: np.ndarray, n: int, step: int):
    """For spans of one and of two of the ``n`` sentences, the distinct
    span keys, sorted, and how often each occurs.  ``keys`` holds one
    key per item, ``step`` times the index ``at`` of the item's sentence
    plus a part of its own; a span's key is that of its first sentence."""
    runs = []
    for span_keys in (keys, np.concatenate((keys[at > 0] - step, keys[at < n - 1]))):
        span_keys = np.sort(span_keys)
        new = np.ones(len(span_keys) + 1, dtype=bool)
        new[1:-1] = span_keys[1:] != span_keys[:-1]
        edges = np.flatnonzero(new)  # each run's first index, then the length
        runs.append((span_keys[edges[:-1]], edges[1:] - edges[:-1]))
    return runs


def _token_values(sentences: list[Sentence], table: dict[str, int]):
    """Each token's value in ``table`` (-1 for a token not in it), the
    index of its sentence, and each sentence's token count."""
    lengths = [len(s.tokens) for s in sentences]
    tokens = itertools.chain.from_iterable(s.tokens for s in sentences)
    values = np.fromiter(map(table.get, tokens, itertools.repeat(-1)), np.int64, sum(lengths))
    return values, np.repeat(np.arange(len(sentences)), lengths), lengths


def _cut_translations(
    src: list[Sentence], trg: list[Sentence], translations: dict[str, tuple[str, ...]]
) -> dict[str, tuple[str, ...]]:
    """Each distinct source token's translations that occur in the
    target document, in their sorted order."""
    vocab = {tok for t in trg for tok in t.tokens}
    return {
        tok: tuple(filter(vocab.__contains__, translations.get(tok, ())))
        for tok in dict.fromkeys(itertools.chain.from_iterable(s.tokens for s in src))
    }


def _match_tables(
    src: list[Sentence],
    trg: list[Sentence],
    translations: dict[str, tuple[str, ...]],
) -> tuple[list[list[tuple[str, ...]]], list[dict[str, int]]]:
    """The dictionary tables of one alignment call.

    Per source sentence: its tokens' translation tuples, cut to the
    target document's vocabulary in their sorted order, and with the
    tokens left untranslated dropped.  Per target sentence: a count of
    only the tokens those tuples can name.  Greedy matching over these
    equals ``greedy_match_count`` on any span of the two documents: a
    dropped candidate has a count of 0 in every target span, and a
    dropped token never matches.
    """
    cut = _cut_translations(src, trg, translations)
    named = {c for cands in cut.values() for c in cands}
    return (
        [[cut[tok] for tok in s.tokens if cut[tok]] for s in src],
        [token_counts([tok for tok in t.tokens if tok in named]) for t in trg],
    )


def _merged(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    counts = dict(a)
    for tok, k in b.items():
        counts[tok] = counts.get(tok, 0) + k
    return counts


class _DictTerms:
    """The dictionary term of one alignment call.

    A source token's row is its cut translations (``_match_tables``).  A
    row is ambiguous when two or more candidates are left in it, and so
    is every span that holds it.  When each row of a source span has one
    candidate, greedy matching takes candidate c min(rows naming c,
    count of c in the target span) times, whatever the rows' order, so
    the m of every such bead comes from one join of the two documents'
    per-span counts (``match_counts``).  A bead over an ambiguous span
    keeps the greedy walk over the match tables (``exact_cost``).
    """

    def __init__(self, src: list[Sentence], trg: list[Sentence],
                 translations: dict[str, tuple[str, ...]]) -> None:
        cut = _cut_translations(src, trg, translations)
        ids = {c: k for k, c in enumerate(dict.fromkeys(itertools.chain.from_iterable(cut.values())))}
        # A source token's one candidate's id; -2 for a token with more.
        single = {tok: ids[cands[0]] if len(cands) == 1 else -2 for tok, cands in cut.items() if cands}
        src_ids, src_at, src_lengths = _token_values(src, single)
        trg_ids, trg_at, trg_lengths = _token_values(trg, ids)
        n_src, n_trg = len(src), len(trg)
        self.src_n = _span_sums(src_lengths)
        self.trg_n = _span_sums(trg_lengths)
        self.src_live = _span_sums(np.bincount(src_at[src_ids != -1], minlength=n_src))
        self.trg_live = _span_sums(np.bincount(trg_at[trg_ids >= 0], minlength=n_trg))
        ambiguous = np.bincount(src_at[src_ids == -2], minlength=n_src)
        self.src_ambiguous = _span_sums(ambiguous) > 0
        if ambiguous.any():
            self.src_rows, self.trg_counts = _match_tables(src, trg, translations)

        # Per span length, the source spans' distinct (start, candidate
        # id) in start order, with the rows naming the candidate, and the
        # index of each start's first entry.
        n_ids = len(ids)
        named = src_ids >= 0
        self.src_spans = [
            (*np.divmod(keys, n_ids), rows_of,
             np.searchsorted(keys, np.arange(n_src + 1) * n_ids).tolist())
            for keys, rows_of in _span_runs(src_at[named] * n_ids + src_ids[named], src_at[named],
                                            n_src, n_ids)
        ]
        # The target spans' (candidate id, start) keys ``id * width +
        # start``, those of two-sentence spans offset by ``span2_base``,
        # sorted, with the candidate's count in the span.
        self.width = n_trg + 1
        self.span2_base = n_ids * self.width
        named = trg_ids >= 0
        (keys_1, found_1), (keys_2, found_2) = _span_runs(
            trg_ids[named] * self.width + trg_at[named], trg_at[named], n_trg, 1)
        self.trg_keys = np.concatenate((keys_1, keys_2 + self.span2_base))
        self.trg_starts = self.trg_keys % self.width
        self.trg_found = np.concatenate((found_1, found_2))

    def match_counts(self, r0: int, r1: int, lo: np.ndarray, hi: np.ndarray,
                     off: np.ndarray) -> np.ndarray:
        """The m of each two-sided bead ending in band rows ``r0`` to
        ``r1 - 1`` whose source span is unambiguous, 0 for the others: a
        (4, cells) array over those rows' cells, kinds in
        ``KIND_PREFERENCE`` order."""
        c0 = off[r0]
        n = off[r1] - c0
        sides = []
        for d, (*entries, firsts) in zip((1, 2), self.src_spans):
            at = slice(firsts[max(r0 - d, 0)], firsts[max(r1 - d, 0)])
            sides.append([column[at] for column in entries])
        # ONE, CONTRACT, EXPAND and MERGE have source spans of 1, 2, 1
        # and 2 sentences.
        start, cand, rows_of = (np.concatenate([side[f] for side in sides] * 2) for f in range(3))
        kind = np.repeat(np.arange(_TWO_SIDED), [len(side[0]) for side in sides] * 2)
        di, dj = _KIND_DI[kind, 0], _KIND_DJ[kind, 0]
        row = start + di
        # The target span starts whose bead leaves a band cell and ends in one.
        posting = (dj - 1) * self.span2_base + cand * self.width
        begin = np.searchsorted(self.trg_keys, posting + np.maximum(lo[start], lo[row] - dj))
        end = np.searchsorted(self.trg_keys, posting + np.minimum(hi[start], hi[row] - dj), "right")
        found = np.maximum(end - begin, 0)
        total = int(found.sum())
        if not total:
            return np.zeros((_TWO_SIDED, n), dtype=np.int64)
        at = np.arange(total) + np.repeat(begin - np.cumsum(found) + found, found)
        cell = np.repeat(kind * n + off[row] - lo[row] - c0 + dj, found) + self.trg_starts[at]
        taken = np.minimum(np.repeat(rows_of, found), self.trg_found[at])
        return np.bincount(np.repeat(cell, taken), minlength=_TWO_SIDED * n).reshape(_TWO_SIDED, n)

    def exact_cost(self, lam: float, base: float, n: int, pi: int, di: int, pj: int,
                   dj: int) -> float:
        """The cost of a bead over an ambiguous source span, from its
        length and prior cost ``base`` and its token count ``n``: the
        greedy walk over its spans' tables."""
        rows = self.src_rows[pi] if di == 1 else self.src_rows[pi] + self.src_rows[pi + 1]
        counts = self.trg_counts
        remaining = dict(counts[pj]) if dj == 1 else _merged(counts[pj], counts[pj + 1])
        base -= lam * (2.0 * table_match_count(rows, remaining) / n)
        return 0.0 if base < 0.0 else base


def align_sentences(
    src: list[Sentence],
    trg: list[Sentence],
    lex: Lexicon | None,
    lam: float = DEFAULT_DICT_WEIGHT,
) -> AlignmentLadder:
    """Minimum-cost bead tiling of a Japanese sentence list (``src``)
    and a Chinese one (``trg``), matched through the lexicon's JA
    headwords.

    Ties break deterministically preferring ONE, then CONTRACT, EXPAND,
    MERGE, DEL, SUB.  The DP first runs in a band of ``BAND_HALF_WIDTH``
    target sentences on each side of the diagonal.  It reruns with the
    half-width doubled while the band admits no tiling or a ladder
    vertex comes closer than half the half-width to a band edge that is
    not a grid edge, and runs the full grid once the half-width reaches
    ``len(trg)``.  When the unbanded optimum lies
    inside the starting band, the result is that optimum bit for bit; a
    path that drifts costs up to about twice the cells of the band it
    ends in.  A bead costs its ``length_cost`` plus its kind's
    ``PRIOR_COSTS`` entry, less ``lam * 2m / n`` for the m greedy
    dictionary matches among its n tokens (none for SUB and DEL beads),
    floored at 0.  Each pass (``_align``) costs every bead of its band
    in numpy and computes m by one join of per-span token counts; only
    a bead over a source token with two or more candidate translations
    left in the target document takes the greedy walk, and only when a
    bound says it could beat the cell's best bead.
    """
    n_src, n_trg = len(src), len(trg)
    half_width = BAND_HALF_WIDTH
    while True:
        rows = _band_rows(n_src, n_trg, half_width)
        ladder = _align(src, trg, lex, lam, rows)
        if half_width >= n_trg:
            assert ladder is not None  # the full grid always admits a tiling
            return ladder
        if ladder is not None and not _near_band_edge(ladder, rows, n_trg, half_width / 2):
            return ladder
        half_width *= 2


def _bead_costs(
    r0: int,
    r1: int,
    band: tuple[np.ndarray, np.ndarray, np.ndarray],
    chars: tuple[np.ndarray, np.ndarray],
    lam: float,
    terms: _DictTerms | None,
    length_costs: dict[int, float],
) -> tuple[np.ndarray, np.ndarray, dict[int, tuple]]:
    """The bead of each kind into each cell of band rows ``r0`` to
    ``r1 - 1``: its predecessor cell and its cost, as (6, cells) arrays
    with kinds in ``KIND_PREFERENCE`` order, and the beads whose cost the
    recurrence finishes.

    ``band`` is the (j_lo, j_hi) of every row and the index of each
    row's first cell, with the cell count last; that count stands for a
    predecessor outside the band.  A bead over an ambiguous source span
    carries the lower bound of its cost, from the smaller of its live
    source and target token counts, and is listed as ``cell * 6 + kind``
    → the arguments of ``_DictTerms.exact_cost`` after ``lam``."""
    lo, hi, off = band
    src_chars, trg_chars = chars
    widths = off[r0 + 1 : r1 + 1] - off[r0:r1]
    j = np.arange(off[r0], off[r1]) - np.repeat(off[r0:r1] - lo[r0:r1], widths)
    i = np.arange(r0, r1)
    # What depends on a bead's row alone, per kind: the target indices
    # its predecessor allows, its predecessor cell less j, l_src and,
    # for the two-sided kinds, the source span's counts.
    pi = i - _KIND_DI
    pi_in = np.maximum(pi, 0)
    p_lo = lo[pi_in]
    by_row = [
        p_lo + _KIND_DJ,
        np.where(pi >= 0, hi[pi_in] + _KIND_DJ, -1),
        off[pi_in] - p_lo - _KIND_DJ,
        src_chars[i] - src_chars[pi_in],
    ]
    if terms is not None:
        src_at = (_KIND_DI[:_TWO_SIDED] - 1, pi_in[:_TWO_SIDED])
        by_row += [terms.src_n[src_at], terms.src_live[src_at], terms.src_ambiguous[src_at]]
    by_row = np.repeat(np.concatenate(by_row), widths, axis=1)
    j_min, j_max, pred_at, l_src = (by_row[k : k + 6] for k in range(0, 24, 6))
    valid = (j >= j_min) & (j <= j_max)
    preds = np.where(valid, pred_at + j, off[-1])

    pj_in = np.maximum(j - _KIND_DJ, 0)
    l_trg = trg_chars[j] - trg_chars[pj_in]
    lc = np.zeros(valid.shape)
    short = valid & (l_src < SHORT_SPAN) & (l_trg < SHORT_SPAN)
    at = l_src[short] * SHORT_SPAN + l_trg[short]
    short_costs = _short_cost_table()
    found = np.frombuffer(short_costs)[at]
    missing = np.isnan(found)
    if missing.any():
        for k in set(at[missing].tolist()):
            short_costs[k] = length_cost(*divmod(k, SHORT_SPAN))
        found = np.frombuffer(short_costs)[at]
    lc[short] = found
    longer = valid & ~short
    if longer.any():
        # Each distinct pair is looked up once: as ``l_src * step +
        # l_trg``, sorted.
        step = int(trg_chars[-1]) + 1
        keys = l_src[longer] * step + l_trg[longer]
        pairs = np.sort(keys)
        pairs = pairs[np.flatnonzero(np.diff(pairs, prepend=-1))]
        found = []
        for key in pairs.tolist():
            cost = length_costs.get(key)
            if cost is None:
                cost = length_costs[key] = length_cost(*divmod(key, step))
            found.append(cost)
        lc[longer] = np.array(found)[np.searchsorted(pairs, keys)]
    costs = lc + _KIND_PRIORS

    lazy: dict[int, tuple] = {}
    if terms is not None:
        # The greedy m of a bead is at most ``live``, the smaller of its
        # live source and target token counts, and each step from m to
        # the cost is monotone under IEEE rounding, so ``live`` in place
        # of m gives a lower bound.
        src_n, src_live, ambiguous = (by_row[k : k + 4] for k in range(24, 36, 4))
        trg_at = (_KIND_DJ[:_TWO_SIDED] - 1, pj_in[:_TWO_SIDED])
        n = src_n + terms.trg_n[trg_at]
        live = np.minimum(src_live, terms.trg_live[trg_at])  # 0 whenever n is 0
        ambiguous = ambiguous > 0
        m = np.where(ambiguous, live, terms.match_counts(r0, r1, lo, hi, off))
        scored = valid[:_TWO_SIDED] & (live > 0)
        two_sided = costs[:_TWO_SIDED]
        kinds, cells = np.nonzero(scored & ambiguous)
        if len(kinds):
            di, dj = _KIND_DI[kinds, 0], _KIND_DJ[kinds, 0]
            cell_j = j[cells]
            lazy = dict(zip(
                ((off[r0] + cells) * 6 + kinds).tolist(),
                zip(two_sided[kinds, cells].tolist(), n[kinds, cells].tolist(),
                    (np.repeat(i, widths)[cells] - di).tolist(), di.tolist(),
                    (cell_j - dj).tolist(), dj.tolist()),
            ))
        less = two_sided[scored] - lam * (2.0 * m[scored] / n[scored])
        two_sided[scored] = np.where(less < 0.0, 0.0, less)
    return preds, costs, lazy


def _align(
    src: list[Sentence],
    trg: list[Sentence],
    lex: Lexicon | None,
    lam: float,
    rows: list[tuple[int, int]],
) -> AlignmentLadder | None:
    """The DP over the inclusive (j_lo, j_hi) target range ``rows[i]``
    of each source index i; None when those cells admit no tiling.

    The band's cells are numbered row by row.  For a block of rows at a
    time, ``_bead_costs`` gives every kind's bead into every cell, and
    the recurrence keeps, per cell, the first kind in
    ``KIND_PREFERENCE`` order whose predecessor's cost plus bead cost
    is least.  SUB, the one kind whose predecessor is in the same row,
    comes last, so each predecessor's cost is final when it is read.
    Cell costs are a float64 ``array`` and backpointers a ``bytearray``
    over the whole band; only one block's bead costs are Python values
    at once.
    """
    from array import array  # here, as in ``_short_cost_table``

    n_src, n_trg = len(src), len(trg)
    if n_src == 0 and n_trg == 0:
        return AlignmentLadder([], 0.0)

    lo = np.array([j_lo for j_lo, _ in rows], dtype=np.int64)
    hi = np.array([j_hi for _, j_hi in rows], dtype=np.int64)
    off = np.concatenate(([0], np.cumsum(np.maximum(hi - lo + 1, 0))))
    chars = (np.cumsum([0] + [s.char_len for s in src]), np.cumsum([0] + [t.char_len for t in trg]))
    terms = None
    if lam > 0 and lex is not None and lex.index_ja:
        terms = _DictTerms(src, trg, lex.headwords(LanguageTag.JA))
    # A short (l_src, l_trg) is costed once per process, any other once
    # per call (see ``_bead_costs``).
    length_costs: dict[int, float] = {}

    inf = math.inf
    firsts = off.tolist()
    n_cells = firsts[-1]
    cost = array("d", [inf]) * (n_cells + 1)  # the last: a predecessor outside the band
    back = bytearray(n_cells)
    r0 = 0
    while r0 <= n_src:
        r1 = max(r0 + 1, bisect.bisect_right(firsts, firsts[r0] + _BLOCK_CELLS) - 1)
        preds, costs, lazy = _bead_costs(r0, r1, (lo, hi, off), chars, lam, terms, length_costs)
        c0 = firsts[r0]
        start = 0
        if c0 == 0 and rows[0][0] == 0:  # the origin
            cost[0] = 0.0
            start = 1
        cells = range(c0 + start, firsts[r1])
        p = preds[:, start:].tolist()
        b = costs[:, start:].tolist()
        if lazy:
            for c, at, bead in zip(cells, zip(*p), zip(*b)):
                best = inf
                kind = 0
                for k in range(6):
                    prev = cost[at[k]]
                    total = prev + bead[k]
                    if total < best:
                        exact = lazy.get(c * 6 + k)
                        if exact is not None:
                            total = prev + terms.exact_cost(lam, *exact)
                            if not total < best:
                                continue
                        best = total
                        kind = k
                cost[c] = best
                back[c] = kind
        else:
            for c, p0, p1, p2, p3, p4, p5, b0, b1, b2, b3, b4, b5 in zip(cells, *p, *b):
                best = cost[p0] + b0
                kind = 0
                total = cost[p1] + b1
                if total < best:
                    best = total
                    kind = 1
                total = cost[p2] + b2
                if total < best:
                    best = total
                    kind = 2
                total = cost[p3] + b3
                if total < best:
                    best = total
                    kind = 3
                total = cost[p4] + b4
                if total < best:
                    best = total
                    kind = 4
                total = cost[p5] + b5
                if total < best:
                    best = total
                    kind = 5
                cost[c] = best
                back[c] = kind
        r0 = r1

    j_lo_last, j_hi_last = rows[n_src]
    if not j_lo_last <= n_trg <= j_hi_last:
        return None
    at = firsts[n_src] + n_trg - j_lo_last
    final = cost[at]
    if final == inf:
        return None

    # Backtrack; bead costs are recomputed as cell-cost differences.
    beads: list[Bead] = []
    i, j = n_src, n_trg
    while i > 0 or j > 0:
        kind = KIND_PREFERENCE[back[at]]
        pi, pj = i - kind.n_src, j - kind.n_trg
        p_at = firsts[pi] + pj - rows[pi][0]
        beads.append(Bead(kind, (pi, kind.n_src), (pj, kind.n_trg), cost[at] - cost[p_at]))
        i, j, at = pi, pj, p_at
    beads.reverse()
    return AlignmentLadder(beads, final)


def extract_pairs(
    ladder: AlignmentLadder,
    src: list[Sentence],
    trg: list[Sentence],
    max_cost: float = DEFAULT_MAX_BEAD_COST,
) -> list[tuple[str, str, float, list[str] | None, list[str] | None]]:
    """(source text, target text, bead cost, source tokens, target
    tokens) per qualifying bead.

    ONE beads emit the pair directly; EXPAND/CONTRACT/MERGE emit the
    span concatenation (no separator); SUB/DEL emit nothing; beads
    costlier than ``max_cost`` are dropped.  A side of one sentence
    carries that sentence's ``tokens``; a side of two carries None,
    since greedy segmentation of the joined text can match across the
    join.
    """
    pairs = []
    for bead in ladder.beads:
        if bead.kind in (BeadKind.SUB, BeadKind.DEL):
            continue
        if bead.cost > max_cost:
            continue
        s0, sn = bead.src_span
        t0, tn = bead.trg_span
        src_text = "".join(s.text for s in src[s0 : s0 + sn])
        trg_text = "".join(t.text for t in trg[t0 : t0 + tn])
        src_tokens = src[s0].tokens if sn == 1 else None
        trg_tokens = trg[t0].tokens if tn == 1 else None
        pairs.append((src_text, trg_text, bead.cost, src_tokens, trg_tokens))
    return pairs


def format_ladder_tsv(ladder: AlignmentLadder) -> str:
    """Debug dump: ``src_start src_len trg_start trg_len kind cost`` rows."""
    lines = []
    for bead in ladder.beads:
        lines.append(
            f"{bead.src_span[0]}\t{bead.src_span[1]}\t"
            f"{bead.trg_span[0]}\t{bead.trg_span[1]}\t{bead.kind.code}\t{bead.cost:.4f}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
