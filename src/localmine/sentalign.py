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

The dictionary term's greedy match count comes from tables built once
per call (``_match_tables``): each source sentence's translation tuples
cut to the target document's vocabulary, and each target sentence's
count of the tokens those tuples can name.  A bead's count is then
``lexicon.table_match_count`` over its spans' tables, a dict copy and a
walk over its live source tokens, and equals ``greedy_match_count`` on
the bead's full token lists.  Before any greedy work, a bound from the
live token counts prunes beads that cannot beat the best one found for
the cell; the bound is exact, so the ladder is the one the unpruned DP
finds.

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

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

from .lexicon import Lexicon, table_match_count
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


def _by_span(values: list, join=operator.add) -> tuple[None, list, list]:
    """Per-sentence values extended to spans: ``spans[span_len][start]``
    for spans of one or two sentences, a pair joined by ``join``."""
    return None, values, [join(a, b) for a, b in zip(values, values[1:])]


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
    vocab = {tok for t in trg for tok in t.tokens}
    cut: dict[str, tuple[str, ...]] = {}
    src_rows: list[list[tuple[str, ...]]] = []
    for s in src:
        row = []
        for tok in s.tokens:
            cands = cut.get(tok)
            if cands is None:
                cands = cut[tok] = tuple(c for c in translations.get(tok, ()) if c in vocab)
            if cands:
                row.append(cands)
        src_rows.append(row)
    named = {c for cands in cut.values() for c in cands}
    trg_counts: list[dict[str, int]] = []
    for t in trg:
        counts: dict[str, int] = {}
        for tok in t.tokens:
            if tok in named:
                counts[tok] = counts.get(tok, 0) + 1
        trg_counts.append(counts)
    return src_rows, trg_counts


def _merged(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    counts = dict(a)
    for tok, k in b.items():
        counts[tok] = counts.get(tok, 0) + k
    return counts


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
    floored at 0.
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


def _align(
    src: list[Sentence],
    trg: list[Sentence],
    lex: Lexicon | None,
    lam: float,
    rows: list[tuple[int, int]],
) -> AlignmentLadder | None:
    """The DP over the inclusive (j_lo, j_hi) target range ``rows[i]``
    of each source index i; None when those cells admit no tiling."""
    n_src, n_trg = len(src), len(trg)
    if n_src == 0 and n_trg == 0:
        return AlignmentLadder([], 0.0)

    inf = math.inf

    # Prefix sums for O(1) span lengths; token counts per span of 1 or 2.
    src_chars = [0] * (n_src + 1)
    for i, s in enumerate(src):
        src_chars[i + 1] = src_chars[i] + s.char_len
    trg_chars = [0] * (n_trg + 1)
    for j, t in enumerate(trg):
        trg_chars[j + 1] = trg_chars[j] + t.char_len
    src_ntok = _by_span([len(s.tokens) for s in src])
    trg_ntok = _by_span([len(t.tokens) for t in trg])

    # Dictionary tables, built once per call (see ``_match_tables``), and
    # the live token counts that bound each span's greedy m.
    use_dict = lam > 0 and lex is not None and bool(lex.index_ja)
    if use_dict:
        src_rows, trg_counts = _match_tables(src, trg, lex.headwords(LanguageTag.JA))
        src_spans = _by_span(src_rows)
        trg_spans = _by_span(trg_counts, _merged)
        src_live = _by_span([len(row) for row in src_rows])
        trg_live = _by_span([sum(c.values()) for c in trg_counts])

    kinds = [(kind, kind.n_src, kind.n_trg, PRIOR_COSTS[kind]) for kind in KIND_PREFERENCE]
    # A short (l_src, l_trg) is costed once per process, any other once
    # per call.
    short_costs = _short_cost_table()
    short = SHORT_SPAN
    length_costs: dict[tuple[int, int], float] = {}

    cost_rows: list[list[float]] = []
    back_rows: list[list[BeadKind | None]] = []
    for i in range(n_src + 1):
        j_lo, j_hi = rows[i]
        width = j_hi - j_lo + 1
        cost_row = [inf] * width
        back_row: list[BeadKind | None] = [None] * width
        for j in range(j_lo, j_hi + 1):
            if i == 0 and j == 0:
                cost_row[0] = 0.0
                continue
            best = inf
            best_kind: BeadKind | None = None
            for kind, di, dj, prior_cost in kinds:
                pi, pj = i - di, j - dj
                if pi < 0 or pj < 0:
                    continue
                p_lo, p_hi = rows[pi]
                if pj < p_lo or pj > p_hi:
                    continue
                prev = cost_rows[pi][pj - p_lo] if pi < i else cost_row[pj - j_lo]
                if prev == inf:
                    continue
                l_src = src_chars[i] - src_chars[pi]
                l_trg = trg_chars[j] - trg_chars[pj]
                if l_src < short and l_trg < short:
                    at = l_src * short + l_trg
                    lc = short_costs[at]
                    if lc != lc:  # NaN: not costed yet
                        lc = short_costs[at] = length_cost(l_src, l_trg)
                else:
                    lc = length_costs.get((l_src, l_trg))
                    if lc is None:
                        lc = length_costs[l_src, l_trg] = length_cost(l_src, l_trg)
                base = lc + prior_cost
                # The greedy m of a bead is at most ``live``, the smaller of
                # its live source and target token counts, and each step
                # from m to the bead's cost is monotone under IEEE rounding.
                # So ``lower`` never exceeds the cost, and a bead it prunes
                # could not have beaten ``best``: cells, backpointers and
                # ties are those of the unpruned DP.
                live = 0
                lower = base
                if use_dict and di and dj:
                    n = src_ntok[di][pi] + trg_ntok[dj][pj]
                    live = min(src_live[di][pi], trg_live[dj][pj])  # 0 whenever n is 0
                if live:
                    lower = base - lam * (2.0 * live / n)
                    if lower < 0.0:
                        lower = 0.0
                if prev + lower >= best and best_kind is not None:
                    continue
                if live:
                    m = table_match_count(src_spans[di][pi], trg_spans[dj][pj].copy())
                    base -= lam * (2.0 * m / n)
                    if base < 0.0:
                        base = 0.0
                total = prev + base
                if total < best:
                    best = total
                    best_kind = kind
            cost_row[j - j_lo] = best
            back_row[j - j_lo] = best_kind
        cost_rows.append(cost_row)
        back_rows.append(back_row)

    j_lo_last, _ = rows[n_src]
    final = cost_rows[n_src][n_trg - j_lo_last] if n_trg >= j_lo_last else inf
    if final == inf:
        return None

    # Backtrack; bead costs are recomputed as cell-cost differences.
    beads: list[Bead] = []
    i, j = n_src, n_trg
    while i > 0 or j > 0:
        j_lo, _ = rows[i]
        kind = back_rows[i][j - j_lo]
        assert kind is not None
        pi, pj = i - kind.n_src, j - kind.n_trg
        p_lo, _ = rows[pi]
        step_cost = cost_rows[i][j - j_lo] - cost_rows[pi][pj - p_lo]
        beads.append(Bead(kind, (pi, kind.n_src), (pj, kind.n_trg), step_cost))
        i, j = pi, pj
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
