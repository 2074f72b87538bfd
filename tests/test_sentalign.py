import contextlib
import functools
import math
import random
import sys
import tracemalloc

import mpmath
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from localmine import sentalign
from localmine.lexicon import Lexicon, build_lexicon, greedy_match_count, table_match_count
from localmine.sentalign import (
    BAND_HALF_WIDTH,
    COST_CAP,
    DEFAULT_DICT_WEIGHT,
    KIND_PREFERENCE,
    PRIOR_COSTS,
    AlignmentLadder,
    Bead,
    BeadKind,
    _align,
    _band_rows,
    _match_tables,
    _merged,
    align_sentences,
    extract_pairs,
    format_ladder_tsv,
    length_cost,
)
from localmine.text import LanguageTag, Sentence


def sent(text, tokens=None):
    s = Sentence(text=text)
    s.tokens = tokens if tokens is not None else list(text)
    return s


def bead_cost(kind, src_sents, trg_sents, lex, lam=DEFAULT_DICT_WEIGHT):
    """Oracle for one bead's cost in the DP: length cost plus prior cost
    minus the lexical-evidence bonus, clamped to be nonnegative.  The
    source side is Japanese, so the bonus reads the lexicon's JA
    headwords.  SUB/DEL beads carry no dictionary term.  The length term
    is read from the module, so a test that rebinds
    ``sentalign.length_cost`` changes the oracle and the DP alike."""
    if len(src_sents) != kind.n_src or len(trg_sents) != kind.n_trg:
        raise ValueError(f"span sizes do not match bead kind {kind.code}")
    l_src = sum(s.char_len for s in src_sents)
    l_trg = sum(s.char_len for s in trg_sents)
    cost = sentalign.length_cost(l_src, l_trg) + PRIOR_COSTS[kind]
    if kind not in (BeadKind.SUB, BeadKind.DEL) and lam > 0 and lex is not None and len(lex):
        src_tokens = [tok for s in src_sents for tok in s.tokens]
        trg_tokens = [tok for s in trg_sents for tok in s.tokens]
        n = len(src_tokens) + len(trg_tokens)
        if n:
            m = greedy_match_count(src_tokens, trg_tokens, lex.headwords(LanguageTag.JA))
            cost -= lam * (2.0 * m / n)
    return max(0.0, cost)


def brute_force_min_cost(src, trg, lex, lam):
    """Exhaustive enumeration of every bead tiling; independent of the DP
    (recursive search, costs via the bead_cost oracle)."""
    cache = {}

    def bead(kind, i, j):
        key = (kind, i, j)
        if key not in cache:
            cache[key] = bead_cost(
                kind,
                src[i : i + kind.n_src],
                trg[j : j + kind.n_trg],
                lex,
                lam,
            )
        return cache[key]

    best = [math.inf]

    def walk(i, j, acc):
        if i == len(src) and j == len(trg):
            best[0] = min(best[0], acc)
            return
        for kind in BeadKind:
            ni, nj = i + kind.n_src, j + kind.n_trg
            if ni > len(src) or nj > len(trg):
                continue
            walk(ni, nj, acc + bead(kind, i, j))

    walk(0, 0, 0.0)
    return best[0]


def reference_band_rows(n_src: int, n_trg: int, banded: bool) -> list[tuple[int, int]]:
    """The proportional band the DP once ran in, kept verbatim: a
    half-width of ``max(20, 0.15 * n_trg)`` target sentences."""
    if not banded or n_src == 0 or n_trg == 0:
        return [(0, n_trg) for _ in range(n_src + 1)]
    width = max(20.0, 0.15 * n_trg)
    rows = []
    for i in range(n_src + 1):
        center = i * n_trg / n_src
        rows.append((max(0, math.ceil(center - width)), min(n_trg, math.floor(center + width))))
    return rows


def reference_align(
    src: list[Sentence],
    trg: list[Sentence],
    lex: Lexicon | None,
    lam: float,
    direction: LanguageTag,
    rows: list[tuple[int, int]],
) -> AlignmentLadder | None:
    """The DP before its per-call match tables, kept verbatim as the
    oracle: it calls ``greedy_match_count`` on each bead's full token
    lists and prunes with the bound ``base - lam``.  ``_align`` must
    reproduce its beads, costs and total bit for bit over the same
    band ``rows``."""
    n_src, n_trg = len(src), len(trg)
    if n_src == 0 and n_trg == 0:
        return AlignmentLadder([], 0.0)

    inf = math.inf

    # Prefix sums and per-sentence token lists for O(1) span features.
    src_chars = [0] * (n_src + 1)
    for i, s in enumerate(src):
        src_chars[i + 1] = src_chars[i] + s.char_len
    trg_chars = [0] * (n_trg + 1)
    for j, t in enumerate(trg):
        trg_chars[j + 1] = trg_chars[j] + t.char_len
    src_tokens = [s.tokens for s in src]
    trg_tokens = [t.tokens for t in trg]

    use_dict = lam > 0 and lex is not None and len(lex) > 0
    translations = lex.headwords(direction) if use_dict else {}

    kinds = [(kind, kind.n_src, kind.n_trg, PRIOR_COSTS[kind]) for kind in KIND_PREFERENCE]
    # Each (l_src, l_trg) is costed once per call.
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
                lc = length_costs.get((l_src, l_trg))
                if lc is None:
                    lc = length_costs[l_src, l_trg] = length_cost(l_src, l_trg)
                base = lc + prior_cost
                dictable = use_dict and di > 0 and dj > 0
                lower = base - lam if (dictable and base > lam) else (0.0 if dictable else base)
                if prev + lower >= best and best_kind is not None:
                    continue
                if dictable:
                    stoks = src_tokens[pi] if di == 1 else src_tokens[pi] + src_tokens[pi + 1]
                    ttoks = trg_tokens[pj] if dj == 1 else trg_tokens[pj] + trg_tokens[pj + 1]
                    n = len(stoks) + len(ttoks)
                    if n:
                        base -= lam * (2.0 * greedy_match_count(stoks, ttoks, translations) / n)
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


class TestLengthCost:
    def test_symmetric_case_is_zero(self):
        assert length_cost(100, 100) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_deviation(self):
        assert length_cost(100, 180) > length_cost(100, 100)
        costs = [length_cost(100, 100 + d) for d in range(0, 120, 10)]
        assert costs == sorted(costs)

    def test_hand_derived_value_against_cdf_oracle(self):
        got = length_cost(50, 80)
        delta = (80 - 50) / math.sqrt(50 * 6.8)
        expected = -mpmath.log(2 * (1 - mpmath.ncdf(delta)))
        assert got == pytest.approx(float(expected), abs=1e-6)

    def test_capped(self):
        assert length_cost(10, 10_000) == COST_CAP

    def test_zero_source_uses_floor(self):
        got = length_cost(0, 40)
        assert 0.0 < got <= COST_CAP


class TestBeadCost:
    def test_one_bead_assembles_parts(self):
        lex = build_lexicon([("犬", "狗")])
        src, trg = [sent("犬", ["犬"])], [sent("狗", ["狗"])]
        lam = 3.0
        expected = max(
            0.0,
            length_cost(1, 1) + PRIOR_COSTS[BeadKind.ONE] - lam * 1.0,
        )
        got = bead_cost(BeadKind.ONE, src, trg, lex, lam)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_del_bead_has_no_dictionary_term(self):
        src = [sent("あ" * 40)]
        expected = length_cost(40, 0) + PRIOR_COSTS[BeadKind.DEL]
        got = bead_cost(BeadKind.DEL, src, [], build_lexicon([("あ", "a")]), lam=3.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_span_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bead_cost(BeadKind.ONE, [], [sent("a")], None)

    def test_expand_vs_two_beads_hand_comparison(self):
        # One 20-char source against 10+10 targets: EXPAND tiles in one
        # bead (cost x) while ONE+SUB pays the substitution prior.
        src = [sent("か" * 20)]
        trg = [sent("一" * 10), sent("二" * 10)]
        expand = bead_cost(BeadKind.EXPAND, src, trg, None, 0.0)
        one = bead_cost(BeadKind.ONE, src, [trg[0]], None, 0.0)
        sub = bead_cost(BeadKind.SUB, [], [trg[1]], None, 0.0)
        assert expand < one + sub
        ladder = align_sentences(src, trg, None, lam=0.0)
        assert [b.kind for b in ladder.beads] == [BeadKind.EXPAND]


class TestAlignSentences:
    """Unless a test says otherwise, no input has more than
    ``BAND_HALF_WIDTH`` target sentences, so each aligns on the full
    grid."""

    def test_empty_inputs(self):
        ladder = align_sentences([], [], None)
        assert ladder.beads == [] and ladder.total_cost == 0.0

    def test_one_sided_inputs(self):
        ladder = align_sentences([sent("ああ")], [], None)
        assert [b.kind for b in ladder.beads] == [BeadKind.DEL]
        ladder = align_sentences([], [sent("ああ"), sent("いい")], None)
        assert [b.kind for b in ladder.beads] == [BeadKind.SUB, BeadKind.SUB]

    def test_mirror_three_by_three(self, mirror_lexicon):
        src = [
            sent("学生は新聞を読む。", ["学生", "は", "新聞", "を", "読む", "。"]),
            sent("図書館は好き。", ["図書館", "は", "好き", "。"]),
            sent("映画を見る。", ["映画", "を", "見る", "。"]),
        ]
        trg = [
            sent("学生读报纸。", ["学生", "读", "报纸", "。"]),
            sent("喜欢图书馆。", ["喜欢", "图书馆", "。"]),
            sent("看电影。", ["看", "电影", "。"]),
        ]
        ladder = align_sentences(src, trg, mirror_lexicon)
        assert [b.kind for b in ladder.beads] == [BeadKind.ONE] * 3

    def test_tiling_invariant(self):
        rng = random.Random(9)
        for _ in range(50):
            src = [sent("あ" * rng.randrange(1, 30)) for _ in range(rng.randrange(0, 7))]
            trg = [sent("一" * rng.randrange(1, 30)) for _ in range(rng.randrange(0, 7))]
            ladder = align_sentences(src, trg, None)
            assert sum(b.src_span[1] for b in ladder.beads) == len(src)
            assert sum(b.trg_span[1] for b in ladder.beads) == len(trg)
            starts_src = [b.src_span[0] for b in ladder.beads if b.src_span[1]]
            assert starts_src == sorted(starts_src)
            assert ladder.total_cost == pytest.approx(
                sum(b.cost for b in ladder.beads), abs=1e-9
            )

    def test_dp_equals_brute_force_small(self, mirror_lexicon):
        rng = random.Random(31)
        words_ja = ["学生", "新聞", "図書館", "映画", "東京", "公園"]
        words_zh = ["学生", "报纸", "图书馆", "电影", "东京", "公园"]
        for _ in range(60):
            n, m = rng.randrange(0, 5), rng.randrange(0, 5)
            src = [
                sent("".join(rng.choice(words_ja) for _ in range(rng.randrange(1, 4))))
                for _ in range(n)
            ]
            trg = [
                sent("".join(rng.choice(words_zh) for _ in range(rng.randrange(1, 4))))
                for _ in range(m)
            ]
            for s in src:
                s.tokens = [s.text[i : i + 2] for i in range(0, len(s.text), 2)]
            for t in trg:
                t.tokens = [t.text[i : i + 2] for i in range(0, len(t.text), 2)]
            ladder = align_sentences(src, trg, mirror_lexicon)
            oracle = brute_force_min_cost(src, trg, mirror_lexicon, 3.0)
            assert ladder.total_cost == pytest.approx(oracle, abs=1e-9)

    def test_monotone_degradation(self):
        src = [sent("あいうえおかきくけこ") for _ in range(3)]
        trg = [sent("一二三四五六七八九十") for _ in range(3)]
        base = align_sentences(src, trg, None).total_cost
        worse = align_sentences(src + [sent("ぜんぜん関係ない文です")], trg, None).total_cost
        assert worse >= base - 1e-9

    def test_band_feasibility_fallback(self):
        # 1 source sentence vs 100 targets: the band cannot cover the
        # required SUB chain and the aligner must rerun unbanded.
        src = [sent("あ" * 10)]
        trg = [sent("一" * 10) for _ in range(100)]
        ladder = align_sentences(src, trg, None)
        assert sum(b.trg_span[1] for b in ladder.beads) == 100

    def test_priors_renormalized(self):
        priors = [math.exp(-PRIOR_COSTS[kind]) for kind in BeadKind]
        assert sum(priors) == pytest.approx(1.0, abs=1e-12)


def _random_texts(rng, n):
    src = [sent("あ" * rng.randrange(2, 40)) for _ in range(n)]
    trg = [sent("一" * rng.randrange(1, 30)) for _ in range(n + rng.randrange(-1, 2))]
    return src, trg


def _bead_costs(ladder, src, trg, lex, lam=3.0):
    return [
        bead_cost(
            b.kind,
            src[b.src_span[0] : sum(b.src_span)],
            trg[b.trg_span[0] : sum(b.trg_span)],
            lex,
            lam,
        )
        for b in ladder.beads
    ]


class TestLengthKernel:
    """The DP's length term is ``length_cost`` itself, read from the
    module at call time.  No input has more than ``BAND_HALF_WIDTH``
    target sentences, so each aligns on the full grid."""

    def test_dp_length_term_is_length_cost(self, monkeypatch, mirror_lexicon):
        def shifted_cost(l_src, l_trg):
            return min(COST_CAP, 1.0 + 0.25 * abs(l_trg - sentalign.DEFAULT_C * l_src))

        monkeypatch.setattr("localmine.sentalign.length_cost", shifted_cost)
        rng = random.Random(17)
        for _ in range(40):
            src, trg = _random_texts(rng, rng.randrange(1, 8))
            src.append(sent("学生は新聞を読む。", ["学生", "は", "新聞", "を", "読む", "。"]))
            trg.append(sent("学生读报纸。", ["学生", "读", "报纸", "。"]))
            ladder = align_sentences(src, trg, mirror_lexicon)
            expected = _bead_costs(ladder, src, trg, mirror_lexicon)
            assert [b.cost for b in ladder.beads] == pytest.approx(expected, abs=1e-9)


class TestShortCostTable:
    """The process-wide table of short span costs holds ``length_cost``
    itself, and is made afresh when that name is rebound."""

    @staticmethod
    def _filled(table):
        short = sentalign.SHORT_SPAN
        return {
            (at // short, at % short): cost for at, cost in enumerate(table) if cost == cost
        }

    def test_every_short_pair_is_length_cost(self):
        short = sentalign.SHORT_SPAN
        for l_src in range(short):
            for l_trg in range(short):
                ladder = align_sentences([sent("あ" * l_src)], [sent("あ" * l_trg)], None)
                assert ladder.beads  # a 1x1 grid costs the pair's ONE bead
        filled = self._filled(sentalign._short_cost_table())
        assert set(filled) == {(a, b) for a in range(short) for b in range(short)}
        for (l_src, l_trg), cost in filled.items():
            assert cost == length_cost(l_src, l_trg)

    def test_long_spans_bypass_the_table(self):
        short = sentalign.SHORT_SPAN
        before = self._filled(sentalign._short_cost_table())
        align_sentences([sent("あ" * short)], [sent("あ" * (short + 3))], None)
        # Every bead of a 1x1 grid has a side of SHORT_SPAN characters or more.
        assert self._filled(sentalign._short_cost_table()) == before

    def test_rebinding_length_cost_empties_the_table(self, monkeypatch):
        align_sentences([sent("あいう"), sent("えお")], [sent("かき"), sent("くけこ")], None)

        def shifted_cost(l_src, l_trg):
            return 1.0 + length_cost(l_src, l_trg)

        monkeypatch.setattr("localmine.sentalign.length_cost", shifted_cost)
        align_sentences([sent("あいう"), sent("えお")], [sent("かき"), sent("くけこ")], None)
        shifted = self._filled(sentalign._short_cost_table())
        assert shifted and all(c == shifted_cost(*pair) for pair, c in shifted.items())
        monkeypatch.undo()
        assert self._filled(sentalign._short_cost_table()) == {}
        align_sentences([sent("あい")], [sent("かきく")], None)
        restored = self._filled(sentalign._short_cost_table())
        assert restored and all(c == length_cost(*pair) for pair, c in restored.items())


# Source-side words a*, target-side words b*, and words no entry names.
# A lexicon's side-swapped copy reads the same sentences with the b*
# words as its JA headwords: its JA table is the original's ZH table.
_WORDS_JA = ("a0", "a1", "a2", "a3")
_WORDS_ZH = ("b0", "b1", "b2", "b3")
_VOCAB = _WORDS_JA + _WORDS_ZH + ("u0", "u1")
# Headwords with several translations that compete for one target token
# in both tables (a0, a1 and a2 all name b0; b0 names a0, a1, a2).
_COMPETING = [
    ("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b2"),
    ("a2", "b0"), ("a2", "b3"), ("a3", "b1"),
]
# a0, a1 and a3 have one translation each, a2 two: after the cut, one
# document can hold rows with one candidate and rows with several.
_MIXED = [("a0", "b0"), ("a1", "b1"), ("a2", "b0"), ("a2", "b2"), ("a3", "b3")]


def _side_swapped(lex):
    return Lexicon(lex.index_zh, lex.index_ja)


_lexicons = st.one_of(
    st.none(),
    st.just(_COMPETING),
    st.just(_MIXED),
    st.lists(st.tuples(st.sampled_from(_WORDS_JA), st.sampled_from(_WORDS_ZH)), max_size=12),
).map(lambda entries: None if entries is None else build_lexicon(entries))
# Each lexicon or its side-swapped copy, so the DP reads both tables.
_either_side = st.tuples(_lexicons, st.booleans()).map(
    lambda drawn: _side_swapped(drawn[0]) if drawn[0] is not None and drawn[1] else drawn[0]
)


# The words a document draws its tokens from: all of them, or a few, so
# that a token recurs in a sentence and in a span on both sides.
_ALPHABETS = (_VOCAB, ("a0", "b0", "u0"), ("a0", "a2", "b0", "b2"))


@st.composite
def _documents(draw, min_size=0, max_size=9):
    """Sentences of 0-6 tokens from one of ``_ALPHABETS``; padding varies
    char lengths apart from the tokens, so some sentences have
    characters but no tokens."""
    alphabet = draw(st.sampled_from(_ALPHABETS))
    token_lists = draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=6),
                                min_size=min_size, max_size=max_size))
    return [sent("".join(toks) + "。" * draw(st.integers(0, 12)), toks) for toks in token_lists]


_dp_settings = dict(
    lex=_either_side,
    lam=st.sampled_from([0.0, 0.5, 3.0, 12.0]),
)


def _assert_same_ladder(got, want):
    if want is None:
        assert got is None
        return
    assert [(b.kind, b.src_span, b.trg_span, b.cost) for b in got.beads] == [
        (b.kind, b.src_span, b.trg_span, b.cost) for b in want.beads
    ]
    assert got.total_cost == want.total_cost


@contextlib.contextmanager
def _counted(owner, name):
    """Record each call of ``owner.name`` while the block runs, as its
    (arguments, return value)."""
    real = getattr(owner, name)
    calls = []

    def counting(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    setattr(owner, name, counting)
    try:
        yield calls
    finally:
        setattr(owner, name, real)


# Band rows per source index: the proportional band, the fixed
# starting band and the full grid.
_BANDS = {
    "proportional": lambda n_src, n_trg: reference_band_rows(n_src, n_trg, True),
    "fixed": lambda n_src, n_trg: _band_rows(n_src, n_trg, BAND_HALF_WIDTH),
    "full": lambda n_src, n_trg: reference_band_rows(n_src, n_trg, False),
}


def _assert_kernel_equals_reference(src, trg, lex, lam, band):
    rows = _BANDS[band](len(src), len(trg))
    args = (src, trg, lex, lam)
    _assert_same_ladder(_align(*args, rows), reference_align(*args, LanguageTag.JA, rows))


class TestMatchTables:
    """``_align`` over per-call match tables against ``reference_align``,
    both over the same band rows."""

    @settings(max_examples=300, deadline=None)
    @given(src=_documents(1), trg=_documents(1), band=st.sampled_from(sorted(_BANDS)),
           **_dp_settings)
    def test_small_documents_equal_reference(self, src, trg, lex, lam, band):
        _assert_kernel_equals_reference(src, trg, lex, lam, band)

    @settings(max_examples=100, deadline=None)
    @given(doc=_documents(1), empty_src=st.booleans(), band=st.sampled_from(sorted(_BANDS)),
           **_dp_settings)
    def test_one_empty_side_equals_reference(self, doc, empty_src, lex, lam, band):
        src, trg = ([], doc) if empty_src else (doc, [])
        _assert_kernel_equals_reference(src, trg, lex, lam, band)

    @pytest.mark.parametrize("n_src, n_trg", [(0, 0), (0, 3), (2, 0)])
    def test_empty_sides_equal_reference(self, n_src, n_trg):
        lex = build_lexicon(_COMPETING)
        src = [sent("a0a1", ["a0", "a1"])] * n_src
        trg = [sent("b0", ["b0"])] * n_trg
        for band in _BANDS:
            _assert_kernel_equals_reference(src, trg, lex, 3.0, band)

    @settings(max_examples=25, deadline=None)
    @given(src=_documents(22, 40), trg=_documents(22, 40),
           band=st.sampled_from(["proportional", "fixed"]), **_dp_settings)
    def test_banded_long_documents_equal_reference(self, src, trg, lex, lam, band):
        _assert_kernel_equals_reference(src, trg, lex, lam, band)

    # Shrinking documents this long against the reference takes minutes,
    # so a failure is reported as first found.
    @settings(max_examples=12, deadline=None, phases=[Phase.generate])
    @given(src=_documents(60, 150), trg=_documents(60, 150),
           band=st.sampled_from(["proportional", "fixed"]), **_dp_settings)
    def test_documents_over_several_row_blocks_equal_reference(self, src, trg, lex, lam, band):
        rows = _BANDS[band](len(src), len(trg))
        assert sum(j_hi - j_lo + 1 for j_lo, j_hi in rows) > 2 * sentalign._BLOCK_CELLS
        _assert_kernel_equals_reference(src, trg, lex, lam, band)

    @pytest.mark.parametrize("lam", [0.5, 3.0])
    def test_join_and_greedy_walk_in_one_call(self, lam):
        """Over ``_MIXED``, a2's row keeps b0 and b2, so the spans that
        hold it take the greedy walk; a0's, a1's and a3's rows have one
        candidate, so the join prices the spans without a2."""
        lex = build_lexicon(_MIXED)
        src = [sent("".join(toks), toks) for toks in (
            ["a0", "a1"], ["a3", "a3", "u0"], ["a2", "a0"], ["a1", "a3"], ["a0", "a0", "a2"])]
        trg = [sent("".join(toks), toks) for toks in (
            ["b0", "b1"], ["b3", "u1"], ["b2", "b0", "b0"], ["b1", "b3", "b3"], ["b0", "b2"])]
        with _counted(sentalign, "table_match_count") as walks, \
                _counted(sentalign._DictTerms, "match_counts") as joins:
            got = _align(src, trg, lex, lam, _BANDS["full"](5, 5))
        assert walks and any(m.any() for _, m in joins)
        _assert_same_ladder(got, reference_align(src, trg, lex, lam, LanguageTag.JA,
                                                 _BANDS["full"](5, 5)))

    @pytest.mark.parametrize("lam", [0.0, 3.0])
    def test_sub_chain_inside_a_row(self, lam):
        """Six one-character target sentences between two translated
        pairs: each pair's EXPAND takes one, and the other four are SUB
        beads from source index 1, each leaving a cell of its own row."""
        src = [sent("a0a1a2。", ["a0", "a1", "a2", "。"]), sent("a3a3a1。", ["a3", "a3", "a1", "。"])]
        trg = ([sent("b0b1b2。", ["b0", "b1", "b2", "。"])] + [sent("う", ["u0"])] * 6
               + [sent("b3b3b1。", ["b3", "b3", "b1", "。"])])
        ladder = align_sentences(src, trg, _PLANTED_LEXICON, lam)
        assert [b.kind for b in ladder.beads] == (
            [BeadKind.EXPAND] + [BeadKind.SUB] * 4 + [BeadKind.EXPAND])
        assert all(b.src_span == (1, 0) for b in ladder.beads[1:5])
        _assert_kernel_equals_reference(src, trg, _PLANTED_LEXICON, lam, "full")

    @settings(max_examples=150, deadline=None)
    @given(src=_documents(), trg=_documents(), lex=_either_side)
    def test_span_count_is_greedy_match_count(self, src, trg, lex):
        translations = lex.headwords(LanguageTag.JA) if lex is not None else {}
        src_rows, trg_counts = _match_tables(src, trg, translations)
        for di in (1, 2):
            for i in range(len(src) - di + 1):
                stoks = [tok for s in src[i : i + di] for tok in s.tokens]
                rows = [cands for row in src_rows[i : i + di] for cands in row]
                for dj in (1, 2):
                    for j in range(len(trg) - dj + 1):
                        ttoks = [tok for t in trg[j : j + dj] for tok in t.tokens]
                        counts = functools.reduce(_merged, trg_counts[j : j + dj], {})
                        assert table_match_count(rows, counts) == (
                            greedy_match_count(stoks, ttoks, translations)
                        )

    def test_competing_translations_follow_sorted_order(self):
        # a0 tries b0 before b1, taking the one b0 that a1 also names.
        lex = build_lexicon(_COMPETING)
        src = [sent("a0a1", ["a0", "a1"])]
        trg = [sent("b1b0", ["b1", "b0"])]
        src_rows, trg_counts = _match_tables(src, trg, lex.headwords(LanguageTag.JA))
        assert src_rows == [[("b0", "b1"), ("b0",)]]
        assert trg_counts == [{"b1": 1, "b0": 1}]
        assert table_match_count(src_rows[0], trg_counts[0].copy()) == 1
        assert greedy_match_count(["a0", "a1"], ["b1", "b0"], lex.headwords(LanguageTag.JA)) == 1


# Each a_k translates as b_k; u0 and u1 are words no entry names.
_PLANTED_LEXICON = build_lexicon((f"a{k}", f"b{k}") for k in range(4))


def _parallel_pair(src_toks, trg_toks, pad_src, pad_trg):
    return (sent("".join(src_toks) + "。" * pad_src, src_toks),
            sent("".join(trg_toks) + "。" * pad_trg, trg_toks))


@st.composite
def _planted_documents(draw):
    """A translated document pair of 22-60 sentences a side: 28-54
    sentence pairs, then up to six planted edits, each an unrelated
    sentence inserted on one side or two neighbours merged on one."""
    src, trg = [], []
    for _ in range(draw(st.integers(28, 54))):
        ids = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
        pad = draw(st.integers(0, 12))
        s, t = _parallel_pair([f"a{k}" for k in ids], [f"b{k}" for k in ids],
                              pad, max(0, pad + draw(st.integers(-2, 2))))
        src.append(s)
        trg.append(t)
    for _ in range(draw(st.integers(0, 6))):
        side = draw(st.sampled_from([src, trg]))
        i = draw(st.integers(0, len(side) - 2))
        if draw(st.booleans()):
            toks = draw(st.lists(st.sampled_from(["u0", "u1"]), min_size=1, max_size=6))
            side.insert(i, sent("".join(toks), toks))
        else:
            b = side.pop(i + 1)
            side[i] = sent(side[i].text + b.text, side[i].tokens + b.tokens)
    return src, trg


# One entry per content word: w_k translates as z_k.
_CONTENT_LEXICON = build_lexicon((f"w{k}", f"z{k}") for k in range(300))


def _documents_with_block(seed, n_body, pad_range, at):
    """``n_body`` translated sentence pairs of three content words each,
    whose target side holds, before its sentence ``at``, 3x the starting
    half-width of unrelated sentences of one or two characters.  The
    optimum drops that block as SUB beads, which takes it outside the
    starting band."""
    rng = random.Random(seed)
    words = rng.sample(range(300), 3 * n_body)
    src, trg = [], []
    for k in range(n_body):
        ids = words[3 * k : 3 * k + 3]
        pad = rng.randrange(*pad_range)
        s, t = _parallel_pair([f"w{i}" for i in ids], [f"z{i}" for i in ids], pad, pad)
        src.append(s)
        trg.append(t)
    block = [sent("う" * rng.randrange(1, 3), ["u0"]) for _ in range(3 * BAND_HALF_WIDTH)]
    return src, trg[:at] + block + trg[at:]


def _full_grid(src, trg, lex, lam):
    return _align(src, trg, lex, lam, reference_band_rows(len(src), len(trg), False))


def _inside_starting_band(ladder, n_src, n_trg):
    """Whether every ladder vertex lies strictly within
    ``BAND_HALF_WIDTH`` target sentences of the diagonal."""
    return all(
        abs(b.trg_span[0] * n_src - b.src_span[0] * n_trg) < BAND_HALF_WIDTH * n_src
        for b in ladder.beads
    )


class TestBand:
    """The fixed starting band and its widening against the full grid."""

    @settings(max_examples=60, deadline=None)
    @given(docs=_planted_documents(), lam=st.sampled_from([0.0, 3.0]))
    def test_optimum_inside_band_equals_full_grid(self, docs, lam):
        src, trg = docs
        args = (src, trg, _PLANTED_LEXICON, lam)
        full = _full_grid(*args)
        assume(_inside_starting_band(full, len(src), len(trg)))
        _assert_same_ladder(align_sentences(*args), full)

    # Long and short documents, the block prepended or in the middle.
    # Within a band too narrow for the drift, the cheapest ladder may
    # shift the body instead of running along the edge, so widening
    # only for a vertex on the edge fails several of these cases.
    @pytest.mark.parametrize("n_body, pad_range, at", [
        (80, (0, 21), 0), (40, (20, 61), 0), (60, (0, 21), 30),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_drift_beyond_band_widens_to_full_grid_optimum(self, seed, n_body, pad_range, at):
        src, trg = _documents_with_block(seed, n_body, pad_range, at)
        for lam in (0.0, 3.0):
            args = (src, trg, _CONTENT_LEXICON, lam)
            full = _full_grid(*args)
            assert not _inside_starting_band(full, len(src), len(trg))
            _assert_same_ladder(align_sentences(*args), full)

    @pytest.mark.parametrize("lam", [0.0, 3.0])
    def test_drift_widens_the_band_twice(self, lam):
        src, trg = _documents_with_block(0, 80, (0, 21), 0)
        args = (src, trg, _CONTENT_LEXICON, lam)
        with _counted(sentalign, "_align") as passes:
            ladder = align_sentences(*args)
        # Row 0's target range is the half-width: the last pass is banded.
        assert [rows[0] for (*_, rows), _ in passes] == [(0, BAND_HALF_WIDTH * k) for k in (1, 2, 4)]
        assert 4 * BAND_HALF_WIDTH < len(trg)
        _assert_same_ladder(ladder, _full_grid(*args))

    def test_starting_band_cells_are_linear(self):
        n = 1000
        rows = _band_rows(n, n, BAND_HALF_WIDTH)
        assert sum(j_hi - j_lo + 1 for j_lo, j_hi in rows) <= (2 * BAND_HALF_WIDTH + 1) * (n + 1)


class TestGreedyCalls:
    """The join prices every bead whose source rows have one candidate
    each; the greedy walk runs only for the others, and only where their
    bound beats the cell's best so far."""

    @settings(max_examples=30, deadline=None)
    @given(docs=_planted_documents(), lam=st.sampled_from([0.5, 3.0]))
    def test_single_candidate_rows_make_no_greedy_call(self, docs, lam):
        src, trg = docs
        with _counted(sentalign, "table_match_count") as walks:
            ladder = align_sentences(src, trg, _PLANTED_LEXICON, lam)
        assert walks == []
        assert ladder.total_cost < align_sentences(src, trg, None).total_cost

    @settings(max_examples=200, deadline=None)
    @given(src=_documents(1), trg=_documents(1), swapped=st.booleans(),
           lam=st.sampled_from([0.5, 3.0, 12.0]))
    def test_no_more_greedy_calls_than_the_pruned_reference(self, src, trg, swapped, lam):
        """Up to 9 target sentences, so ``align_sentences`` runs once, on
        the full grid."""
        lex = build_lexicon(_COMPETING)
        lex = _side_swapped(lex) if swapped else lex
        with _counted(sentalign, "table_match_count") as walks:
            ladder = align_sentences(src, trg, lex, lam)
        with _counted(sys.modules[__name__], "greedy_match_count") as reference_walks:
            want = reference_align(src, trg, lex, lam, LanguageTag.JA, _BANDS["full"](len(src), len(trg)))
        _assert_same_ladder(ladder, want)
        assert len(walks) <= len(reference_walks)


# One entry per content word: v_k translates as x_k.
_LONG_LEXICON = build_lexicon((f"v{k}", f"x{k}") for k in range(3000))


def _long_pair(n, seed=0):
    """A translated pair of ``n`` sentences a side, shaped like the long
    documents of the benchmark: 8 to 19 tokens and 16 to 40 characters
    a sentence, 3 to 6 of them lexicon words, the rest words the
    lexicon lacks."""
    rng = random.Random(seed)
    src, trg = [], []
    for _ in range(n):
        ids = [rng.randrange(3000) for _ in range(rng.randrange(3, 7))]
        fill = rng.randrange(5, 14)
        src_toks = [f"v{k}" for k in ids] + [f"f{rng.randrange(30)}" for _ in range(fill)]
        trg_toks = [f"x{k}" for k in ids] + [f"g{rng.randrange(30)}" for _ in range(fill)]
        rng.shuffle(src_toks)
        rng.shuffle(trg_toks)
        chars = rng.randrange(16, 41)
        src.append(sent("あ" * chars, src_toks))
        trg.append(sent("中" * (chars + rng.randrange(-3, 4)), trg_toks))
    return src, trg


# The tracemalloc peak of one ``align_sentences`` call on ``_long_pair(1200)``
# per band cell, for the kernel that kept Python lists of cell costs and
# per-span dicts (Python 3.11, numpy 2.4).
PER_CELL_PEAK_BEFORE = 120


def test_alignment_peak_memory_per_band_cell():
    """The peak stays within 1.5x that of the list-based kernel."""
    src, trg = _long_pair(1200)
    align_sentences(src[:60], trg[:60], _LONG_LEXICON)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        ladder = align_sentences(src, trg, _LONG_LEXICON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = _band_rows(len(src), len(trg), BAND_HALF_WIDTH)
    assert all(b.kind is BeadKind.ONE for b in ladder.beads)  # one pass: the starting band
    cells = sum(j_hi - j_lo + 1 for j_lo, j_hi in rows)
    assert peak <= 1.5 * PER_CELL_PEAK_BEFORE * cells, (peak, cells)


class TestExtractPairs:
    def _ladder(self, kinds_costs):
        beads = []
        i = j = 0
        for kind, cost in kinds_costs:
            beads.append(Bead(kind, (i, kind.n_src), (j, kind.n_trg), cost))
            i += kind.n_src
            j += kind.n_trg
        return AlignmentLadder(beads, sum(c for _, c in kinds_costs))

    def test_three_one_beads(self):
        src = [sent("一文目。"), sent("二文目。"), sent("三文目。")]
        trg = [sent("第一句。"), sent("第二句。"), sent("第三句。")]
        ladder = self._ladder([(BeadKind.ONE, 0.1)] * 3)
        pairs = extract_pairs(ladder, src, trg, max_cost=10.0)
        assert pairs == [
            ("一文目。", "第一句。", 0.1, src[0].tokens, trg[0].tokens),
            ("二文目。", "第二句。", 0.1, src[1].tokens, trg[1].tokens),
            ("三文目。", "第三句。", 0.1, src[2].tokens, trg[2].tokens),
        ]

    def test_del_emits_nothing(self):
        ladder = self._ladder([(BeadKind.DEL, 0.5)])
        assert extract_pairs(ladder, [sent("ああ")], [], max_cost=10.0) == []

    def test_expand_concatenates_without_separator(self):
        src = [sent("長い一文。")]
        trg = [sent("前半。"), sent("后半。")]
        ladder = self._ladder([(BeadKind.EXPAND, 0.3)])
        pairs = extract_pairs(ladder, src, trg, max_cost=10.0)
        # The two-sentence side carries no tokens: it must be segmented.
        assert pairs == [("長い一文。", "前半。后半。", 0.3, src[0].tokens, None)]

    def test_costly_beads_dropped(self):
        src = [sent("一。"), sent("二。")]
        trg = [sent("1。"), sent("2。")]
        ladder = self._ladder([(BeadKind.ONE, 0.1), (BeadKind.ONE, 11.0)])
        pairs = extract_pairs(ladder, src, trg, max_cost=10.0)
        assert len(pairs) == 1

    def test_ladder_tsv_format(self):
        ladder = self._ladder([(BeadKind.ONE, 0.5), (BeadKind.DEL, 1.0)])
        dump = format_ladder_tsv(ladder)
        lines = dump.strip().split("\n")
        assert lines[0] == "0\t1\t0\t1\t1-1\t0.5000"
        assert lines[1] == "1\t1\t1\t0\t1-0\t1.0000"
