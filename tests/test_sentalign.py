import math
import random

import mpmath
import pytest

from localmine.lexicon import build_lexicon
from localmine.sentalign import (
    COST_CAP,
    AlignmentLadder,
    Bead,
    BeadKind,
    LengthModel,
    align_sentences,
    bead_cost,
    extract_pairs,
    format_ladder_tsv,
    length_cost,
)
from localmine.text import LanguageTag, Sentence


def sent(text, tokens=None):
    s = Sentence(text=text)
    s.tokens = tokens if tokens is not None else list(text)
    return s


def brute_force_min_cost(src, trg, lex, model, lam):
    """Exhaustive enumeration of every bead tiling; independent of the DP
    (recursive search, costs via the public bead_cost)."""
    cache = {}

    def bead(kind, i, j):
        key = (kind, i, j)
        if key not in cache:
            cache[key] = bead_cost(
                kind,
                src[i : i + kind.n_src],
                trg[j : j + kind.n_trg],
                lex,
                model,
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


class TestLengthCost:
    def test_symmetric_case_is_zero(self):
        assert length_cost(100, 100, LengthModel(c=1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_deviation(self):
        model = LengthModel(c=1.0)
        assert length_cost(100, 180, model) > length_cost(100, 100, model)
        costs = [length_cost(100, 100 + d, model) for d in range(0, 120, 10)]
        assert costs == sorted(costs)

    def test_hand_derived_value_against_cdf_oracle(self):
        model = LengthModel(c=1.0, s2=6.8)
        got = length_cost(50, 80, model)
        delta = (80 - 50) / math.sqrt(50 * 6.8)
        expected = -mpmath.log(2 * (1 - mpmath.ncdf(delta)))
        assert got == pytest.approx(float(expected), abs=1e-6)

    def test_capped(self):
        assert length_cost(10, 10_000, LengthModel()) == COST_CAP

    def test_zero_source_uses_floor(self):
        got = length_cost(0, 40, LengthModel())
        assert 0.0 < got <= COST_CAP


class TestBeadCost:
    def test_one_bead_assembles_parts(self):
        lex = build_lexicon([("犬", "狗")])
        model = LengthModel()
        src, trg = [sent("犬", ["犬"])], [sent("狗", ["狗"])]
        lam = 3.0
        expected = max(
            0.0,
            length_cost(1, 1, model) - math.log(model.bead_priors[BeadKind.ONE]) - lam * 1.0,
        )
        got = bead_cost(BeadKind.ONE, src, trg, lex, model, lam)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_del_bead_has_no_dictionary_term(self):
        model = LengthModel()
        src = [sent("あ" * 40)]
        expected = length_cost(40, 0, model) - math.log(model.bead_priors[BeadKind.DEL])
        got = bead_cost(BeadKind.DEL, src, [], build_lexicon([("あ", "a")]), model, lam=3.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_span_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bead_cost(BeadKind.ONE, [], [sent("a")], None, LengthModel())

    def test_expand_vs_two_beads_hand_comparison(self):
        # One 20-char source against 10+10 targets: EXPAND tiles in one
        # bead (cost x) while ONE+SUB pays the substitution prior.
        model = LengthModel()
        src = [sent("か" * 20)]
        trg = [sent("一" * 10), sent("二" * 10)]
        expand = bead_cost(BeadKind.EXPAND, src, trg, None, model, 0.0)
        one = bead_cost(BeadKind.ONE, src, [trg[0]], None, model, 0.0)
        sub = bead_cost(BeadKind.SUB, [], [trg[1]], None, model, 0.0)
        assert expand < one + sub
        ladder = align_sentences(src, trg, None, model, lam=0.0, banded=False)
        assert [b.kind for b in ladder.beads] == [BeadKind.EXPAND]


class TestAlignSentences:
    def test_empty_inputs(self):
        ladder = align_sentences([], [], None, LengthModel())
        assert ladder.beads == [] and ladder.total_cost == 0.0

    def test_one_sided_inputs(self):
        ladder = align_sentences([sent("ああ")], [], None, LengthModel())
        assert [b.kind for b in ladder.beads] == [BeadKind.DEL]
        ladder = align_sentences([], [sent("ああ"), sent("いい")], None, LengthModel())
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
        ladder = align_sentences(src, trg, mirror_lexicon, LengthModel())
        assert [b.kind for b in ladder.beads] == [BeadKind.ONE] * 3

    def test_tiling_invariant(self):
        rng = random.Random(9)
        for _ in range(50):
            src = [sent("あ" * rng.randrange(1, 30)) for _ in range(rng.randrange(0, 7))]
            trg = [sent("一" * rng.randrange(1, 30)) for _ in range(rng.randrange(0, 7))]
            ladder = align_sentences(src, trg, None, LengthModel(), banded=False)
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
        model = LengthModel()
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
            ladder = align_sentences(src, trg, mirror_lexicon, model, banded=False)
            oracle = brute_force_min_cost(src, trg, mirror_lexicon, model, 3.0)
            assert ladder.total_cost == pytest.approx(oracle, abs=1e-9)

    def test_monotone_degradation(self):
        model = LengthModel()
        src = [sent("あいうえおかきくけこ") for _ in range(3)]
        trg = [sent("一二三四五六七八九十") for _ in range(3)]
        base = align_sentences(src, trg, None, model, banded=False).total_cost
        worse = align_sentences(
            src + [sent("ぜんぜん関係ない文です")], trg, None, model, banded=False
        ).total_cost
        assert worse >= base - 1e-9

    def test_symmetry_on_unique_optimum(self, mirror_lexicon):
        # Equal char lengths per bead keep the deviation term symmetric;
        # the middle bead must flip EXPAND <-> CONTRACT under transposition.
        src = [
            sent("学生は新聞。", ["学生", "は", "新聞", "。"]),
            sent("一二三四五六七八九十"),
            sent("映画を見る。", ["映画", "を", "見る", "。"]),
        ]
        trg = [
            sent("学生读报纸。", ["学生", "读", "报纸", "。"]),
            sent("甲乙丙丁戊"),
            sent("己庚辛壬癸"),
            sent("看电影呀吧。", ["看", "电影", "呀", "吧", "。"]),
        ]
        model = LengthModel(c=1.0)
        forward = align_sentences(src, trg, mirror_lexicon, model, banded=False)
        assert [b.kind for b in forward.beads] == [BeadKind.ONE, BeadKind.EXPAND, BeadKind.ONE]
        backward = align_sentences(
            trg, src, mirror_lexicon, model.reciprocal(),
            direction=LanguageTag.ZH, banded=False,
        )
        fwd = [(b.kind.code, b.src_span, b.trg_span) for b in forward.beads]
        transposed = [
            (f"{b.kind.n_trg}-{b.kind.n_src}", b.trg_span, b.src_span) for b in backward.beads
        ]
        assert fwd == transposed

    def test_band_feasibility_fallback(self):
        # 1 source sentence vs 100 targets: the band cannot cover the
        # required SUB chain and the aligner must rerun unbanded.
        src = [sent("あ" * 10)]
        trg = [sent("一" * 10) for _ in range(100)]
        ladder = align_sentences(src, trg, None, LengthModel(), banded=True)
        assert sum(b.trg_span[1] for b in ladder.beads) == 100

    def test_priors_renormalized(self):
        model = LengthModel()
        assert sum(model.bead_priors.values()) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            LengthModel(c=-1.0)
        with pytest.raises(ValueError):
            LengthModel(s2=0.0)


def _random_texts(rng, n):
    src = [sent("あ" * rng.randrange(2, 40)) for _ in range(n)]
    trg = [sent("一" * rng.randrange(1, 30)) for _ in range(n + rng.randrange(-1, 2))]
    return src, trg


def _bead_costs(ladder, src, trg, lex, model, lam=3.0):
    return [
        bead_cost(
            b.kind,
            src[b.src_span[0] : sum(b.src_span)],
            trg[b.trg_span[0] : sum(b.trg_span)],
            lex,
            model,
            lam,
        )
        for b in ladder.beads
    ]


class TestLengthKernel:
    """The DP's length term is ``length_cost`` itself, costed afresh for
    every call and model."""

    def test_dp_length_term_is_length_cost(self, monkeypatch, mirror_lexicon):
        def shifted_cost(l_src, l_trg, model):
            return min(COST_CAP, 1.0 + 0.25 * abs(l_trg - model.c * l_src))

        monkeypatch.setattr("localmine.sentalign.length_cost", shifted_cost)
        rng = random.Random(17)
        model = LengthModel()
        for banded in (True, False):
            for _ in range(20):
                src, trg = _random_texts(rng, rng.randrange(1, 8))
                src.append(sent("学生は新聞を読む。", ["学生", "は", "新聞", "を", "読む", "。"]))
                trg.append(sent("学生读报纸。", ["学生", "读", "报纸", "。"]))
                ladder = align_sentences(src, trg, mirror_lexicon, model, banded=banded)
                expected = _bead_costs(ladder, src, trg, mirror_lexicon, model)
                assert [b.cost for b in ladder.beads] == pytest.approx(expected, abs=1e-9)

    def test_each_call_costs_under_its_own_model(self):
        rng = random.Random(41)
        src, trg = _random_texts(rng, 12)
        totals = []
        for model in (LengthModel(c=1.0), LengthModel(c=0.5)):
            ladder = align_sentences(src, trg, None, model)
            expected = sum(_bead_costs(ladder, src, trg, None, model))
            assert ladder.total_cost == pytest.approx(expected, abs=1e-9)
            totals.append(ladder.total_cost)
        assert totals[0] != pytest.approx(totals[1], abs=1e-3)


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
            ("一文目。", "第一句。", 0.1),
            ("二文目。", "第二句。", 0.1),
            ("三文目。", "第三句。", 0.1),
        ]

    def test_del_emits_nothing(self):
        ladder = self._ladder([(BeadKind.DEL, 0.5)])
        assert extract_pairs(ladder, [sent("ああ")], [], max_cost=10.0) == []

    def test_expand_concatenates_without_separator(self):
        src = [sent("長い一文。")]
        trg = [sent("前半。"), sent("后半。")]
        ladder = self._ladder([(BeadKind.EXPAND, 0.3)])
        pairs = extract_pairs(ladder, src, trg, max_cost=10.0)
        assert pairs == [("長い一文。", "前半。后半。", 0.3)]

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
