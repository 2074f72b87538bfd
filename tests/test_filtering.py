import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.charlm import train_char_lm
from localmine.filtering import (
    FEATURE_NAMES,
    BitextFilter,
    CorpusRecord,
    FeatureVector,
    cosine_similarity,
    embedding_gate,
    extract_features,
    score_pair,
    synthesize_negatives,
    train_classifier,
)
from localmine.lexicon import build_lexicon
from localmine.model1 import TranslationTable


@pytest.fixture(scope="module")
def feature_models():
    lex = build_lexicon([("学生", "学生"), ("新聞", "报纸"), ("読む", "读")])
    table_j2z = TranslationTable(t={"学生": {"学生": 0.8, "报纸": 0.2}, "新聞": {"报纸": 0.9}})
    table_z2j = TranslationTable(t={"学生": {"学生": 0.7}, "报纸": {"新聞": 0.6}})
    lm_ja = train_char_lm(["学生は新聞を読む。", "今日は晴れ。"], n=3, k=0.1)
    lm_zh = train_char_lm(["学生读报纸。", "今天晴。"], n=3, k=0.1)
    return lex, table_j2z, table_z2j, lm_ja, lm_zh


def features_for(pair, models, tokens=None):
    lex, t_j2z, t_z2j, lm_ja, lm_zh = models
    ja, zh = pair
    tokens_ja = tokens[0] if tokens else list(ja)
    tokens_zh = tokens[1] if tokens else list(zh)
    return extract_features(ja, zh, tokens_ja, tokens_zh, t_j2z, t_z2j, lm_ja, lm_zh, lex)


class TestExtractFeatures:
    def test_identical_digits_match(self, feature_models):
        fv = features_for(("2023年", "2023年"), feature_models)
        assert fv.num_match == 1.0

    def test_digit_runs_differ(self, feature_models):
        fv = features_for(("10月", "11月"), feature_models)
        assert fv.num_match == 0.0

    def test_no_digits_counts_as_match(self, feature_models):
        fv = features_for(("学生。", "学生。"), feature_models)
        assert fv.num_match == 1.0

    def test_avgmaxp_hand_computed(self, feature_models):
        # tokens: 学生 -> max over {学生, 报纸} present = 0.8; 新聞 -> 0.9;
        # unknown -> 0; mean over 3 source tokens.
        fv = features_for(
            ("学生新聞です", "学生报纸"),
            feature_models,
            tokens=(["学生", "新聞", "です"], ["学生", "报纸"]),
        )
        assert fv.avgmaxp_j2z == pytest.approx((0.8 + 0.9 + 0.0) / 3)

    def test_coverage_directions(self, feature_models):
        fv = features_for(
            ("学生は新聞", "学生报纸"),
            feature_models,
            tokens=(["学生", "は", "新聞"], ["学生", "报纸"]),
        )
        assert fv.cov_j2z == pytest.approx(2 / 3)
        assert fv.cov_z2j == pytest.approx(1.0)

    def test_punct_diff(self, feature_models):
        fv = features_for(("一。二。", "一。"), feature_models)
        assert fv.punct_diff == pytest.approx(1 / 3)

    @given(
        st.text(alphabet="学生新聞を読む。0123あア", min_size=1, max_size=25),
        st.text(alphabet="学生报纸读。0123中文", min_size=1, max_size=25),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariant_ranges_fuzzed(self, feature_models, ja, zh):
        fv = features_for((ja, zh), feature_models)
        assert 0.0 <= fv.len_ratio <= 1.0
        assert 0.0 <= fv.tok_ratio <= 1.0
        assert 0.0 <= fv.cov_j2z <= 1.0 and 0.0 <= fv.cov_z2j <= 1.0
        assert 0.0 <= fv.avgmaxp_j2z <= 1.0 and 0.0 <= fv.avgmaxp_z2j <= 1.0
        assert fv.lm_ja <= 0.0 and fv.lm_zh <= 0.0
        assert fv.num_match in (0.0, 1.0)
        assert 0.0 <= fv.punct_diff <= 1.0
        assert fv.len_ja >= 0 and fv.len_zh >= 0
        assert list(fv.as_array()) == [getattr(fv, n) for n in FEATURE_NAMES]


class TestSynthesizeNegatives:
    POSITIVES = [(f"日本語の文{i}です。", f"中文句子{i}。") for i in range(20)]

    def test_counts_and_interleaving(self):
        rows = synthesize_negatives(self.POSITIVES, seed=0)
        assert len(rows) == 40
        assert [r.label for r in rows[:4]] == [1, 0, 1, 0]
        assert sum(r.label for r in rows) == 20

    def test_same_seed_identical(self):
        a = synthesize_negatives(self.POSITIVES, seed=3)
        b = synthesize_negatives(self.POSITIVES, seed=3)
        assert [(r.ja, r.zh, r.label) for r in a] == [(r.ja, r.zh, r.label) for r in b]

    def test_different_seed_differs(self):
        a = synthesize_negatives(self.POSITIVES, seed=1)
        b = synthesize_negatives(self.POSITIVES, seed=2)
        assert [(r.ja, r.zh) for r in a] != [(r.ja, r.zh) for r in b]

    def test_no_negative_equals_its_positive(self):
        for seed in range(5):
            rows = synthesize_negatives(self.POSITIVES, seed=seed)
            for pos, neg in zip(rows[::2], rows[1::2]):
                assert pos.label == 1 and neg.label == 0
                assert (neg.ja, neg.zh) != (pos.ja, pos.zh)
                assert neg.zh

    def test_too_few_positives(self):
        with pytest.raises(ValueError):
            synthesize_negatives(self.POSITIVES[:5], seed=0)

    def test_one_character_target_falls_back_to_next_row(self):
        # "票" shuffles and truncates to itself; at seed 80 the random
        # draws never pick the swap scheme with another row
        positives = [("切符", "票")] + self.POSITIVES[:12]
        rows = synthesize_negatives(positives, seed=80)
        assert (rows[1].ja, rows[1].zh, rows[1].label) == ("切符", positives[1][1], 0)

    def test_no_distinct_target_anywhere(self):
        with pytest.raises(ValueError):
            synthesize_negatives([(f"文{i}", "票") for i in range(10)], seed=0)


class TestClassifier:
    def _rows(self, n=60):
        rows = []
        for i in range(n):
            good = FeatureVector(len_ja=20, len_zh=18, len_ratio=0.9, tok_ratio=0.9,
                                 cov_j2z=0.8, cov_z2j=0.8, avgmaxp_j2z=0.7, avgmaxp_z2j=0.7,
                                 lm_ja=-2.0, lm_zh=-2.0, num_match=1.0, punct_diff=0.0)
            bad = FeatureVector(len_ja=20, len_zh=7, len_ratio=0.35, tok_ratio=0.3,
                                cov_j2z=0.05, cov_z2j=0.1, avgmaxp_j2z=0.02, avgmaxp_z2j=0.05,
                                lm_ja=-2.0, lm_zh=-6.0, num_match=0.0, punct_diff=0.6)
            good.len_ja += i % 5
            bad.len_zh += i % 3
            rows.append((good, 1))
            rows.append((bad, 0))
        return rows

    def test_separable_rows(self):
        rows = self._rows()
        model = train_classifier(rows, trees=30, depth=6, seed=0)
        correct = sum(
            1 for fv, label in rows if (score_pair(model, fv) >= 0.5) == bool(label)
        )
        assert correct / len(rows) >= 0.99

    def test_boundary_score_kept_at_half(self):
        # prediction is a vote fraction; 0.5 means kept at the default
        # inclusive threshold
        rows = self._rows()
        model = train_classifier(rows, trees=2, depth=1, seed=1)
        fv = rows[0][0]
        score = score_pair(model, fv)
        assert score in (0.0, 0.5, 1.0)

    def test_empty_rows_error(self):
        with pytest.raises(ValueError):
            train_classifier([])


class TestEmbeddingGate:
    def _pairs(self, texts):
        return [CorpusRecord(ja=ja, zh=zh) for ja, zh in texts]

    def test_identical_vectors_kept(self):
        pairs = self._pairs([("a", "b")])
        provider = lambda sentences: [[1.0, 0.0]] * len(sentences)
        kept = embedding_gate(pairs, provider, threshold=0.7)
        assert len(kept) == 1
        assert kept[0].embed_sim == pytest.approx(1.0)

    def test_orthogonal_vectors_dropped(self):
        pairs = self._pairs([("a", "b")])
        provider = lambda sentences: [[1.0, 0.0], [0.0, 1.0]]
        assert embedding_gate(pairs, provider, threshold=0.7) == []

    def test_planted_boundary_inclusive(self):
        import math

        def vec(sim):
            return [sim, math.sqrt(1 - sim * sim)]

        sims = [0.69, 0.70, 0.71]
        pairs = self._pairs([(f"ja{i}", f"zh{i}") for i in range(3)])
        vectors = []
        for sim in sims:
            vectors.append([1.0, 0.0])
            vectors.append(vec(sim))
        kept = embedding_gate(pairs, lambda s: vectors, threshold=0.7)
        assert [round(p.embed_sim, 2) for p in kept] == [0.70, 0.71]

    def test_keep_below_flips_direction(self):
        pairs = self._pairs([("a", "b")])
        provider = lambda sentences: [[1.0, 0.0], [0.0, 1.0]]
        kept = embedding_gate(pairs, provider, threshold=0.7, keep_below=True)
        assert len(kept) == 1

    def test_provider_failure_drops_and_counts(self):
        pairs = self._pairs([("a", "b"), ("c", "d")])
        provider = lambda sentences: [[1.0], None, [1.0], [1.0]]
        counters = {}
        kept = embedding_gate(pairs, provider, threshold=0.5, counters=counters)
        assert len(kept) == 1
        assert counters["embed_failures"] == 1

    def test_whole_batch_failure_not_fatal(self):
        def provider(sentences):
            raise RuntimeError("endpoint down")

        counters = {}
        kept = embedding_gate(self._pairs([("a", "b")]), provider, counters=counters)
        assert kept == []
        assert counters["embed_failures"] == 1

    def test_order_preserved_subset(self):
        pairs = self._pairs([(f"j{i}", f"z{i}") for i in range(6)])
        vectors = []
        for i in range(6):
            vectors.append([1.0, 0.0])
            vectors.append([1.0, 0.0] if i % 2 == 0 else [0.0, 1.0])
        kept = embedding_gate(pairs, lambda s: vectors, threshold=0.7)
        assert [p.ja for p in kept] == ["j0", "j2", "j4"]


class TestPersistence:
    def test_filter_bundle_roundtrip_bit_exact(self, tmp_path, trained_filter):
        path = tmp_path / "model.json"
        trained_filter.save(path)
        again = BitextFilter.load(path)
        path2 = tmp_path / "model2.json"
        again.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_filter_scores_identically(self, tmp_path, trained_filter, starter_lexicon):
        path = tmp_path / "model.json"
        trained_filter.save(path)
        again = BitextFilter.load(path)
        ja, zh = "学生は新聞を読む。", "学生读报纸。"
        fv1 = trained_filter.features(ja, zh, list(ja), list(zh), starter_lexicon)
        fv2 = again.features(ja, zh, list(ja), list(zh), starter_lexicon)
        assert fv1 == fv2
        assert trained_filter.score(fv1) == again.score(fv2)

    def test_version_check(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(ValueError):
            BitextFilter.load(bad)


def test_cosine_similarity_basics():
    assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([0, 0], [1, 0]) == 0.0
