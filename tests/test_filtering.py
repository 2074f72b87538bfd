import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine import filtering, modelfile
from localmine.charlm import train_char_lm
from localmine.filtering import (
    FEATURE_NAMES,
    BitextFilter,
    CorpusRecord,
    FeatureVector,
    cosine_similarity,
    embedding_gate,
    extract_features,
    synthesize_negatives,
    train_classifier,
    train_filter,
)
from localmine.lexicon import build_lexicon
from localmine.text import LanguageTag, make_segmenter

from model_edits import FAULTS, dump, join_file, read_sections, split_file, table_from_rows


@pytest.fixture(scope="module")
def feature_models():
    lex = build_lexicon([("学生", "学生"), ("新聞", "报纸"), ("読む", "读")])
    table_j2z = table_from_rows({"学生": {"学生": 0.8, "报纸": 0.2}, "新聞": {"报纸": 0.9}})
    table_z2j = table_from_rows({"学生": {"学生": 0.7}, "报纸": {"新聞": 0.6}})
    lm_ja = train_char_lm(["学生は新聞を読む。", "今日は晴れ。"], n=3, k=0.1)
    lm_zh = train_char_lm(["学生读报纸。", "今天晴。"], n=3, k=0.1)
    return lex, table_j2z, table_z2j, lm_ja, lm_zh


def features_for(pair, models, tokens=None):
    lex, t_j2z, t_z2j, lm_ja, lm_zh = models
    ja, zh = pair
    tokens_ja = tokens[0] if tokens else list(ja)
    tokens_zh = tokens[1] if tokens else list(zh)
    [fv] = extract_features([(ja, zh, tokens_ja, tokens_zh)], t_j2z, t_z2j, lm_ja, lm_zh, lex)
    return fv


# The Counter-based digit runs and per-character punctuation count the
# filter used before, kept as oracles.
_REF_PUNCT = set("。．！？!?.、，,：:；;「」『』（）()[]【】《》〈〉\"“”'‘’")


def reference_same_digit_runs(a, b):
    from collections import Counter

    runs = filtering._DIGIT_RUN_RE.findall
    return Counter(runs(a)) == Counter(runs(b))


def reference_punct_count(text):
    return sum(1 for ch in text if ch in _REF_PUNCT)


# Digits of several scripts (ASCII, full-width, Arabic-Indic), every
# counted mark and a few characters that are neither.
_FEATURE_ALPHABET = "0123９８٣" + "".join(_REF_PUNCT) + "あ学 a"


class TestTextFeaturesEqualReference:
    @settings(max_examples=500)
    @given(a=st.text(alphabet=_FEATURE_ALPHABET, max_size=20),
           b=st.text(alphabet=_FEATURE_ALPHABET, max_size=20))
    def test_digit_runs_match_like_counters(self, a, b):
        got = filtering._digit_runs(a) == filtering._digit_runs(b)
        assert got == reference_same_digit_runs(a, b)
        # Each text against a reordering of its own runs.
        runs = filtering._DIGIT_RUN_RE.findall(a)
        shuffled = "x".join(reversed(runs))
        assert filtering._digit_runs(shuffled) == filtering._digit_runs(a)

    @settings(max_examples=300)
    @given(text=st.text(alphabet=_FEATURE_ALPHABET, max_size=40) | st.text(max_size=40))
    def test_punct_count_is_per_character_count(self, text):
        assert filtering._punct_count(text) == reference_punct_count(text)


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

    def test_batch_equals_one_pair_at_a_time(self, feature_models):
        # Repeated sides are scored once, an empty side scores 0, and no
        # pair's features depend on the rest of the batch.
        lex, t_j2z, t_z2j, lm_ja, lm_zh = feature_models
        pairs = [("学生は新聞を読む。", "学生读报纸。"), ("", "今天晴。"),
                 ("学生は新聞を読む。", ""), ("今日は晴れ。", "学生读报纸。")]
        rows = [(ja, zh, list(ja), list(zh)) for ja, zh in pairs]
        batch = extract_features(rows, t_j2z, t_z2j, lm_ja, lm_zh, lex)
        assert batch == [features_for(pair, feature_models) for pair in pairs]
        assert (batch[1].lm_ja, batch[2].lm_zh) == (0.0, 0.0)
        assert extract_features([], t_j2z, t_z2j, lm_ja, lm_zh, lex) == []

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
        assert fv._fields == FEATURE_NAMES


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
            good = good._replace(len_ja=good.len_ja + i % 5)
            bad = bad._replace(len_zh=bad.len_zh + i % 3)
            rows.append((good, 1))
            rows.append((bad, 0))
        return rows

    def test_separable_rows(self):
        rows = self._rows()
        model = train_classifier(rows, trees=30, depth=6, seed=0)
        scores = model.predict_proba([fv for fv, _ in rows])
        correct = sum(
            1 for score, (_, label) in zip(scores, rows) if (score >= 0.5) == bool(label)
        )
        assert correct / len(rows) >= 0.99

    def test_boundary_score_kept_at_half(self):
        # prediction is a vote fraction; 0.5 means kept at the default
        # inclusive threshold
        rows = self._rows()
        model = train_classifier(rows, trees=2, depth=1, seed=1)
        fv = rows[0][0]
        score = model.predict_proba([fv])[0]
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

    def test_provider_failure_drops_and_counts(self):
        pairs = self._pairs([("a", "b"), ("c", "d")])
        provider = lambda sentences: [[1.0], None, [1.0], [1.0]]
        counters = {}
        kept = embedding_gate(pairs, provider, threshold=0.5, counters=counters)
        assert len(kept) == 1
        assert counters == {"embed_missing": 1}

    def test_whole_batch_failure_not_fatal(self):
        def provider(sentences):
            raise RuntimeError("endpoint down")

        counters = {}
        kept = embedding_gate(self._pairs([("a", "b")]), provider, counters=counters)
        assert kept == []
        assert counters["embed_failures"] == 1

    def test_vector_file_miss_is_not_an_outage(self, tmp_path):
        from localmine.embeddings import FileVectorProvider, write_vector_file

        pairs = self._pairs([("ja0", "zh0"), ("ja1", "zh1"), ("ja2", "zh2")])
        vectors = {text: [1.0, 0.0] for pair in pairs for text in (pair.ja, pair.zh)}
        del vectors["zh1"]
        write_vector_file(tmp_path / "v.jsonl", vectors)
        counters = {}
        kept = embedding_gate(pairs, FileVectorProvider(tmp_path / "v.jsonl"), counters=counters)
        assert [p.ja for p in kept] == ["ja0", "ja2"]
        assert counters == {"embed_missing": 1}

    def test_raising_provider_counts_only_failures(self):
        def provider(sentences):
            raise ConnectionError("endpoint down")

        counters = {}
        kept = embedding_gate(self._pairs([("a", "b"), ("c", "d")]), provider, counters=counters)
        assert kept == []
        assert counters == {"embed_failures": 2}

    @pytest.mark.parametrize("bad", [[1.0, 0.0, 0.0], ["x", 1.0], [{}, 1.0]])
    def test_uncomparable_vectors_count_as_failures(self, bad):
        pairs = self._pairs([("a", "b"), ("c", "d"), ("e", "f")])
        vectors = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], bad, [1.0, 0.0], [1.0, 0.0]]
        counters = {}
        kept = embedding_gate(pairs, lambda s: vectors, threshold=0.7, counters=counters)
        assert [p.ja for p in kept] == ["a", "e"]
        assert counters == {"embed_failures": 1}

    def test_misaligned_batch_counts_every_pair(self):
        pairs = self._pairs([("a", "b"), ("c", "d")])
        counters = {}
        kept = embedding_gate(pairs, lambda s: [[1.0, 0.0]] * 3, counters=counters)
        assert kept == []
        assert counters == {"embed_failures": 2}

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
        [fv1] = trained_filter.features([(ja, zh, list(ja), list(zh))], starter_lexicon)
        [fv2] = again.features([(ja, zh, list(ja), list(zh))], starter_lexicon)
        assert fv1 == fv2
        assert trained_filter.score(fv1) == again.score(fv2)

    def test_nul_in_training_text_round_trips(self, tmp_path, starter_lexicon):
        parallel = [(f"学生は\x00新聞を{i}回読む。", f"学生读了\x00{i}次报纸。") for i in range(12)]
        seg_ja = make_segmenter(starter_lexicon, LanguageTag.JA)
        seg_zh = make_segmenter(starter_lexicon, LanguageTag.ZH)
        trained = train_filter(parallel, starter_lexicon, seg_ja, seg_zh, trees=3, depth=3)
        path = tmp_path / "model.json"
        trained.save(path)
        again = BitextFilter.load(path)
        assert dump(again.lm_ja) == dump(trained.lm_ja)
        assert dump(again.lm_zh) == dump(trained.lm_zh)
        rows = [(ja, zh, seg_ja(ja), seg_zh(zh)) for ja, zh in parallel[:1]]
        assert again.features(rows, starter_lexicon) == trained.features(rows, starter_lexicon)

    def test_load_does_not_copy_the_parsed_model(self, tmp_path, trained_filter):
        path = tmp_path / "model.json"
        trained_filter.save(path)
        tracemalloc.start()
        try:
            again = BitextFilter.load(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # What the load held beyond the filter it returns, against the
        # file's size: a load that reads the file whole, or parses it
        # into objects, holds more than the file on top of the model.
        assert peak - retained < path.stat().st_size
        # The loaded language models hold the trained ones' arrays, the
        # denominators included, bit for bit.
        for lm, trained in ((again.lm_ja, trained_filter.lm_ja),
                            (again.lm_zh, trained_filter.lm_zh)):
            for level, trained_level in zip(lm.levels, trained.levels, strict=True):
                for array, trained_array in zip(level, trained_level):
                    assert array.dtype == trained_array.dtype
                    assert array.tobytes() == trained_array.tobytes()

    def test_file_with_seed_and_threshold_scores_the_same(
        self, tmp_path, trained_filter, starter_lexicon
    ):
        """A header that also holds a ``seed`` and a ``threshold``, which
        model files once carried, loads to the same model."""
        path = tmp_path / "model.json"
        trained_filter.save(path)
        header, rest = split_file(path)
        assert "seed" not in header and "threshold" not in header
        old = tmp_path / "old.json"
        join_file(old, {**header, "seed": 7, "threshold": 0.9}, rest)
        again = BitextFilter.load(old)
        again.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        ja, zh = "学生は新聞を読む。", "学生读报纸。"
        [fv] = trained_filter.features([(ja, zh, list(ja), list(zh))], starter_lexicon)
        assert again.features([(ja, zh, list(ja), list(zh))], starter_lexicon) == [fv]
        assert again.score(fv) == trained_filter.score(fv)

    def test_version_check(self, tmp_path, trained_filter):
        bad = tmp_path / "bad.json"
        trained_filter.save(bad)
        header, rest = split_file(bad)
        join_file(bad, {**header, "version": 99}, rest)
        with pytest.raises(ValueError, match="unsupported filter model version: 99"):
            BitextFilter.load(bad)

    def test_file_layout(self, tmp_path, trained_filter):
        """One ASCII header line, then the arrays back to back, in the
        order of the sections and of each component's arrays."""
        path = tmp_path / "model.json"
        trained_filter.save(path)
        header, rest = split_file(path)
        assert path.read_bytes().startswith(modelfile.MAGIC + b'{"arrays": ')
        assert header["version"] == 3
        entries = header["arrays"]
        assert [e["section"] for e in entries] == sorted(
            (e["section"] for e in entries), key=filtering.SECTIONS.index)
        end = 0
        for entry in entries:
            assert entry["offset"] == end and entry["dtype"] in modelfile.DTYPES
            end += entry["count"] * np.dtype(entry["dtype"]).itemsize
        assert end == len(rest)
        sections = read_sections(path)
        for name in filtering.SECTIONS:
            scalars, arrays = getattr(trained_filter, name).to_arrays()
            assert sections[name][0] == scalars
            assert list(sections[name][1]) == list(arrays)

    @pytest.mark.parametrize("fault", FAULTS, ids=list(FAULTS))
    def test_hostile_file_is_one_value_error(self, tmp_path, trained_filter, fault):
        path = tmp_path / "model.json"
        trained_filter.save(path)
        make, message = FAULTS[fault]
        make(path)
        with pytest.raises(ValueError, match=message) as caught:
            BitextFilter.load(path)
        assert "\n" not in str(caught.value)

    def test_arrays_out_of_place_are_rejected(self, tmp_path, trained_filter):
        path = tmp_path / "model.json"
        trained_filter.save(path)
        header, rest = split_file(path)
        edits = {
            "starts at byte 8, not 0": lambda h: h["arrays"][0].update(offset=8),
            "'table_j2z.sources' is repeated": lambda h: h["arrays"][1].update(name="sources"),
            "in no section of the filter": lambda h: h["arrays"][0].update(section="extra"),
            "count that is not a non-negative integer": lambda h: h["arrays"][0].update(
                count=-1),
            "section 'lm_zh' is missing or not an object": lambda h: h.update(lm_zh=[]),
            "'arrays' is not a list": lambda h: h.update(arrays={}),
        }
        for message, edit in edits.items():
            edited = json.loads(json.dumps(header))
            edit(edited)
            join_file(path, edited, rest)
            with pytest.raises(ValueError, match=message):
                BitextFilter.load(path)

    @settings(max_examples=8, deadline=None)
    @given(
        corpus=st.lists(
            st.tuples(st.text(alphabet="学生新聞読む本。😀\x00", min_size=1, max_size=8),
                      st.text(alphabet="学生读报纸书。😀\x00", min_size=1, max_size=8)),
            min_size=10, max_size=14),
        seed=st.integers(0, 3),
    )
    def test_train_save_load_save_is_byte_identical(self, starter_lexicon, corpus, seed):
        seg_ja = make_segmenter(starter_lexicon, LanguageTag.JA)
        seg_zh = make_segmenter(starter_lexicon, LanguageTag.ZH)
        try:
            trained = train_filter(corpus, starter_lexicon, seg_ja, seg_zh, trees=3, depth=3,
                                   seed=seed)
        except ValueError:  # a corpus with one label, say
            return
        again_trained = train_filter(corpus, starter_lexicon, seg_ja, seg_zh, trees=3, depth=3,
                                     seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            first, second, third = (Path(tmp) / name for name in ("a", "b", "c"))
            trained.save(first)
            again_trained.save(second)
            assert first.read_bytes() == second.read_bytes()  # two trainings
            loaded = BitextFilter.load(first)
            loaded.save(third)
            assert third.read_bytes() == first.read_bytes()
        rows = [(ja, zh, seg_ja(ja), seg_zh(zh)) for ja, zh in corpus]
        features = trained.features(rows, starter_lexicon)
        assert loaded.features(rows, starter_lexicon) == features
        assert loaded.score_batch(features) == trained.score_batch(features)


class TestRawRows:
    @pytest.mark.parametrize("row,message", [
        ({"zh": "你好"}, "lacks the key 'ja'"),
        ({"ja": "こんにちは"}, "lacks the key 'zh'"),
        ({"ja": 5, "zh": "你好"}, "'ja' is a int, not a string"),
        ({"ja": "こんにちは", "zh": None}, "'zh' is a NoneType, not a string"),
        ({"ja": "a", "zh": "b", "doc_score": [1]}, "'doc_score' is not a number"),
        ({"ja": "a", "zh": "b", "bead_cost": "x"}, "'bead_cost' is not a number"),
    ], ids=["no-ja", "no-zh", "int-ja", "null-zh", "list-score", "string-cost"])
    def test_malformed_row_is_one_value_error(self, row, message):
        with pytest.raises(ValueError, match=message):
            CorpusRecord.from_raw_json(row)

    def test_row_round_trips(self):
        record = CorpusRecord(ja="日本", zh="日本", src_url_ja="u", doc_score=0.5, bead_cost=1.25)
        again = CorpusRecord.from_raw_json(record.to_raw_json())
        assert again.to_raw_json() == record.to_raw_json()


class TestTrainFilter:
    PARALLEL = [
        (f"学生は新聞を{i}回読む。", f"学生读了{i}次报纸。") for i in range(12)
    ] + [("今日は晴れ。", "今天晴。")]

    def test_each_training_sentence_segmented_once(self, monkeypatch, starter_lexicon):
        calls = {"ja": 0, "zh": 0}
        seg_ja = make_segmenter(starter_lexicon, LanguageTag.JA)
        seg_zh = make_segmenter(starter_lexicon, LanguageTag.ZH)

        def counting(lang, segment):
            def wrapped(text):
                calls[lang] += 1
                return segment(text)
            return wrapped

        seen = []
        real_extract = filtering.extract_features

        def recording(pairs, *models):
            seen.extend(pairs)
            return real_extract(pairs, *models)

        monkeypatch.setattr(filtering, "extract_features", recording)
        train_filter(
            self.PARALLEL, starter_lexicon,
            counting("ja", seg_ja), counting("zh", seg_zh), trees=3, depth=3,
        )
        assert calls == {"ja": len(self.PARALLEL), "zh": 2 * len(self.PARALLEL)}
        # The reused tokens are the ones a fresh segmentation gives.
        assert len(seen) == 2 * len(self.PARALLEL)
        for ja, zh, tokens_ja, tokens_zh in seen:
            assert tokens_ja == seg_ja(ja)
            assert tokens_zh == seg_zh(zh)

    @pytest.mark.parametrize("setting, message", [
        ({"trees": 0}, "at least one tree"),
        ({"depth": 0}, "depth of at least 1"),
    ])
    def test_settings_checked_before_any_training(self, monkeypatch, starter_lexicon,
                                                  setting, message):
        def untouched(*args, **kwargs):
            raise AssertionError("training ran before the settings were checked")

        monkeypatch.setattr(filtering, "train_model1", untouched)
        with pytest.raises(ValueError, match=message):
            train_filter(self.PARALLEL, starter_lexicon, untouched, untouched, **setting)


def test_cosine_similarity_basics():
    assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([0, 0], [1, 0]) == 0.0
