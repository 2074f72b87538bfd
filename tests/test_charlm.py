import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.charlm import BOS, DEFAULT_ADD_K, DEFAULT_ORDER, EOS, CharLM, lm_score, train_char_lm


class TestTrainCharLM:
    def test_add_k_hand_arithmetic(self):
        # corpus ["ab"], n=2, k=1, V={a,b}: p(b|a) = (1+1)/(1+|V|+1)
        lm = train_char_lm(["ab"], n=2, k=1.0)
        assert lm.prob("b", "a") == pytest.approx(2 / 4)
        assert lm.prob("a", "a") == pytest.approx(1 / 4)
        assert lm.prob(EOS, "b") == pytest.approx(2 / 4)

    def test_context_distributions_sum_to_one(self):
        lm = train_char_lm(["こんにちは", "こんばんは", "さようなら"], n=3, k=0.1)
        for context in ("こん", "さよ", "んば", "□□"):
            total = sum(lm.prob(ch, context) for ch in lm.vocabulary | {EOS})
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_in_domain_beats_out_of_domain(self):
        in_domain = ["学生は新聞を読む。"] * 5 + ["今日は晴れです。"] * 5
        out_domain = ["全然違う話題の文である。"] * 10
        lm_in = train_char_lm(in_domain, n=3, k=0.1)
        lm_out = train_char_lm(out_domain, n=3, k=0.1)
        probe = "学生は新聞を読む。"
        assert lm_score(lm_in, probe) > lm_score(lm_out, probe)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            train_char_lm(["ab"], n=1)
        with pytest.raises(ValueError):
            train_char_lm(["ab"], n=8)
        with pytest.raises(ValueError):
            train_char_lm(["ab"], k=0.0)
        with pytest.raises(ValueError):
            train_char_lm([], n=3)
        with pytest.raises(ValueError):
            train_char_lm(["", ""], n=3)


class TestLmScore:
    def test_training_text_beats_shuffled_self(self):
        corpus = ["学生は新聞を読む。", "学生は本を読む。", "先生は新聞を読む。"]
        lm = train_char_lm(corpus, n=4, k=0.1)
        text = corpus[0]
        rng = random.Random(3)
        shuffled = list(text)
        rng.shuffle(shuffled)
        assert lm_score(lm, text) > lm_score(lm, "".join(shuffled))

    def test_repeated_character_near_zero(self):
        # Near-deterministic model: every event, the end symbol included,
        # has probability close to one.
        lm = train_char_lm(["ああ"] * 50, n=5, k=0.1)
        assert lm_score(lm, "ああ") > -0.01

    def test_unseen_text_is_finite(self):
        lm = train_char_lm(["abc"], n=3, k=0.5)
        score = lm_score(lm, "完全に未知の文字列")
        assert math.isfinite(score)
        assert score < 0.0

    def test_scores_are_nonpositive(self):
        lm = train_char_lm(["ある日の朝", "あの山の上"], n=3, k=0.1)
        for probe in ("ある日", "山の上", "z", "ある日の朝"):
            assert lm_score(lm, probe) <= 0.0

    def test_empty_text_is_error(self):
        lm = train_char_lm(["ab"], n=2, k=1.0)
        with pytest.raises(ValueError):
            lm_score(lm, "")


# The tuple-context model that string contexts replaced, kept verbatim
# as the oracle: a context was a tuple of characters in memory and its
# symbols joined by NUL on disk.
@dataclass
class TupleCharLM:
    n: int = DEFAULT_ORDER
    k: float = DEFAULT_ADD_K
    vocabulary: set[str] = field(default_factory=set)
    # counts[m] maps an m-character context to {next_char: count}.
    counts: list[dict[tuple[str, ...], dict[str, int]]] = field(default_factory=list)

    @property
    def alphabet_size(self) -> int:
        return len(self.vocabulary) + 1  # +1: end/unknown slot

    def prob(self, char: str, context: Sequence[str]) -> float:
        """Add-k probability of ``char`` after ``context``, backing off to
        shorter contexts and finally to the uniform distribution."""
        for m in range(self.n - 1, 0, -1):
            ctx = tuple(context[-m:]) if m <= len(context) else None
            if ctx is None or len(ctx) < m:
                continue
            row = self.counts[m].get(ctx)
            if row is None:
                continue
            total = sum(row.values())
            return (row.get(char, 0) + self.k) / (total + self.k * self.alphabet_size)
        row = self.counts[0].get(())
        if row:
            total = sum(row.values())
            return (row.get(char, 0) + self.k) / (total + self.k * self.alphabet_size)
        return 1.0 / self.alphabet_size


def tuple_train_char_lm(corpus: Iterable[str], n: int = DEFAULT_ORDER,
                        k: float = DEFAULT_ADD_K) -> TupleCharLM:
    """Count padded character n-grams of every order up to ``n``."""
    if not (2 <= n <= 7):
        raise ValueError("order must be in [2, 7]")
    if k <= 0:
        raise ValueError("smoothing constant must be positive")
    strings = [s for s in corpus if s]
    if not strings:
        raise ValueError("empty corpus")
    lm = TupleCharLM(n=n, k=k, counts=[{} for _ in range(n)])
    for text in strings:
        lm.vocabulary.update(text)
        symbols = [BOS] * (n - 1) + list(text) + [EOS]
        for pos in range(n - 1, len(symbols)):
            char = symbols[pos]
            for m in range(n):
                ctx = tuple(symbols[pos - m : pos])
                row = lm.counts[m].setdefault(ctx, {})
                row[char] = row.get(char, 0) + 1
    return lm


def tuple_lm_score(lm: TupleCharLM, text: str) -> float:
    """Mean log-probability per character, end symbol included (<= 0)."""
    if not text:
        raise ValueError("empty text")
    symbols = [BOS] * (lm.n - 1) + list(text) + [EOS]
    total = 0.0
    events = 0
    for pos in range(lm.n - 1, len(symbols)):
        context = symbols[pos - lm.n + 1 : pos]
        total += math.log(lm.prob(symbols[pos], context))
        events += 1
    return total / events


def tuple_lm_to_json(lm: TupleCharLM) -> dict:
    return {
        "n": lm.n,
        "k": lm.k,
        "vocabulary": sorted(lm.vocabulary),
        "counts": [
            [["\x00".join(ctx), row] for ctx, row in sorted(level.items())]
            for level in lm.counts
        ],
    }


_SYMBOLS = st.sampled_from(list("あいうかがー日本語学生ab .Z") + ["\x00"])
_TEXT = st.text(alphabet=_SYMBOLS, min_size=1, max_size=12)


class TestTupleOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(_TEXT, min_size=1, max_size=6),
        probes=st.lists(_TEXT, min_size=1, max_size=4),
        n=st.integers(min_value=2, max_value=7),
        k=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    )
    def test_string_contexts_agree_with_tuple_contexts(self, corpus, probes, n, k):
        lm = train_char_lm(corpus, n=n, k=k)
        ref = tuple_train_char_lm(corpus, n=n, k=k)
        assert lm.to_json() == tuple_lm_to_json(ref)
        for text in corpus + probes:
            assert lm_score(lm, text) == tuple_lm_score(ref, text)
        # Contexts of every length, shorter than n - 1 included, back off
        # the same way.
        probe = probes[0]
        for start in range(len(probe) + 1):
            context = probe[start:]
            for char in probe + EOS:
                assert lm.prob(char, context) == ref.prob(char, list(context))
        # Scoring built the denominator table; the model itself is as
        # it was.
        assert "denominators" in vars(lm)
        assert lm.to_json() == tuple_lm_to_json(ref)


class TestSerialization:
    CORPUS = ["a\x00b", "b\x00c\x00", "\x00\x00", "abc"]

    def test_nul_contexts_round_trip_exactly(self):
        lm = train_char_lm(self.CORPUS, n=3, k=0.1)
        again = CharLM.from_json(json.loads(json.dumps(lm.to_json())))
        assert again.counts == lm.counts
        assert again.vocabulary == lm.vocabulary
        assert (again.n, again.k) == (lm.n, lm.k)
        for probe in ("b\x00c", "\x00", "abc", "未知"):
            assert lm_score(again, probe) == lm_score(lm, probe)

    def test_from_json_rejects_what_training_cannot_make(self):
        obj = train_char_lm(self.CORPUS, n=3, k=0.1).to_json()
        assert CharLM.from_json(obj).to_json() == obj
        bad = [
            {**obj, "counts": obj["counts"][:2]},  # fewer count levels than the order
            {**obj, "counts": obj["counts"] + [[]]},
            {**obj, "n": 1, "counts": obj["counts"][:1]},
            {**obj, "n": 8, "counts": (obj["counts"] * 3)[:8]},
            {**obj, "k": 0.0},
            {**obj, "k": -0.1},
            {**obj, "k": float("nan")},
            # a negative count in a row whose total is still positive
            {**obj, "counts": [obj["counts"][0], [["a", {"a": 3, "b": -1}]], obj["counts"][2]]},
        ]
        for broken in bad:
            with pytest.raises(ValueError):
                CharLM.from_json(broken)

    def test_missing_order_zero_row_is_uniform(self):
        lm = CharLM(n=2, k=0.1, vocabulary={"a", "b"}, counts=[{}, {"a": {"b": 3}}])
        assert lm.prob("b", "a") == pytest.approx(3.1 / 3.3)
        assert lm.prob("a", "b") == 1.0 / 3


# ``train_char_lm``'s per-position loop, which the one-pass n-gram count
# replaced, kept verbatim as the oracle.
def reference_train_char_lm(corpus: Iterable[str], n: int = DEFAULT_ORDER,
                            k: float = DEFAULT_ADD_K) -> CharLM:
    """Count padded character n-grams of every order up to ``n``."""
    strings = [s for s in corpus if s]
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


# Padding and end symbols inside the text, NUL, and characters outside
# the Basic Multilingual Plane.
_HOSTILE = st.text(
    alphabet=st.sampled_from(list("あい日本ab.") + [BOS, EOS, "\x00", "😀", "𠀋", "𝕏"]),
    max_size=14,
)


class TestLoopOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(_HOSTILE, min_size=1, max_size=8).filter(any),
        n=st.integers(min_value=2, max_value=7),
        k=st.sampled_from([0.05, 0.1, 1.0]),
    )
    def test_one_pass_count_equals_the_position_loop(self, corpus, n, k):
        lm = train_char_lm(corpus, n=n, k=k)
        ref = reference_train_char_lm(corpus, n=n, k=k)
        assert lm.counts == ref.counts
        assert lm.vocabulary == ref.vocabulary
        assert json.dumps(lm.to_json(), sort_keys=True) == json.dumps(ref.to_json(), sort_keys=True)
        for text in corpus + ["未知😀", BOS + EOS]:
            if text:
                assert lm_score(lm, text) == lm_score(ref, text)
