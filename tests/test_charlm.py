import json
import math
import operator
import random
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine import charlm
from localmine.charlm import (
    BOS,
    DEFAULT_ADD_K,
    DEFAULT_ORDER,
    EOS,
    lm_score,
    lm_scores,
    train_char_lm,
)
from localmine.columns import to_columns

# The model under test.  ``CharLM`` in this module is the nested-dict
# model the arrays replaced (below), the container the kept oracle
# ``reference_train_char_lm`` fills.
ArrayLM = charlm.CharLM


class TestTrainCharLM:
    def test_add_k_hand_arithmetic(self):
        # corpus ["ab"], n=2, k=1, V={a,b}: each order-1 row holds one
        # count, so its denominator is 1 + k * (|V| + 1) = 4 and
        # p(b|a) = (1+1)/4, p(a|a) = (0+1)/4, p(EOS|b) = (1+1)/4.
        lm = train_char_lm(["ab"], n=2, k=1.0)
        assert lm.to_json()["levels"][1] == {
            "contexts": [BOS, "a", "b"], "row_lengths": [1, 1, 1],
            "chars": "ab" + EOS, "counts": [1, 1, 1],
        }
        # "ab": p(a|BOS) p(b|a) p(EOS|b); "aa": p(a|BOS) p(a|a) p(EOS|a)
        assert lm_score(lm, "ab") == pytest.approx(math.log(2 / 4))
        assert lm_score(lm, "aa") == pytest.approx(math.log(2 / 4 * 1 / 4 * 1 / 4) / 3)

    def test_context_distributions_sum_to_one(self):
        # The saved model's distributions, read back by the tuple oracle,
        # which scores the same bits as the model (TestTupleOracle).
        lm = train_char_lm(["こんにちは", "こんばんは", "さようなら"], n=3, k=0.1)
        oracle = tuple_lm_from_json(lm.to_json())
        for context in ("こん", "さよ", "んば", "□□"):
            total = sum(oracle.prob(ch, list(context)) for ch in lm.vocabulary | {EOS})
            assert total == pytest.approx(1.0, abs=1e-6)
        probes = ["こんにちは", "さよなら", "□□"]
        assert lm_scores(lm, probes) == [tuple_lm_score(oracle, text) for text in probes]

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
        with pytest.raises(ValueError, match="empty text"):
            lm_scores(lm, ["ab", ""])

    def test_batch_scores_each_text_on_its_own(self):
        # A batch spanning several blocks of positions scores each text
        # as one call for that text alone would.
        lm = train_char_lm(["学生は新聞を読む。", "今日は晴れ。"], n=4, k=0.1)
        rng = random.Random(5)
        texts = ["".join(rng.choice("学生は新聞を読む。今日晴れ😀") for _ in range(rng.randint(1, 60)))
                 for _ in range(1200)]
        assert sum(len(text) + lm.n for text in texts) > 2 * charlm._BLOCK_POSITIONS
        batch = lm_scores(lm, texts)
        assert [score.hex() for score in batch] == [lm_score(lm, t).hex() for t in texts]
        assert lm_scores(lm, []) == []

    def test_left_fold_of_math_log(self):
        # This text's per-position logs sum to three different values as
        # a left fold, under math.fsum and under numpy's pairwise sum;
        # a score is the left fold's mean, as a loop over the positions
        # makes it.
        corpus = ["学生は新聞を読む。", "学生は本を読む。", "先生は新聞を読む。"]
        text = "読読学聞。む読聞むを本新。は"
        oracle = tuple_train_char_lm(corpus, n=3, k=0.1)
        symbols = [BOS] * 2 + list(text) + [EOS]
        logs = [math.log(oracle.prob(symbols[pos], symbols[pos - 2 : pos]))
                for pos in range(2, len(symbols))]
        fold = reduce(operator.add, logs, 0.0) / len(logs)
        assert fold != math.fsum(logs) / len(logs)
        assert fold != float(np.sum(logs)) / len(logs)
        lm = train_char_lm(corpus, n=3, k=0.1)
        assert lm_score(lm, text).hex() == fold.hex()

    def test_each_position_logged_by_math_log(self):
        # p(b|a) = (5 + k) / (78 + k * 10): numpy 2.4's log on x86-64
        # rounds this one to the float next to math.log's, and the two
        # near-certain events around it keep that last bit in the score.
        obj = {"n": 2, "k": 0.1, "vocabulary": list("abcdefghi"), "levels": [
            {"contexts": [""], "row_lengths": [1], "chars": "a", "counts": [1]},
            {"contexts": [BOS, "a", "b"], "row_lengths": [1, 2, 1], "chars": "abc" + EOS,
             "counts": [1000, 5, 73, 1000]},
        ]}
        probs = [(1000 + 0.1) / (1000 + 0.1 * 10), (5 + 0.1) / (78 + 0.1 * 10),
                 (1000 + 0.1) / (1000 + 0.1 * 10)]
        fold = reduce(operator.add, map(math.log, probs), 0.0) / 3
        assert lm_score(ArrayLM.from_json(obj), "ab").hex() == fold.hex()


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


def tuple_lm_from_json(obj: dict) -> TupleCharLM:
    """The tuple model of a ``to_json`` object (``tuple_lm_to_json``'s
    inverse)."""
    lm = TupleCharLM(n=obj["n"], k=obj["k"], vocabulary=set(obj["vocabulary"]))
    for level in obj["levels"]:
        rows: dict[tuple[str, ...], dict[str, int]] = {}
        entries = iter(zip(level["chars"], level["counts"]))
        for context, length in zip(level["contexts"], level["row_lengths"]):
            rows[tuple(context)] = dict(next(entries) for _ in range(length))
        lm.counts.append(rows)
    return lm


def tuple_lm_to_json(lm: TupleCharLM) -> dict:
    """The tuple model in the column layout ``CharLM.to_json`` writes."""
    levels = []
    for level in lm.counts:
        rows = sorted(("".join(ctx), sorted(row.items())) for ctx, row in level.items())
        levels.append({
            "contexts": [ctx for ctx, _ in rows],
            "row_lengths": [len(row) for _, row in rows],
            "chars": "".join(char for _, row in rows for char, _ in row),
            "counts": [count for _, row in rows for _, count in row],
        })
    return {"n": lm.n, "k": lm.k, "vocabulary": sorted(lm.vocabulary), "levels": levels}


_SYMBOLS = st.sampled_from(list("あいうかがー日本語学生ab .Z") + ["\x00"])
_TEXT = st.text(alphabet=_SYMBOLS, min_size=1, max_size=12)

# The padding and end symbols, NUL, characters outside the Basic
# Multilingual Plane and a lone surrogate in training text; probes add
# characters no model saw.
_ORACLE_SYMBOLS = list("あい日本ab.") + [BOS, EOS, "\x00", "😀", "𠀋", "\ud800"]
_ORACLE_TEXT = st.text(alphabet=st.sampled_from(_ORACLE_SYMBOLS), max_size=14)
_ORACLE_PROBE = st.text(alphabet=st.sampled_from(_ORACLE_SYMBOLS + ["未", "𝕏", "\udfff"]),
                        min_size=1, max_size=14)


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
        # Scoring leaves the model as it was.
        assert lm.to_json() == tuple_lm_to_json(ref)

    @settings(max_examples=300, deadline=None)
    @given(
        corpus=st.lists(_ORACLE_TEXT, min_size=1, max_size=8).filter(any),
        probes=st.lists(_ORACLE_PROBE, min_size=1, max_size=6),
        n=st.integers(min_value=2, max_value=7),
        k=st.sampled_from([0.01, 0.1, 0.5, 1.0, 2.5]),
    )
    def test_batch_scores_are_the_oracle_bits(self, corpus, probes, n, k):
        # The trained model and the model saved and loaded again score a
        # whole batch, the corpus and unseen text, to the oracle's bits.
        ref = tuple_train_char_lm(corpus, n=n, k=k)
        texts = [text for text in corpus if text] + probes
        expected = [tuple_lm_score(ref, text).hex() for text in texts]
        lm = train_char_lm(corpus, n=n, k=k)
        loaded = ArrayLM.from_json(json.loads(json.dumps(lm.to_json())))
        assert [score.hex() for score in lm_scores(lm, texts)] == expected
        assert [score.hex() for score in lm_scores(loaded, texts)] == expected

    @settings(max_examples=100, deadline=None)
    @given(
        vocabulary=st.sets(st.sampled_from(_ORACLE_SYMBOLS)),
        probes=st.lists(_ORACLE_PROBE, min_size=1, max_size=4),
        n=st.integers(min_value=2, max_value=7),
        k=st.sampled_from([0.1, 1.0]),
    )
    def test_model_with_every_level_empty(self, vocabulary, probes, n, k):
        obj = {"n": n, "k": k, "vocabulary": sorted(vocabulary),
               "levels": [{"contexts": [], "row_lengths": [], "chars": "", "counts": []}] * n}
        ref = TupleCharLM(n=n, k=k, vocabulary=set(vocabulary), counts=[{} for _ in range(n)])
        scores = lm_scores(ArrayLM.from_json(obj), probes)
        assert [score.hex() for score in scores] == [tuple_lm_score(ref, t).hex() for t in probes]


class TestSerialization:
    CORPUS = ["a\x00b", "b\x00c\x00", "\x00\x00", "abc"]

    def test_nul_contexts_round_trip_exactly(self):
        lm = train_char_lm(self.CORPUS, n=3, k=0.1)
        again = ArrayLM.from_json(json.loads(json.dumps(lm.to_json())))
        assert again.to_json() == lm.to_json()
        assert again.vocabulary == lm.vocabulary
        assert (again.n, again.k) == (lm.n, lm.k)
        for probe in ("b\x00c", "\x00", "abc", "未知"):
            assert lm_score(again, probe) == lm_score(lm, probe)

    def test_from_json_rejects_what_training_cannot_make(self):
        obj = train_char_lm(self.CORPUS, n=3, k=0.1).to_json()
        assert ArrayLM.from_json(obj).to_json() == obj
        level1 = obj["levels"][1]
        bad = [
            {**obj, "levels": obj["levels"][:2]},  # fewer count levels than the order
            {**obj, "levels": obj["levels"] + [obj["levels"][0]]},
            {**obj, "n": 1, "levels": obj["levels"][:1]},
            {**obj, "n": 8, "levels": (obj["levels"] * 3)[:8]},
            {**obj, "k": 0.0},
            {**obj, "k": -0.1},
            {**obj, "k": float("nan")},
            # a negative count in a row whose total is still positive
            {**obj, "levels": [obj["levels"][0],
                               {**level1, "counts": [3, -1] + level1["counts"][2:]},
                               obj["levels"][2]]},
        ]
        assert level1["row_lengths"][0] >= 2  # the negative count shares its row
        for broken in bad:
            with pytest.raises(ValueError):
                ArrayLM.from_json(broken)

    def test_missing_order_zero_row_is_uniform(self):
        # Without the empty context no context has a prefix in order 0,
        # so a model that lacks it holds no row at all, and every event
        # falls to the uniform distribution over a, b and the end slot.
        empty = {"contexts": [], "row_lengths": [], "chars": "", "counts": []}
        row_a = {"contexts": ["a"], "row_lengths": [1], "chars": "b", "counts": [3]}
        with pytest.raises(ValueError, match="are not a context"):
            ArrayLM.from_json({"n": 2, "k": 0.1, "vocabulary": ["a", "b"],
                               "levels": [empty, row_a]})
        lm = ArrayLM.from_json({"n": 2, "k": 0.1, "vocabulary": ["a", "b"],
                                "levels": [empty, empty]})
        assert lm_scores(lm, ["ab", "未"]) == [math.log(1.0 / 3)] * 2


# The nested-dict model the arrays replaced: ``counts[m]`` maps an
# m-character context to {next_char: count}.  Kept as the container
# ``reference_train_char_lm`` fills; ``to_json`` is its column writer.
@dataclass
class CharLM:
    n: int = DEFAULT_ORDER
    k: float = DEFAULT_ADD_K
    vocabulary: set[str] = field(default_factory=set)
    counts: list[dict[str, dict[str, int]]] = field(default_factory=list)

    def to_json(self) -> dict:
        levels = []
        for level in self.counts:
            contexts, row_lengths, chars, counts = to_columns(level)
            levels.append({"contexts": contexts, "row_lengths": row_lengths,
                           "chars": "".join(chars), "counts": counts})
        return {"n": self.n, "k": self.k, "vocabulary": sorted(self.vocabulary),
                "levels": levels}


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
        assert lm.vocabulary == ref.vocabulary
        assert json.dumps(lm.to_json(), sort_keys=True) == json.dumps(ref.to_json(), sort_keys=True)
        loaded = ArrayLM.from_json(ref.to_json())
        texts = [text for text in corpus if text] + ["未知😀", BOS + EOS]
        assert lm_scores(lm, texts) == lm_scores(loaded, texts)


# Text that the column layout must carry exactly: NUL, the padding and
# end symbols, other control characters, JSON's escaped characters and
# characters outside the Basic Multilingual Plane.
_COLUMN_TEXT = st.text(
    alphabet=st.sampled_from(
        list("あい日本ab") + [BOS, EOS, "\x00", "\x01", "\x1f", "\x7f", "\n", "\t", '"',
                              "\\", " ", "😀", "𠀋", "𝕏"]
    ),
    max_size=12,
)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestColumns:
    """The column layout of a saved language model (model version 2)."""

    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(_COLUMN_TEXT, min_size=1, max_size=8).filter(any),
        probes=st.lists(_COLUMN_TEXT.filter(bool), min_size=1, max_size=4),
        n=st.integers(min_value=2, max_value=7),
        k=st.sampled_from([0.001, 0.1, 0.3, 1.0, 2.5]),
    )
    def test_round_trip_through_json_text(self, corpus, probes, n, k):
        lm = train_char_lm(corpus, n=n, k=k)
        text = json.dumps(lm.to_json(), ensure_ascii=False, sort_keys=True)
        again = ArrayLM.from_json(json.loads(text))
        assert (again.n, again.k, again.vocabulary) == (lm.n, lm.k, lm.vocabulary)
        # Every array, the denominators included, bit for bit.
        for loaded, trained in zip(again.levels, lm.levels, strict=True):
            for name, array in loaded._asdict().items():
                assert array.dtype == getattr(trained, name).dtype
                assert array.tobytes() == getattr(trained, name).tobytes(), name
        texts = [t for t in corpus if t] + probes
        assert _bits(lm_scores(again, texts)) == _bits(lm_scores(lm, texts))
        assert json.dumps(again.to_json(), ensure_ascii=False, sort_keys=True) == text

    def test_rows_in_any_order_load_to_the_sorted_model(self):
        obj = train_char_lm(["日本語の文。", "日本の語。", "😀日本"], n=3, k=0.1).to_json()
        level = obj["levels"][2]
        rows, start = [], 0
        for context, length in zip(level["contexts"], level["row_lengths"]):
            end = start + length
            rows.append((context, length, level["chars"][start:end][::-1],
                         level["counts"][start:end][::-1]))
            start = end
        rows.reverse()
        shuffled = {"contexts": [r[0] for r in rows], "row_lengths": [r[1] for r in rows],
                    "chars": "".join(r[2] for r in rows),
                    "counts": [c for r in rows for c in r[3]]}
        assert shuffled != level
        again = ArrayLM.from_json({**obj, "levels": obj["levels"][:2] + [shuffled]})
        assert again.to_json() == obj

    @pytest.mark.parametrize("corrupt,message", [
        (lambda lv: lv["contexts"].pop(), "row names but"),
        (lambda lv: lv.update(chars=lv["chars"][:-1]), "entries hold"),
        (lambda lv: lv["counts"].pop(), "entries hold"),
        (lambda lv: lv["row_lengths"].__setitem__(0, lv["row_lengths"][0] + 1), "entries hold"),
        (lambda lv: lv["row_lengths"].__setitem__(0, 0), "row length is not positive"),
        (lambda lv: lv["row_lengths"].__setitem__(0, 1.0), "'row_lengths' is not a list of int"),
        (lambda lv: lv["row_lengths"].__setitem__(0, True), "'row_lengths' is not a list of int"),
        (lambda lv: lv["counts"].__setitem__(0, -1), "negative count"),
        (lambda lv: lv["counts"].__setitem__(0, 2.0), "'counts' is not a list of int"),
        (lambda lv: lv["counts"].__setitem__(0, True), "'counts' is not a list of int"),
        (lambda lv: lv["counts"].__setitem__(0, "2"), "'counts' is not a list of int"),
        (lambda lv: lv.update(counts=[0] * len(lv["counts"])), "total 0"),
        (lambda lv: lv["contexts"].__setitem__(0, 1), "'contexts' is not a list of str"),
        (lambda lv: lv.update(chars=list(lv["chars"])), "chars is a list, not a string"),
        (lambda lv: lv.pop("counts"), "'counts' is not a list"),
        (lambda lv: lv["contexts"].__setitem__(1, lv["contexts"][0]), "row name is repeated"),
        (lambda lv: lv.update(chars=lv["chars"][0] * len(lv["chars"])), "repeated within a row"),
        # the first row's last character written at its other end too
        (lambda lv: lv.update(chars=lv["chars"][2] + lv["chars"][1:]), "repeated within a row"),
        (lambda lv: lv["contexts"].__setitem__(0, lv["contexts"][0] * 2), "not 1 characters long"),
        (lambda lv: lv["contexts"].__setitem__(0, ""), "not 1 characters long"),
        (lambda lv: lv["counts"].__setitem__(0, 2**63), "do not fit in int64"),
        (lambda lv: lv["counts"].__setitem__(slice(0, 2), [2**62, 2**62]), "do not fit in int64"),
    ], ids=["contexts-short", "chars-short", "counts-short", "row-length-long", "zero-row-length",
            "float-row-length", "bool-row-length", "negative-count", "float-count", "bool-count",
            "string-count", "zero-total", "context-not-string", "chars-list", "no-counts",
            "repeated-context", "repeated-char", "repeated-char-apart", "long-context",
            "empty-context", "count-past-int64", "row-total-past-int64"])
    def test_malformed_column_is_rejected(self, corrupt, message):
        corpus = ["日本語の文。", "本の文", "文"]
        obj = json.loads(json.dumps(train_char_lm(corpus, n=3, k=0.1).to_json()))
        level = obj["levels"][1]
        assert len(level["contexts"]) >= 2 and level["row_lengths"][0] == 3
        corrupt(level)
        with pytest.raises(ValueError, match=message):
            ArrayLM.from_json(obj)

    def test_context_whose_prefix_is_not_a_context_is_rejected(self):
        obj = json.loads(json.dumps(train_char_lm(["日本語の文。", "本の文"], n=3, k=0.1).to_json()))
        level = obj["levels"][2]
        assert "未" not in obj["levels"][1]["contexts"]
        level["contexts"][-1] = "未" + level["contexts"][-1][1:]
        with pytest.raises(ValueError, match="first 1 characters of an order-2 context"):
            ArrayLM.from_json(obj)

    @pytest.mark.parametrize("vocabulary,message", [
        (None, "'vocabulary' is not a list of str"),
        ([1, 2], "'vocabulary' is not a list of str"),
        (["ab", "c"], "not one character"),
        (["a", "a"], "character is repeated"),
    ], ids=["null", "ints", "two-characters", "repeated"])
    def test_malformed_vocabulary_is_rejected(self, vocabulary, message):
        obj = train_char_lm(["ab"], n=2, k=0.1).to_json()
        with pytest.raises(ValueError, match=message):
            ArrayLM.from_json({**obj, "vocabulary": vocabulary})
