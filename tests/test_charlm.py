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
    CODE_BITS,
    DEFAULT_ADD_K,
    DEFAULT_ORDER,
    EOS,
    lm_scores,
    train_char_lm,
)

from model_edits import copied, dump, through_bytes

# The model under test.  ``CharLM`` in this module is the nested-dict
# model the arrays replaced (below), the container the kept oracle
# ``reference_train_char_lm`` fills.
ArrayLM = charlm.CharLM


def columns_of(lm: ArrayLM) -> dict:
    """The model in readable columns, per order: its contexts as sorted
    strings, each context's number of continuations, every row's
    continuation characters joined into one string, and their counts."""
    levels = []
    names: list[str] = []
    for level in lm.levels:
        if levels:  # a context is its parent's name and its last symbol
            parents = (level.contexts >> CODE_BITS).tolist()
            names = [names[p] + c for p, c in zip(parents, _symbols(level.contexts))]
        else:
            names = [""] * len(level.contexts)
        levels.append({
            "contexts": names,
            "row_lengths": np.bincount(level.ngrams >> CODE_BITS, minlength=len(names)).tolist(),
            "chars": "".join(_symbols(level.ngrams)),
            "counts": level.counts.tolist(),
        })
    return {"n": lm.n, "k": lm.k, "vocabulary": sorted(lm.vocabulary), "levels": levels}


def _symbols(keys: np.ndarray) -> list[str]:
    return [chr(code) for code in (keys & ((1 << CODE_BITS) - 1)).tolist()]


def lm_from_columns(obj: dict) -> ArrayLM:
    """``ArrayLM.from_arrays`` of the arrays that hold ``columns_of``
    output ``obj``, whose rows are sorted.  A context whose prefix is not
    a context gets the parent row past the order below's last."""
    arrays = {"vocabulary": np.array(sorted(map(ord, obj["vocabulary"])), dtype="<u4")}
    below: dict[str, int] = {}
    for m, level in enumerate(obj["levels"]):
        keys = [below.get(c[:-1], len(below)) << CODE_BITS | ord(c[-1]) if m else 0
                for c in level["contexts"]]
        rows = np.repeat(np.arange(len(keys)), level["row_lengths"])
        arrays[f"level{m}.contexts"] = np.array(keys, dtype="<i8")
        arrays[f"level{m}.ngrams"] = (rows << CODE_BITS
                                      | np.array(list(map(ord, level["chars"])), dtype=np.int64))
        arrays[f"level{m}.counts"] = np.array(level["counts"], dtype="<i8")
        below = {c: row for row, c in enumerate(level["contexts"])}
    return ArrayLM.from_arrays({"n": obj["n"], "k": obj["k"]}, arrays)


class TestTrainCharLM:
    def test_add_k_hand_arithmetic(self):
        # corpus ["ab"], n=2, k=1, V={a,b}: each order-1 row holds one
        # count, so its denominator is 1 + k * (|V| + 1) = 4 and
        # p(b|a) = (1+1)/4, p(a|a) = (0+1)/4, p(EOS|b) = (1+1)/4.
        lm = train_char_lm(["ab"], n=2, k=1.0)
        assert columns_of(lm)["levels"][1] == {
            "contexts": [BOS, "a", "b"], "row_lengths": [1, 1, 1],
            "chars": "ab" + EOS, "counts": [1, 1, 1],
        }
        # "ab": p(a|BOS) p(b|a) p(EOS|b); "aa": p(a|BOS) p(a|a) p(EOS|a)
        assert lm_scores(lm, ["ab"])[0] == pytest.approx(math.log(2 / 4))
        assert lm_scores(lm, ["aa"])[0] == pytest.approx(math.log(2 / 4 * 1 / 4 * 1 / 4) / 3)

    def test_context_distributions_sum_to_one(self):
        # The saved model's distributions, read back by the tuple oracle,
        # which scores the same bits as the model (TestTupleOracle).
        lm = train_char_lm(["こんにちは", "こんばんは", "さようなら"], n=3, k=0.1)
        oracle = tuple_lm_from_json(columns_of(lm))
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
        assert lm_scores(lm_in, [probe])[0] > lm_scores(lm_out, [probe])[0]

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
        assert lm_scores(lm, [text])[0] > lm_scores(lm, ["".join(shuffled)])[0]

    def test_repeated_character_near_zero(self):
        # Near-deterministic model: every event, the end symbol included,
        # has probability close to one.
        lm = train_char_lm(["ああ"] * 50, n=5, k=0.1)
        assert lm_scores(lm, ["ああ"])[0] > -0.01

    def test_unseen_text_is_finite(self):
        lm = train_char_lm(["abc"], n=3, k=0.5)
        score = lm_scores(lm, ["完全に未知の文字列"])[0]
        assert math.isfinite(score)
        assert score < 0.0

    def test_scores_are_nonpositive(self):
        lm = train_char_lm(["ある日の朝", "あの山の上"], n=3, k=0.1)
        for probe in ("ある日", "山の上", "z", "ある日の朝"):
            assert lm_scores(lm, [probe])[0] <= 0.0

    def test_empty_text_is_error(self):
        lm = train_char_lm(["ab"], n=2, k=1.0)
        with pytest.raises(ValueError):
            lm_scores(lm, [""])
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
        assert [score.hex() for score in batch] == [lm_scores(lm, [t])[0].hex() for t in texts]
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
        assert lm_scores(lm, [text])[0].hex() == fold.hex()

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
        assert lm_scores(lm_from_columns(obj), ["ab"])[0].hex() == fold.hex()


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
    """The tuple model of a ``columns_of`` object (``tuple_lm_to_json``'s
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
    """The tuple model in the column layout of ``columns_of``."""
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
        assert columns_of(lm) == tuple_lm_to_json(ref)
        for text in corpus + probes:
            assert lm_scores(lm, [text])[0] == tuple_lm_score(ref, text)
        # Scoring leaves the model as it was.
        assert columns_of(lm) == tuple_lm_to_json(ref)

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
        loaded = through_bytes(lm)
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
        scores = lm_scores(lm_from_columns(obj), probes)
        assert [score.hex() for score in scores] == [tuple_lm_score(ref, t).hex() for t in probes]


class TestSerialization:
    CORPUS = ["a\x00b", "b\x00c\x00", "\x00\x00", "abc"]

    def test_nul_contexts_round_trip_exactly(self):
        lm = train_char_lm(self.CORPUS, n=3, k=0.1)
        again = through_bytes(lm)
        assert dump(again) == dump(lm)
        assert again.vocabulary == lm.vocabulary
        assert (again.n, again.k) == (lm.n, lm.k)
        for probe in ("b\x00c", "\x00", "abc", "未知"):
            assert lm_scores(again, [probe])[0] == lm_scores(lm, [probe])[0]

    def test_from_json_rejects_what_training_cannot_make(self):
        lm = train_char_lm(self.CORPUS, n=3, k=0.1)
        scalars, arrays = lm.to_arrays()
        assert dump(ArrayLM.from_arrays(scalars, copied(arrays))) == dump(lm)
        level2 = {name: a for name, a in arrays.items() if name.startswith("level2.")}
        fewer = {name: a for name, a in arrays.items() if name not in level2}
        extra = {**arrays, **{name.replace("2", "3"): a for name, a in level2.items()}}
        counts = arrays["level1.counts"].copy()
        counts[:2] = [3, -1]
        bad = [
            (scalars, fewer),  # fewer count levels than the order
            (scalars, extra),
            ({**scalars, "n": 1}, {name: a for name, a in arrays.items()
                                   if not name.startswith(("level1", "level2"))}),
            ({**scalars, "n": 8}, arrays),
            ({**scalars, "k": 0.0}, arrays),
            ({**scalars, "k": -0.1}, arrays),
            ({**scalars, "k": float("nan")}, arrays),
            # a negative count in a row whose total is still positive
            (scalars, {**arrays, "level1.counts": counts}),
        ]
        assert (arrays["level1.ngrams"][:2] >> CODE_BITS).tolist() == [0, 0]  # one row
        for broken_scalars, broken in bad:
            with pytest.raises(ValueError):
                ArrayLM.from_arrays(broken_scalars, broken)

    def test_missing_order_zero_row_is_uniform(self):
        # Without the empty context no context has a prefix in order 0,
        # so a model that lacks it holds no row at all, and every event
        # falls to the uniform distribution over a, b and the end slot.
        empty = {"contexts": [], "row_lengths": [], "chars": "", "counts": []}
        row_a = {"contexts": ["a"], "row_lengths": [1], "chars": "b", "counts": [3]}
        with pytest.raises(ValueError, match="are not a context"):
            lm_from_columns({"n": 2, "k": 0.1, "vocabulary": ["a", "b"],
                             "levels": [empty, row_a]})
        lm = lm_from_columns({"n": 2, "k": 0.1, "vocabulary": ["a", "b"],
                              "levels": [empty, empty]})
        assert lm_scores(lm, ["ab", "未"]) == [math.log(1.0 / 3)] * 2


# The nested-dict model the arrays replaced: ``counts[m]`` maps an
# m-character context to {next_char: count}.  Kept as the container
# ``reference_train_char_lm`` fills; ``to_json`` writes it as
# ``columns_of`` does.
@dataclass
class CharLM:
    n: int = DEFAULT_ORDER
    k: float = DEFAULT_ADD_K
    vocabulary: set[str] = field(default_factory=set)
    counts: list[dict[str, dict[str, int]]] = field(default_factory=list)

    def to_json(self) -> dict:
        levels = []
        for level in self.counts:
            rows = sorted((context, sorted(row.items())) for context, row in level.items())
            levels.append({"contexts": [context for context, _ in rows],
                           "row_lengths": [len(row) for _, row in rows],
                           "chars": "".join(char for _, row in rows for char, _ in row),
                           "counts": [count for _, row in rows for _, count in row]})
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
        assert json.dumps(columns_of(lm), sort_keys=True) == \
            json.dumps(ref.to_json(), sort_keys=True)
        loaded = lm_from_columns(ref.to_json())
        texts = [text for text in corpus if text] + ["未知😀", BOS + EOS]
        assert lm_scores(lm, texts) == lm_scores(loaded, texts)


# Text that the arrays must carry exactly: NUL, the padding and end
# symbols, other control characters, JSON's escaped characters and
# characters outside the Basic Multilingual Plane.
_COLUMN_TEXT = st.text(
    alphabet=st.sampled_from(
        list("あい日本ab") + [BOS, EOS, "\x00", "\x01", "\x1f", "\x7f", "\n", "\t", '"',
                              "\\", " ", "😀", "𠀋", "𝕏"]
    ),
    max_size=12,
)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _set(name: str, index, value):
    """A corruption that sets ``arrays[name][index]`` to ``value``."""
    def corrupt(arrays):
        arrays[name][index] = value
    return corrupt


def _replace(name: str, make):
    """A corruption that replaces ``arrays[name]`` with ``make(it)``."""
    def corrupt(arrays):
        arrays[name] = make(arrays[name])
    return corrupt


C, G, N = "level1.contexts", "level1.ngrams", "level1.counts"


class TestColumns:
    """The arrays of a saved language model (model version 3)."""

    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(_COLUMN_TEXT, min_size=1, max_size=8).filter(any),
        probes=st.lists(_COLUMN_TEXT.filter(bool), min_size=1, max_size=4),
        n=st.integers(min_value=2, max_value=7),
        k=st.sampled_from([0.001, 0.1, 0.3, 1.0, 2.5]),
    )
    def test_round_trip_through_json_text(self, corpus, probes, n, k):
        # The scalars through JSON text and the arrays through raw bytes,
        # as a model file carries them.
        lm = train_char_lm(corpus, n=n, k=k)
        again = through_bytes(lm)
        assert (again.n, again.k, again.vocabulary) == (lm.n, lm.k, lm.vocabulary)
        # Every array, the denominators included, bit for bit.
        for loaded, trained in zip(again.levels, lm.levels, strict=True):
            for name, array in loaded._asdict().items():
                assert array.dtype == getattr(trained, name).dtype
                assert array.tobytes() == getattr(trained, name).tobytes(), name
        texts = [t for t in corpus if t] + probes
        assert _bits(lm_scores(again, texts)) == _bits(lm_scores(lm, texts))
        assert dump(again) == dump(lm)

    @pytest.mark.parametrize("corrupt,message", [
        (_replace(C, lambda a: a[:-1]), "order-1 n-gram's context is not a context"),
        (_replace(G, lambda a: a[:-1]), "order-1 n-grams but"),
        (_replace(N, lambda a: a[:-1]), "order-1 n-grams but"),
        (lambda a: a[G].__setitem__(-1, a[G][-1] + (1 << CODE_BITS)),
         "order-1 n-gram's context is not a context"),
        (lambda a: a.update({G: a[G][3:], N: a[N][3:]}), "order-1 context has no n-gram"),
        (_replace(C, lambda a: a.astype("<f8")), "'level1.contexts' is <f8, not <i8"),
        (_replace(G, lambda a: a.astype("|b1")), "'level1.ngrams' is |b1, not <i8"),
        (_set(N, 0, -1), "negative count"),
        (_replace(N, lambda a: a.astype("<f8")), "'level1.counts' is <f8, not <i8"),
        (_replace(N, lambda a: a.astype("|b1")), "'level1.counts' is |b1, not <i8"),
        (_replace(N, lambda a: a.astype("<U1")), "'level1.counts' is <U1, not <i8"),
        (_set(N, slice(None), 0), "total 0"),
        (_set(C, 0, -1), "order-1 contexts hold a negative key"),
        (_replace(G, lambda a: a.astype("<u4")), "'level1.ngrams' is <u4, not <i8"),
        (lambda a: a.pop(N), "level1.counts"),
        (lambda a: a[C].__setitem__(1, a[C][0]), "order-1 contexts are not strictly increasing"),
        (lambda a: a[G].__setitem__(slice(1, 3), a[G][0]),
         "order-1 n-grams are not strictly increasing"),
        # the first row's last character written at its start too
        (lambda a: a[G].__setitem__(0, a[G][2]), "order-1 n-grams are not strictly increasing"),
        (lambda a: a[C].__setitem__(-1, a[C][-1] + (5 << CODE_BITS)),
         "first 0 characters of an order-1 context"),
        (_set("level0.contexts", 0, 7), "order 0 holds a context other than the empty one"),
        (_set(N, slice(0, 2), [2**63 - 1, 1]), "do not fit in int64"),
        (_set(N, slice(0, 2), [2**62, 2**62]), "do not fit in int64"),
    ], ids=["contexts-short", "chars-short", "counts-short", "row-length-long", "zero-row-length",
            "float-row-length", "bool-row-length", "negative-count", "float-count", "bool-count",
            "string-count", "zero-total", "context-not-string", "chars-list", "no-counts",
            "repeated-context", "repeated-char", "repeated-char-apart", "long-context",
            "empty-context", "count-past-int64", "row-total-past-int64"])
    def test_malformed_column_is_rejected(self, corrupt, message):
        corpus = ["日本語の文。", "本の文", "文"]
        scalars, arrays = train_char_lm(corpus, n=3, k=0.1).to_arrays()
        arrays = copied(arrays)
        rows = arrays[G] >> CODE_BITS
        assert len(arrays[C]) >= 2 and (rows == 0).sum() == 3
        corrupt(arrays)
        with pytest.raises((ValueError, KeyError), match=message):
            ArrayLM.from_arrays(scalars, arrays)

    def test_context_whose_prefix_is_not_a_context_is_rejected(self):
        scalars, arrays = train_char_lm(["日本語の文。", "本の文"], n=3, k=0.1).to_arrays()
        arrays = copied(arrays)
        contexts = arrays["level2.contexts"]
        contexts[-1] = len(arrays["level1.contexts"]) << CODE_BITS | ord("文")
        with pytest.raises(ValueError, match="first 1 characters of an order-2 context"):
            ArrayLM.from_arrays(scalars, arrays)

    @pytest.mark.parametrize("vocabulary,message", [
        (None, "vocabulary"),
        (np.array([97, 98], dtype="<i8"), "'vocabulary' is <i8, not <u4"),
        (np.array([97, 0x110000], dtype="<u4"), "not one character"),
        (np.array([97, 97], dtype="<u4"), "character is repeated"),
    ], ids=["null", "ints", "two-characters", "repeated"])
    def test_malformed_vocabulary_is_rejected(self, vocabulary, message):
        scalars, arrays = train_char_lm(["ab"], n=2, k=0.1).to_arrays()
        arrays = {**arrays, "vocabulary": vocabulary}
        if vocabulary is None:
            del arrays["vocabulary"]
        with pytest.raises((ValueError, KeyError), match=message):
            ArrayLM.from_arrays(scalars, arrays)
