from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.model1 import NULL_TOKEN, TranslationTable, train_model1

from model_edits import copied, dump, through_bytes

CANONICAL = [(["a"], ["x"]), (["a", "b"], ["x", "y"]), (["b"], ["y"])]


def oracle_em(corpus, iterations):
    """Straightforward dense EM over explicit vocabularies, kept separate
    from the trainer's incremental bookkeeping."""
    pairs = [([NULL_TOKEN] + list(s), list(t)) for s, t in corpus]
    cooc = {}
    for src, trg in pairs:
        for s in src:
            cooc.setdefault(s, set()).update(trg)
    t = {s: {e: 1.0 / len(es) for e in es} for s, es in cooc.items()}
    for _ in range(iterations):
        counts = {s: {} for s in t}
        totals = dict.fromkeys(t, 0.0)
        for src, trg in pairs:
            for e in trg:
                z = sum(t[s].get(e, 0.0) for s in src)
                for s in src:
                    c = t[s].get(e, 0.0) / z
                    if c:
                        counts[s][e] = counts[s].get(e, 0.0) + c
                        totals[s] += c
        for s in t:
            if totals[s]:
                t[s] = {e: c / totals[s] for e, c in counts[s].items()}
    return t


def reference_model1(
    corpus: Sequence[tuple[Sequence[str], Sequence[str]]],
    iterations: int = 20,
    direction: str = "",
) -> TranslationTable:
    """The dict-of-dicts trainer the array kernel replaced, kept verbatim
    as the oracle: ``train_model1`` must reproduce its table, row order
    and log-likelihoods bit for bit."""
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

    # Uniform initialization over co-occurring pairs.
    t: dict[str, dict[str, float]] = {}
    for src, trg in pairs:
        for s in src:
            row = t.setdefault(s, {})
            for e in trg:
                row[e] = 0.0
    for row in t.values():
        uniform = 1.0 / len(row)
        for e in row:
            row[e] = uniform

    history: list[float] = []
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {s: {} for s in t}
        totals: dict[str, float] = {s: 0.0 for s in t}
        log_likelihood = 0.0
        for src, trg in pairs:
            rows = [t[s] for s in src]
            for e in trg:
                denom = 0.0
                for row in rows:
                    denom += row.get(e, 0.0)
                log_likelihood += math.log(denom) - math.log(len(src))
                for s, row in zip(src, rows):
                    p = row.get(e, 0.0)
                    if p == 0.0:
                        continue
                    share = p / denom
                    counts[s][e] = counts[s].get(e, 0.0) + share
                    totals[s] += share
        for s, row in counts.items():
            total = totals[s]
            if total > 0.0:
                t[s] = {e: cnt / total for e, cnt in row.items()}
        history.append(log_likelihood)

    table = TranslationTable(t=t, direction=direction)
    table.log_likelihoods = history
    return table


class TestTrainModel1:
    def test_canonical_corpus_deciphers(self):
        table = train_model1(CANONICAL, iterations=20)
        assert table.prob("x", "a") >= 0.9
        assert table.prob("y", "b") >= 0.9

    def test_matches_independent_oracle(self):
        table = train_model1(CANONICAL, iterations=7)
        oracle = oracle_em(CANONICAL, 7)
        for src, row in oracle.items():
            for trg, p in row.items():
                assert table.prob(trg, src) == pytest.approx(p, abs=1e-12)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            train_model1(CANONICAL, iterations=0)

    def test_single_pair(self):
        table = train_model1([(["a"], ["x"])], iterations=5)
        assert table.prob("x", "a") >= 0.5
        assert table.prob("x", NULL_TOKEN) > 0.0

    def test_source_rows_normalized_every_iteration(self):
        for iterations in (1, 2, 5, 20):
            table = train_model1(CANONICAL, iterations=iterations)
            for src, row in table.t.items():
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-6), src

    def test_log_likelihood_non_decreasing(self):
        table = train_model1(CANONICAL, iterations=25)
        lls = table.log_likelihoods
        assert len(lls) == 25
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_empty_corpus_is_error(self):
        with pytest.raises(ValueError):
            train_model1([], iterations=5)
        with pytest.raises(ValueError):
            train_model1([([], [])], iterations=5)

    def test_deterministic(self):
        a = train_model1(CANONICAL, iterations=10)
        b = train_model1(CANONICAL, iterations=10)
        assert a.t == b.t


def _as_compared(train, corpus, iterations):
    """Table, row order and log-likelihoods, or the ValueError message."""
    try:
        table = train(corpus, iterations=iterations)
    except ValueError as err:
        return ("error", str(err))
    rows = [(src, list(row)) for src, row in table.t.items()]
    return table.t, rows, table.log_likelihoods


_SIDE_SRC = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4)
_SIDE_TRG = st.lists(st.sampled_from(["w", "x", "y", "z"]), max_size=4)


class TestArrayKernelOracle:
    """``train_model1`` against the dict-loop trainer, with ``==``: the
    bincount kernel sums in the loop's order, so no tolerance is due."""

    @given(
        corpus=st.lists(st.tuples(_SIDE_SRC, _SIDE_TRG), min_size=1, max_size=6),
        iterations=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, corpus, iterations):
        got = _as_compared(train_model1, corpus, iterations)
        assert got == _as_compared(reference_model1, corpus, iterations)

    def test_subnormal_probabilities_canonical(self):
        got = _as_compared(train_model1, CANONICAL, 1250)
        assert got == _as_compared(reference_model1, CANONICAL, 1250)
        assert got[0]["a"]["y"] == 5e-324
        assert all(math.isfinite(ll) for ll in got[2])

    def test_cells_that_reach_zero_leave_their_row(self):
        corpus = [(["a"], ["w"]), (["b", "d"], ["w", "x", "z"]), (["b", "c"], ["x"]),
                  (["c", "a"], ["w", "x"])]
        got = _as_compared(train_model1, corpus, 1500)
        assert got == _as_compared(reference_model1, corpus, 1500)
        assert len(got[0][NULL_TOKEN]) == 2  # three co-occurring targets, one dropped


def reference_best_prob(table: TranslationTable, src: str, candidates) -> float:
    """The per-candidate loop that the ranked rows replaced, kept as the
    oracle: ``best_prob`` must return the same float."""
    row = table.t.get(src)
    if not row:
        return 0.0
    best = 0.0
    for trg in candidates:
        p = row.get(trg, 0.0)
        if p > best:
            best = p
    return best


_TARGETS = ["w", "x", "y", "z", "v"]
# Few distinct values, so that probabilities tie; zeros, NaN and
# infinity must not reorder the ranked rows.  A model file holds only
# the finite, non-negative ones.
_PROBS = st.sampled_from(
    [0.0, -0.0, 0.125, 0.25, 0.5, 1.0, 1e-300, 5e-324, 0.3, math.nan, math.inf]
)


def _bits(p: float) -> str:
    return struct.pack("<d", p).hex()


class TestTranslationTable:
    def test_best_prob_restricted_to_candidates(self):
        table = TranslationTable(t={"a": {"x": 0.7, "y": 0.3}})
        assert table.best_prob("a", {"y"}) == pytest.approx(0.3)
        assert table.best_prob("a", {"z"}) == 0.0
        assert table.best_prob("unknown", {"x"}) == 0.0

    @given(
        rows=st.dictionaries(
            st.sampled_from(["a", "b", NULL_TOKEN]),
            st.dictionaries(st.sampled_from(_TARGETS), _PROBS, max_size=5),
            max_size=3,
        ),
        queries=st.lists(
            st.tuples(st.sampled_from(["a", "b", NULL_TOKEN, "unknown"]),
                      st.sets(st.sampled_from(_TARGETS + ["missing"]), max_size=6)),
            min_size=1, max_size=10,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_best_prob_equals_reference_from_json(self, rows, queries):
        table = TranslationTable(t=rows, direction="ja-zh")
        tables = [table]
        if all(p >= 0.0 and math.isfinite(p) for row in rows.values() for p in row.values()):
            tables.append(through_bytes(table))
        for table in tables:
            before = dump(table)
            for src, candidates in queries:
                got = table.best_prob(src, candidates)
                want = reference_best_prob(table, src, candidates)
                assert _bits(got) == _bits(want)
            assert dump(table) == before

    @given(
        corpus=st.lists(st.tuples(_SIDE_SRC, _SIDE_TRG), min_size=1, max_size=6),
        iterations=st.integers(min_value=1, max_value=12),
        queries=st.lists(st.sets(st.sampled_from(["w", "x", "y", "z", "q"]), max_size=5),
                         min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_best_prob_equals_reference_trained(self, corpus, iterations, queries):
        try:
            table = train_model1(corpus, iterations=iterations)
        except ValueError:
            return
        before = dump(table)
        for src in list(table.t) + ["unknown"]:
            for candidates in queries:
                assert table.best_prob(src, candidates) == reference_best_prob(table, src, candidates)
        assert dump(table) == before

    def test_long_row_falls_back_to_the_candidates(self):
        # The row ranks more targets than there are candidates and the
        # top ones are absent, so the candidate loop decides.
        row = {f"t{i}": 1.0 / (i + 2) for i in range(20)}
        table = TranslationTable(t={"a": row})
        assert table.ranked["a"][:2] == ("t0", "t1")
        assert table.best_prob("a", {"t7", "t12"}) == row["t7"]
        assert table.best_prob("a", {"t7", "nope"}) == row["t7"]
        assert table.best_prob("a", {"nope", "gone"}) == 0.0
        assert table.best_prob("a", set()) == 0.0


# Probabilities a model file must carry bit for bit: the ends of [0, 1],
# subnormals and the neighbours of common values.
_EXACT_PROBS = st.sampled_from([
    0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1.0 / 3.0,
    math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), math.nextafter(0.5, 1.0),
    math.nextafter(0.1, 0.0), math.nextafter(1e-300, 0.0),
]) | st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True)
# Token names with NUL, the language model's padding and end symbols,
# other control characters, JSON's escaped characters and characters
# outside the Basic Multilingual Plane.
_NAMES = st.text(
    alphabet=st.sampled_from(list("ab日本") + ["\x00", "\x02", "\x03", "\x01", "\n", '"', "\\",
                                               "😀", "𠀋"]),
    max_size=4,
)


class TestColumns:
    """The arrays of a saved Model 1 table (model version 3)."""

    @given(
        rows=st.dictionaries(_NAMES, st.dictionaries(_NAMES, _EXACT_PROBS, min_size=1,
                                                     max_size=6), max_size=6),
        queries=st.lists(st.sets(_NAMES, max_size=6), min_size=1, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_through_json_text(self, rows, queries):
        # The scalars through JSON text and the arrays through raw bytes,
        # as a model file carries them.
        table = TranslationTable(t=rows, direction="zh-ja")
        again = through_bytes(table)
        assert again.direction == "zh-ja"
        assert again.t == table.t
        assert {src: {trg: _bits(p) for trg, p in row.items()} for src, row in again.t.items()} \
            == {src: {trg: _bits(p) for trg, p in row.items()} for src, row in table.t.items()}
        for src in list(rows) + ["unknown"]:
            for candidates in queries + [set(rows.get(src, ()))]:
                assert _bits(again.best_prob(src, candidates)) == \
                    _bits(table.best_prob(src, candidates))
        assert dump(again) == dump(table)

    def test_each_target_is_one_shared_object(self):
        table = train_model1([(["日", "本"], ["日", "本"]), (["本"], ["本", "书"])], iterations=3)
        again = through_bytes(table)
        objects = {}
        for row in again.t.values():
            for trg in row:
                assert objects.setdefault(trg, trg) is trg
        assert len(objects) < sum(map(len, again.t.values()))

    def test_empty_row_is_not_written(self):
        table = TranslationTable(t={"a": {}, "b": {"x": 1.0}})
        assert through_bytes(table).t == {"b": {"x": 1.0}}

    @pytest.mark.parametrize("corrupt,message", [
        (lambda t: t.update(source_lengths=t["source_lengths"][:1], sources=t["sources"][:1]),
         "row names but"),
        (lambda t: t.update(target_ids=t["target_ids"][:2]), "entries hold"),
        (lambda t: t.update(probs=_f8([0.5])), "entries hold"),
        (lambda t: t.update(row_lengths=_i8([0, 3])), "row length is not positive"),
        (lambda t: t.update(row_lengths=t["row_lengths"].astype("<f8")),
         "'row_lengths' is <f8, not <i8"),
        (lambda t: t.update(row_lengths=t["row_lengths"].astype("|b1")),
         "'row_lengths' is |b1, not <i8"),
        # the sources' code points cut short of their lengths
        (lambda t: t.update(sources=t["sources"][:1]), "do not add up to the 1 code points"),
        (lambda t: t.update(targets=np.array([0x110000, ord("y")], dtype="<u4")),
         "targets holds a code point that is not a character"),
        (lambda t: t.update(probs=t["probs"].astype("<f4")), "'probs' is <f4, not <f8"),
        (lambda t: t.update(probs=_f8([math.nan, 0.5, 0.5])), "negative, NaN or infinite"),
        (lambda t: t.update(probs=_f8([math.inf, 0.5, 0.5])), "negative, NaN or infinite"),
        (lambda t: t.update(probs=_f8([-0.5, 0.5, 0.5])), "negative, NaN or infinite"),
        (lambda t: t.update(probs=t["probs"].astype("<i8")), "'probs' is <i8, not <f8"),
        (lambda t: t.update(target_ids=_i8([0, 2, 0])), "target id is not one of the 2"),
        (lambda t: t.update(sources=np.array([ord("a")] * 2, dtype="<u4")),
         "row name is repeated"),
        (lambda t: t.update(target_ids=_i8([0, 0, 0])), "repeated within a row"),
    ], ids=["sources-short", "targets-short", "probs-short", "zero-row-length",
            "float-row-length", "bool-row-length", "bad-padding", "bad-character",
            "partial-float", "nan", "infinite", "negative", "probs-list", "target-not-string",
            "repeated-source", "repeated-target"])
    def test_malformed_column_is_rejected(self, corrupt, message):
        table = TranslationTable(t={"a": {"x": 0.25, "y": 0.75}, "b": {"x": 1.0}})
        scalars, arrays = table.to_arrays()
        arrays = copied(arrays)
        assert arrays["row_lengths"].tolist() == [2, 1]
        assert arrays["target_ids"].tolist() == [0, 1, 0]
        corrupt(arrays)
        with pytest.raises(ValueError, match=message):
            TranslationTable.from_arrays(scalars, arrays)

    def test_missing_array_is_a_key_error(self):
        scalars, arrays = TranslationTable(t={"a": {"x": 1.0}}).to_arrays()
        for name in list(arrays):
            with pytest.raises(KeyError, match=name):
                TranslationTable.from_arrays(scalars, {k: v for k, v in arrays.items() if k != name})


def _f8(values: list[float]) -> np.ndarray:
    return np.array(values, dtype="<f8")


def _i8(values: list[int]) -> np.ndarray:
    return np.array(values, dtype="<i8")
