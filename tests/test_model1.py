from __future__ import annotations

import importlib.util
import math
import struct
import tracemalloc
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine import model1
from localmine.model1 import NULL_TOKEN, TranslationTable, train_model1
from localmine.text import LanguageTag, make_segmenter

from model_edits import copied, dump, table_from_rows, table_rows, through_bytes

CANONICAL = [(["a"], ["x"]), (["a", "b"], ["x", "y"]), (["b"], ["y"])]


def prob(table: TranslationTable, trg: str, src: str) -> float:
    """t(trg | src), 0.0 for a pair the table does not hold."""
    return table_rows(table).get(src, {}).get(trg, 0.0)


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
    as the oracle up to its last line, which hands its rows to
    ``table_from_rows``: ``train_model1`` must reproduce its table and
    log-likelihoods bit for bit."""
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

    table = table_from_rows(t, direction=direction)
    table.log_likelihoods = history
    return table


class TestTrainModel1:
    def test_canonical_corpus_deciphers(self):
        table = train_model1(CANONICAL, iterations=20)
        assert prob(table, "x", "a") >= 0.9
        assert prob(table, "y", "b") >= 0.9

    def test_matches_independent_oracle(self):
        table = train_model1(CANONICAL, iterations=7)
        oracle = oracle_em(CANONICAL, 7)
        for src, row in oracle.items():
            for trg, p in row.items():
                assert prob(table, trg, src) == pytest.approx(p, abs=1e-12)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            train_model1(CANONICAL, iterations=0)

    def test_single_pair(self):
        table = train_model1([(["a"], ["x"])], iterations=5)
        assert prob(table, "x", "a") >= 0.5
        assert prob(table, "x", NULL_TOKEN) > 0.0

    def test_source_rows_normalized_every_iteration(self):
        for iterations in (1, 2, 5, 20):
            table = train_model1(CANONICAL, iterations=iterations)
            for src, row in table_rows(table).items():
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
        assert dump(a) == dump(b)
        assert a.log_likelihoods == b.log_likelihoods


def _as_compared(train, corpus, iterations):
    """Table entries, the table's arrays as bytes (row and entry order and
    float bits included) and log-likelihoods, or the ValueError message."""
    try:
        table = train(corpus, iterations=iterations)
    except ValueError as err:
        return ("error", str(err))
    return table_rows(table), dump(table), table.log_likelihoods


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
    """The per-candidate loop over the source's row that the batch lookup
    replaced, kept as the oracle: ``best_probs`` must return the same
    float for each source position."""
    row = table_rows(table).get(src)
    if not row:
        return 0.0
    best = 0.0
    for trg in candidates:
        p = row.get(trg, 0.0)
        if p > best:
            best = p
    return best


def best_prob(table: TranslationTable, src: str, candidates) -> float:
    """``best_probs`` of one source token."""
    [[p]] = table.best_probs([([src], candidates)])
    return p


_TARGETS = ["w", "x", "y", "z", "v"]
# Few distinct values, so that probabilities tie, and zeros of both
# signs.  A table holds only finite, non-negative probabilities:
# ``from_arrays`` rejects the rest.
_PROBS = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, 1.0, 1e-300, 5e-324, 0.3])
_QUERIES = st.lists(
    st.tuples(st.lists(st.sampled_from(["a", "b", NULL_TOKEN, "unknown"]), max_size=4),
              st.lists(st.sampled_from(_TARGETS + ["missing"]), max_size=6)),
    min_size=1, max_size=10,
)


def _bits(p: float) -> str:
    return struct.pack("<d", p).hex()


def _assert_best_probs(table: TranslationTable, queries) -> None:
    """One batch of ``queries``, each ``(source tokens, target tokens)``,
    gives the oracle's float for every source position."""
    got = [p for best in table.best_probs(queries) for p in best]
    want = [reference_best_prob(table, src, set(trg)) for srcs, trg in queries for src in srcs]
    assert list(map(_bits, got)) == list(map(_bits, want))


class TestTranslationTable:
    def test_best_prob_restricted_to_candidates(self):
        table = table_from_rows({"a": {"x": 0.7, "y": 0.3}})
        assert best_prob(table, "a", {"y"}) == pytest.approx(0.3)
        assert best_prob(table, "a", {"z"}) == 0.0
        assert best_prob(table, "unknown", {"x"}) == 0.0
        assert list(table.best_probs([(["a", "unknown", "a"], ["y", "x", "y"]), ([], ["x"]),
                                      (["a"], [])])) == [[0.7, 0.0, 0.7], [], [0.0]]

    @given(
        rows=st.dictionaries(
            st.sampled_from(["a", "b", NULL_TOKEN]),
            st.dictionaries(st.sampled_from(_TARGETS), _PROBS, max_size=5),
            max_size=3,
        ),
        queries=_QUERIES,
        chunk=st.sampled_from([1, 3, model1._LOOKUP_CHUNK]),
    )
    @settings(max_examples=300, deadline=None)
    def test_best_prob_equals_reference_from_json(self, rows, queries, chunk):
        # A small chunk makes one batch several lookups.
        table = table_from_rows(rows, direction="ja-zh")
        before = dump(table)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model1, "_LOOKUP_CHUNK", chunk)
            _assert_best_probs(table, queries)
        assert dump(table) == before

    @given(
        corpus=st.lists(st.tuples(_SIDE_SRC, _SIDE_TRG), min_size=1, max_size=6),
        iterations=st.integers(min_value=1, max_value=12),
        queries=st.lists(st.lists(st.sampled_from(["w", "x", "y", "z", "q"]), max_size=5),
                         min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_best_prob_equals_reference_trained(self, corpus, iterations, queries):
        try:
            table = train_model1(corpus, iterations=iterations)
        except ValueError:
            return
        before = dump(table)
        sources = list(table.source_id) + ["unknown"]
        _assert_best_probs(table, [(sources, candidates) for candidates in queries])
        assert dump(table) == before

    def test_long_row_falls_back_to_the_candidates(self):
        # The row holds more targets than there are candidates and the
        # most probable ones are absent.
        row = {f"t{i}": 1.0 / (i + 2) for i in range(20)}
        table = table_from_rows({"a": row})
        assert best_prob(table, "a", {"t7", "t12"}) == row["t7"]
        assert best_prob(table, "a", {"t7", "nope"}) == row["t7"]
        assert best_prob(table, "a", {"nope", "gone"}) == 0.0
        assert best_prob(table, "a", set()) == 0.0


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
        table = table_from_rows(rows, direction="zh-ja")
        again = through_bytes(table)
        assert again.direction == "zh-ja"
        assert table_rows(again) == rows
        assert {src: {trg: _bits(p) for trg, p in row.items()}
                for src, row in table_rows(again).items()} \
            == {src: {trg: _bits(p) for trg, p in row.items()} for src, row in rows.items()}
        sides = [(list(rows) + ["unknown"], candidates)
                 for candidates in queries + [{t for row in rows.values() for t in row}]]
        assert [list(map(_bits, best)) for best in again.best_probs(sides)] == \
            [list(map(_bits, best)) for best in table.best_probs(sides)]
        assert dump(again) == dump(table)

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
        (lambda t: t.update(sources=np.array([ord("b"), ord("a")], dtype="<u4")),
         "the row names are not sorted"),
        (lambda t: t.update(targets=np.array([ord("y"), ord("x")], dtype="<u4")),
         "the target names are not sorted"),
        (lambda t: t.update(targets=np.array([ord("x")] * 2, dtype="<u4")),
         "a target name is repeated"),
        (lambda t: t.update(target_ids=_i8([1, 0, 0])), "a row's targets are not sorted"),
    ], ids=["sources-short", "targets-short", "probs-short", "zero-row-length",
            "float-row-length", "bool-row-length", "bad-padding", "bad-character",
            "partial-float", "nan", "infinite", "negative", "probs-list", "target-not-string",
            "repeated-source", "repeated-target", "unsorted-sources", "unsorted-targets",
            "repeated-target-name", "unsorted-row"])
    def test_malformed_column_is_rejected(self, corrupt, message):
        table = table_from_rows({"a": {"x": 0.25, "y": 0.75}, "b": {"x": 1.0}})
        scalars, arrays = table.to_arrays()
        arrays = copied(arrays)
        assert arrays["row_lengths"].tolist() == [2, 1]
        assert arrays["target_ids"].tolist() == [0, 1, 0]
        corrupt(arrays)
        with pytest.raises(ValueError, match=message):
            TranslationTable.from_arrays(scalars, arrays)

    def test_missing_array_is_a_key_error(self):
        scalars, arrays = table_from_rows({"a": {"x": 1.0}}).to_arrays()
        for name in list(arrays):
            with pytest.raises(KeyError, match=name):
                TranslationTable.from_arrays(scalars, {k: v for k, v in arrays.items() if k != name})


def _benchmark_corpus(path: Path) -> list[tuple[str, str]]:
    """The benchmark's 1,000-pair filter training corpus (seed 5), written
    by ``perfbench/gen.py`` to ``path`` and read back."""
    gen_py = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", gen_py)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_training_corpus(path, 5)
    return [tuple(line.rstrip("\n").split("\t")) for line in open(path, encoding="utf-8")]


class TestMemory:
    # The two name-to-id dicts grow with the vocabulary, not the entries.
    ALLOWANCE = 64 * 1024

    def test_loaded_table_retains_at_most_24_bytes_per_entry(self, starter_lexicon, tmp_path):
        """An entry is an int64 key and a float64 probability.  The
        dict-of-dicts table, with its ranked targets, retained about 72
        bytes an entry of these tables."""
        seg_ja = make_segmenter(starter_lexicon, LanguageTag.JA)
        seg_zh = make_segmenter(starter_lexicon, LanguageTag.ZH)
        tokenized = [(seg_ja(ja), seg_zh(zh)) for ja, zh in _benchmark_corpus(tmp_path / "t.tsv")]
        for corpus in (tokenized, [(zh, ja) for ja, zh in tokenized]):
            table = train_model1(corpus)
            entries = len(table.probs)
            tracemalloc.start()
            try:
                loaded = through_bytes(table)
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert dump(loaded) == dump(table)
            assert entries > 10_000
            assert retained <= 24 * entries + self.ALLOWANCE, retained / entries


def _f8(values: list[float]) -> np.ndarray:
    return np.array(values, dtype="<f8")


def _i8(values: list[int]) -> np.ndarray:
    return np.array(values, dtype="<i8")
