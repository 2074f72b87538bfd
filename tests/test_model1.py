from __future__ import annotations

import math
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.model1 import NULL_TOKEN, TranslationTable, train_model1

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
# Few distinct values, so that probabilities tie; a model file can also
# hold zeros, NaN and infinity, which the ranked rows must not reorder.
_PROBS = st.sampled_from(
    [0.0, -0.0, 0.125, 0.25, 0.5, 1.0, 1e-300, 5e-324, 0.3, math.nan, math.inf]
)


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
        obj = {"direction": "ja-zh",
               "entries": [[src, trg, p] for src, row in rows.items() for trg, p in row.items()]}
        table = TranslationTable.from_json(obj)
        before = table.to_json()
        for src, candidates in queries:
            got = table.best_prob(src, candidates)
            want = reference_best_prob(table, src, candidates)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert table.to_json() == before

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
        before = table.to_json()
        for src in list(table.t) + ["unknown"]:
            for candidates in queries:
                assert table.best_prob(src, candidates) == reference_best_prob(table, src, candidates)
        assert table.to_json() == before

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
