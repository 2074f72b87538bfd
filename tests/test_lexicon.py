import logging
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.lexicon import (
    build_lexicon,
    coverage,
    greedy_match_count,
    load_lexicon,
    load_pair_tsv,
    reduce_dictionary,
    single_char_pairs,
    table_match_count,
    token_counts,
    translation_rows,
)
from localmine.text import LanguageTag


def make_planted_raw_entries(total=1000, single=730, seed=11):
    """Raw dictionary fixture: exactly ``single`` planted one-to-one
    entries (no spaces), the rest multi-token (space-separated)."""
    rng = random.Random(seed)
    rows = []
    for i in range(single):
        rows.append((f"語{i}", f"词{i}"))
    for i in range(total - single):
        if i % 3 == 0:
            rows.append((f"語 句{i}", f"词{i}x"))
        elif i % 3 == 1:
            rows.append((f"語{i}y", f"词 组{i}"))
        else:
            rows.append((f"多 語 句{i}", f"多 词 组{i}"))
    rng.shuffle(rows)
    return rows


def _augmented(entries, char_map):
    """The lexicon of word entries plus a character map's rows."""
    return build_lexicon(chain(entries, single_char_pairs(char_map)))


class TestReduceDictionary:
    def test_single_token_pair_kept(self):
        assert list(reduce_dictionary([("日本", "日本")])) == [("日本", "日本")]

    def test_multi_token_side_dropped(self):
        assert list(reduce_dictionary([("日本 語学", "日语 学")])) == []

    def test_planted_count(self):
        lex = build_lexicon(reduce_dictionary(make_planted_raw_entries()))
        assert len(lex) == 730

    def test_output_subset_first_occurrence(self):
        raw = [("a", "x"), ("b b", "y"), ("a", "x"), ("c", "z")]
        lex = build_lexicon(reduce_dictionary(raw))
        assert lex.index_ja == {"a": ("x",), "c": ("z",)}
        assert len(lex) == 2


class TestAugment:
    def test_existing_pair_is_deduped(self):
        lex = _augmented([("国", "国")], [("国", "国")])
        assert len(lex) == 1

    def test_disjoint_union_counts(self):
        entries = [(f"w{i}", f"c{i}") for i in range(100)]
        chars = [(chr(0x4E00 + i), chr(0x5B00 + i)) for i in range(60)]
        lex = _augmented(entries, chars)
        assert len(lex) == 160

    def test_multichar_rows_skipped(self, caplog):
        lex = _augmented([("a", "b")], [("xy", "z"), ("p", "q")])
        assert len(lex) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "char map row is not single characters: 'xy'/'z'",
            "skipped 1 malformed char map rows",
        ]

    def test_index_roundtrip_property(self):
        rng = random.Random(5)
        entries = {(f"j{rng.randrange(40)}", f"z{rng.randrange(40)}") for _ in range(200)}
        lex = build_lexicon(sorted(entries))
        rebuilt = {(ja, zh) for ja, zhs in lex.index_ja.items() for zh in zhs}
        assert rebuilt == entries
        rebuilt_rev = {(ja, zh) for zh, jas in lex.index_zh.items() for ja in jas}
        assert rebuilt_rev == entries


class TestCoverage:
    def test_perfect_single_token(self):
        lex = build_lexicon([("日本", "日本")])
        assert coverage(["日本"], ["日本"], lex, LanguageTag.JA) == 1.0

    def test_empty_lexicon_is_zero(self):
        lex = build_lexicon([])
        assert coverage(["a", "b"], ["x"], lex, LanguageTag.JA) == 0.0

    def test_crafted_collision_case(self):
        # b has two translations; c loses the collision on x: 3/5 matched.
        lex = build_lexicon(
            [("a", "x"), ("b", "x"), ("b", "y"), ("c", "x"), ("d", "z")]
        )
        got = coverage(["a", "b", "c", "d", "e"], ["x", "y", "z"], lex, LanguageTag.JA)
        assert got == pytest.approx(0.6)

    def test_empty_source_is_zero(self):
        lex = build_lexicon([("a", "x")])
        assert coverage([], ["x"], lex, LanguageTag.JA) == 0.0

    def test_range_and_monotonicity_on_random_fixtures(self):
        # Greedy consumption is order-sensitive; monotonicity is asserted
        # on random (non-adversarial) lexicons.
        rng = random.Random(17)
        for _ in range(200):
            vocab_ja = [f"j{i}" for i in range(10)]
            vocab_zh = [f"z{i}" for i in range(10)]
            base = sorted(
                {(rng.choice(vocab_ja), rng.choice(vocab_zh)) for _ in range(8)}
            )
            extra = sorted(
                {(rng.choice(vocab_ja), rng.choice(vocab_zh)) for _ in range(4)}.difference(base)
            )
            src = [rng.choice(vocab_ja) for _ in range(rng.randrange(1, 8))]
            trg = [rng.choice(vocab_zh) for _ in range(rng.randrange(1, 8))]
            small = coverage(src, trg, build_lexicon(base), LanguageTag.JA)
            large = coverage(src, trg, build_lexicon(base + extra), LanguageTag.JA)
            assert 0.0 <= small <= 1.0
            assert large >= small - 1e-12


def _set_index(entries, side):
    """Headword -> translation set, the lexicon index before freezing."""
    index = {}
    for ja, zh in entries:
        head, target = (ja, zh) if side == "ja" else (zh, ja)
        index.setdefault(head, set()).add(target)
    return index


def _oracle_translations(index, token):
    return tuple(sorted(index.get(token, ())))


def _oracle_match_count(tokens_src, tokens_trg, index):
    """The greedy match over a Counter with a per-token sort."""
    if not tokens_src or not tokens_trg:
        return 0
    remaining = Counter(tokens_trg)
    matched = 0
    for token in tokens_src:
        for candidate in _oracle_translations(index, token):
            if remaining.get(candidate, 0) > 0:
                remaining[candidate] -= 1
                matched += 1
                break
    return matched


_JA = st.sampled_from([f"j{i}" for i in range(8)])
_ZH = st.sampled_from([f"z{i}" for i in range(8)])


class TestFrozenKernelOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.tuples(_JA, _ZH), max_size=20),
        src=st.lists(_JA, max_size=10),
        trg=st.lists(_ZH, max_size=10),
    )
    def test_agrees_with_sort_per_call_and_counter(self, entries, src, trg):
        lex = build_lexicon(entries)
        index_ja = _set_index(entries, "ja")
        index_zh = _set_index(entries, "zh")
        for token in set(src) | set(trg):
            assert lex.headwords(LanguageTag.JA).get(token, ()) == _oracle_translations(index_ja, token)
            assert lex.headwords(LanguageTag.ZH).get(token, ()) == _oracle_translations(index_zh, token)
        got = greedy_match_count(src, trg, lex.headwords(LanguageTag.JA))
        assert got == _oracle_match_count(src, trg, index_ja)
        got_rev = greedy_match_count(trg, src, lex.headwords(LanguageTag.ZH))
        assert got_rev == _oracle_match_count(trg, src, index_zh)


    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.tuples(_JA, _ZH), max_size=20),
        sources=st.lists(st.lists(_JA, max_size=10), min_size=1, max_size=4),
        trg=st.lists(_ZH, max_size=10),
    )
    def test_tables_built_once_serve_every_pair(self, entries, sources, trg):
        """One target table scores many sources through copies, as
        document matching uses it; the kernel uses up only the copy."""
        translations = build_lexicon(entries).headwords(LanguageTag.JA)
        counts = token_counts(trg)
        for src in sources:
            remaining = counts.copy()
            got = table_match_count(translation_rows(src, translations), remaining)
            assert got == _oracle_match_count(src, trg, _set_index(entries, "ja"))
            assert sum(counts.values()) - sum(remaining.values()) == got
        assert counts == token_counts(trg)


class TestLoaders:
    def test_pair_tsv_roundtrip(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("日本\t日本\nああ\t啊\n", encoding="utf-8")
        assert load_pair_tsv(path) == [("日本", "日本"), ("ああ", "啊")]

    def test_bundled_data_loads(self, starter_lexicon):
        assert len(starter_lexicon) > 2000
        assert starter_lexicon.headwords(LanguageTag.JA).get("日本", ()) == ("日本",)
        assert "经" in starter_lexicon.headwords(LanguageTag.JA).get("経", ())

    def test_load_lexicon_reduces_and_augments(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        dict_path.write_text("単語\t单词\n二 語\t二 词\n", encoding="utf-8")
        chars = tmp_path / "c.tsv"
        chars.write_text("語\t语\n", encoding="utf-8")
        lex = load_lexicon(dict_path, chars)
        assert len(lex) == 2


# The build chain as it was before the lexicon was built in one pass,
# copied verbatim apart from names, docstrings and the logger: the
# reference the one-pass build must agree with.
_ref_logger = logging.getLogger("tests.reference_lexicon")


class _RefEntry(NamedTuple):
    ja: str
    zh: str


@dataclass
class _RefLexicon:
    entries: list[_RefEntry] = field(default_factory=list)
    index_ja: dict[str, tuple[str, ...]] = field(default_factory=dict)
    index_zh: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


def _ref_build_lexicon(entries: Iterable[_RefEntry | tuple[str, str]]) -> _RefLexicon:
    seen: set[_RefEntry] = set()
    ordered: list[_RefEntry] = []
    index_ja: dict[str, set[str]] = {}
    index_zh: dict[str, set[str]] = {}
    for raw in entries:
        entry = _RefEntry(*raw)
        if not entry.ja or not entry.zh or entry in seen:
            continue
        seen.add(entry)
        ordered.append(entry)
        index_ja.setdefault(entry.ja, set()).add(entry.zh)
        index_zh.setdefault(entry.zh, set()).add(entry.ja)
    return _RefLexicon(ordered, _ref_freeze(index_ja), _ref_freeze(index_zh))


def _ref_freeze(index: dict[str, set[str]]) -> dict[str, tuple[str, ...]]:
    return {head: tuple(sorted(targets)) for head, targets in index.items()}


def _ref_reduce_dictionary(raw_entries: Iterable[tuple[str, str]]) -> list[_RefEntry]:
    seen: set[_RefEntry] = set()
    kept: list[_RefEntry] = []
    for ja, zh in raw_entries:
        if len(ja.split()) != 1 or len(zh.split()) != 1:
            continue
        entry = _RefEntry(ja, zh)
        if entry in seen:
            continue
        seen.add(entry)
        kept.append(entry)
    return kept


def _ref_augment_with_char_map(
    entries: Iterable[_RefEntry | tuple[str, str]],
    char_map: Iterable[tuple[str, str]],
) -> _RefLexicon:
    combined: list[tuple[str, str]] = [tuple(e) for e in entries]
    skipped = 0
    for kanji, simplified in char_map:
        if len(kanji) != 1 or len(simplified) != 1:
            _ref_logger.warning("char map row is not single characters: %r/%r", kanji, simplified)
            skipped += 1
            continue
        combined.append((kanji, simplified))
    if skipped:
        _ref_logger.warning("skipped %d malformed char map rows", skipped)
    return _ref_build_lexicon(combined)


def _ref_widths(index):
    """First character -> distinct headword lengths >= 2, longest first."""
    by_first = {}
    for head in index:
        if len(head) >= 2:
            by_first.setdefault(head[0], set()).add(len(head))
    return {first: tuple(sorted(lengths, reverse=True)) for first, lengths in by_first.items()}


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _messages_of(logger_name, call):
    """``call()`` and the messages it logs on ``logger_name``."""
    handler = _Messages()
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        return call(), handler.messages
    finally:
        logger.removeHandler(handler)


# Cells from a few letters, an ASCII and an ideographic space: drawn rows
# repeat, and hold empty, multi-token and whitespace-padded cells (" a"
# is one token); character-map cells of up to 3 characters, so some rows
# are not single characters, and " " is a single character.
_CELL_CHARS = st.sampled_from(["a", "b", "語", " ", "　"])
_DICT_ROWS = st.lists(st.tuples(st.text(_CELL_CHARS, max_size=4), st.text(_CELL_CHARS, max_size=4)),
                      max_size=30)
_CHAR_ROWS = st.lists(st.tuples(st.text(_CELL_CHARS, max_size=3), st.text(_CELL_CHARS, max_size=3)),
                      max_size=12)


def _write_tsv(path, rows):
    path.write_text("".join(f"{left}\t{right}\n" for left, right in rows), encoding="utf-8")


class TestOnePassOracle:
    @settings(max_examples=300, deadline=None)
    @given(rows=_DICT_ROWS, char_map=st.one_of(st.none(), _CHAR_ROWS))
    def test_load_lexicon_agrees_with_the_three_pass_build(self, rows, char_map):
        with tempfile.TemporaryDirectory() as tmp:
            dict_path = Path(tmp) / "d.tsv"
            _write_tsv(dict_path, rows)
            char_path = None
            if char_map is not None:
                char_path = Path(tmp) / "c.tsv"
                _write_tsv(char_path, char_map)
            lex, logged = _messages_of("localmine.lexicon",
                                       lambda: load_lexicon(dict_path, char_path))
            ref, ref_logged = _messages_of("tests.reference_lexicon", lambda: _ref_augment_with_char_map(
                _ref_reduce_dictionary(load_pair_tsv(dict_path)),
                load_pair_tsv(char_path) if char_path else []))
        # Item lists, so the headword order counts too.
        assert list(lex.index_ja.items()) == list(ref.index_ja.items())
        assert list(lex.index_zh.items()) == list(ref.index_zh.items())
        for lang, index in ((LanguageTag.JA, ref.index_ja), (LanguageTag.ZH, ref.index_zh)):
            assert list(lex.headword_widths(lang).items()) == list(_ref_widths(index).items())
        assert len(lex) == len(ref)
        assert logged == ref_logged
