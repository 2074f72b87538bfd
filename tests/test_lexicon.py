import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.lexicon import (
    LexiconEntry,
    augment_with_char_map,
    build_lexicon,
    coverage,
    greedy_match_count,
    load_lexicon,
    load_pair_tsv,
    reduce_dictionary,
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


class TestReduceDictionary:
    def test_single_token_pair_kept(self):
        kept = reduce_dictionary([("日本", "日本")])
        assert kept == [LexiconEntry("日本", "日本")]

    def test_multi_token_side_dropped(self):
        assert reduce_dictionary([("日本 語学", "日语 学")]) == []

    def test_planted_count(self):
        kept = reduce_dictionary(make_planted_raw_entries())
        assert len(kept) == 730

    def test_output_subset_first_occurrence(self):
        raw = [("a", "x"), ("b b", "y"), ("a", "x"), ("c", "z")]
        kept = reduce_dictionary(raw)
        assert kept == [LexiconEntry("a", "x"), LexiconEntry("c", "z")]


class TestAugment:
    def test_existing_pair_is_deduped(self):
        entries = [LexiconEntry("国", "国")]
        lex = augment_with_char_map(entries, [("国", "国")])
        assert len(lex) == 1

    def test_disjoint_union_counts(self):
        entries = [(f"w{i}", f"c{i}") for i in range(100)]
        chars = [(chr(0x4E00 + i), chr(0x5B00 + i)) for i in range(60)]
        lex = augment_with_char_map(entries, chars)
        assert len(lex) == 160

    def test_multichar_rows_skipped(self):
        lex = augment_with_char_map([("a", "b")], [("xy", "z"), ("p", "q")])
        assert len(lex) == 2

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
