import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.lexicon import build_lexicon
from localmine.text import (
    LanguageTag,
    detect_language,
    normalize_text,
    segment_words,
    split_sentences,
)

from reference_html import reference_normalize_text


class TestNormalize:
    def test_fullwidth_folding(self):
        assert normalize_text("Ａ　Ｂ") == "A B"

    def test_ascii_identity(self):
        assert normalize_text("abc") == "abc"

    def test_whitespace_collapse(self):
        # reference behaviour: NFKC + horizontal-run collapse + trim
        raw = "  x \t y \r\n"
        expected = " ".join(unicodedata.normalize("NFKC", raw).split())
        assert normalize_text(raw) == "x y" == expected

    def test_line_separators_become_lf(self):
        assert normalize_text("a\r\nb c") == "a\nb\nc"

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once


class TestNormalizeEqualsReference:
    """``normalize_text`` against the per-character loop it replaced."""

    def test_every_code_point(self):
        """Each code point between spaces, tabs and line feeds, 4,096 code
        points to a call; the text's ends are checked below."""
        def around(ch):
            return f"{ch} {ch}\t\n \t{ch}  {ch}\n\n"

        points = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
        for start in range(0, len(points), 4096):
            chunk = points[start:start + 4096]
            text = "".join(map(around, chunk))
            if normalize_text(text) != reference_normalize_text(text):
                bad = [ch for ch in chunk
                       if normalize_text(around(ch)) != reference_normalize_text(around(ch))]
                pytest.fail(f"differs around U+{ord(bad[0]) if bad else ord(chunk[0]):04X}")

    # Combining marks: acute, cedilla, the long solidus overlay (which
    # composes with "=", "<" and ">"), an enclosing circle, and the voiced
    # and semi-voiced sound marks.
    MARKS = "\u0301\u0327\u0338\u20dd\u3099\u309a"

    def test_fullwidth_forms_before_combining_marks(self):
        """Each fullwidth form U+FF01-U+FF5E, which ``normalize_text``
        maps to ASCII before NFKC, followed by each mark in CJK text."""
        for cp in range(0xFF01, 0xFF5F):
            for mark in self.MARKS:
                raw = f"中文{chr(cp)}{mark}日本語，か{mark}{chr(cp)}"
                assert normalize_text(raw) == reference_normalize_text(raw), (
                    f"U+{cp:04X} U+{ord(mark):04X}")

    @given(st.text(alphabet=st.sampled_from(
        " \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u2029\u3000\uff21a\u0301\u1100\u1161\ufb01"), max_size=40))
    @settings(max_examples=1000)
    def test_on_whitespace_text(self, raw):
        assert normalize_text(raw) == reference_normalize_text(raw)

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_on_any_text(self, raw):
        assert normalize_text(raw) == reference_normalize_text(raw)


class TestDetectLanguage:
    def test_japanese(self):
        lang, confidence = detect_language("これは日本語の文です。")
        assert lang is LanguageTag.JA
        assert confidence >= 0.05

    def test_chinese(self):
        lang, confidence = detect_language("这是一个中文句子。")
        assert lang is LanguageTag.ZH
        assert confidence >= 0.5

    def test_other(self):
        lang, _ = detect_language("hello world")
        assert lang is LanguageTag.OTHER

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            detect_language("")

    @given(st.text(alphabet=st.characters(min_codepoint=0x3041, max_codepoint=0x3096), min_size=1, max_size=30))
    def test_pure_hiragana_is_japanese(self, text):
        lang, _ = detect_language(text)
        assert lang is LanguageTag.JA

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_total_and_deterministic(self, text):
        assert detect_language(text) == detect_language(text)


# The per-character scans ``detect_language`` and ``split_sentences``
# replaced, kept as their oracles.
_REF_KANA = ((0x3041, 0x309F), (0x30A0, 0x30FF), (0xFF66, 0xFF9D))
_REF_HAN = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF), (0x20000, 0x2A6DF))
_REF_TERMINALS = set("。．！？!?")
_REF_CLOSERS = set("」』）)]】》〉\"'”’")


def _in_ranges(ch, ranges):
    code = ord(ch)
    return any(lo <= code <= hi for lo, hi in ranges)


def reference_detect_language(text):
    if not text:
        raise ValueError("empty input")
    kana = han = total = 0
    for ch in text:
        if ch.isspace():
            continue
        total += 1
        if _in_ranges(ch, _REF_KANA):
            kana += 1
        elif _in_ranges(ch, _REF_HAN):
            han += 1
    cjk = kana + han
    kana_frac = kana / cjk if cjk else 0.0
    han_frac = han / total if total else 0.0
    if cjk and kana_frac >= 0.05:
        return LanguageTag.JA, kana_frac
    if han_frac >= 0.5 and kana_frac < 0.05:
        return LanguageTag.ZH, han_frac
    return LanguageTag.OTHER, 1.0 - (cjk / total if total else 0.0)


def reference_split_sentences(text):
    segments, buf = [], []
    n, i = len(text), 0

    def flush():
        seg = "".join(buf).strip()
        if seg:
            segments.append(seg)
        buf.clear()

    while i < n:
        ch = text[i]
        if ch == "\n":
            flush()
            i += 1
            continue
        buf.append(ch)
        is_terminal = ch in _REF_TERMINALS
        if ch == ".":
            nxt = text[i + 1] if i + 1 < n else ""
            is_terminal = nxt == "" or nxt.isspace() or nxt in _REF_CLOSERS
        if is_terminal:
            while i + 1 < n and text[i + 1] in _REF_CLOSERS:
                i += 1
                buf.append(text[i])
            flush()
        i += 1
    flush()
    merged, carry = [], ""
    for seg in segments:
        if len(seg) < 2:
            if merged:
                merged[-1] += seg
            else:
                carry += seg
        else:
            merged.append(carry + seg)
            carry = ""
    if carry:
        merged.append(carry)
    return merged


# Each range's edges and the code points just outside them, every
# terminal and closer, and whitespace of several kinds.
_EDGES = "".join(
    chr(c) for lo, hi in _REF_KANA + _REF_HAN for c in (lo - 1, lo, hi, hi + 1)
)
_SCAN_ALPHABET = _EDGES + "".join(_REF_TERMINALS | _REF_CLOSERS) + ".a3 \t\n\u3000\x85\x1c\u2028あ漢"


class TestRegexScansEqualReference:
    """The regex scans against the per-character loops they replaced."""

    def test_space_class_is_isspace_on_every_code_point(self):
        from localmine.text import _SPACE_RE

        spaces = {c for c in range(0x110000) if _SPACE_RE.match(chr(c))}
        assert spaces == {c for c in range(0x110000) if chr(c).isspace()}

    def test_range_edges_count_alone(self):
        for lo, hi in _REF_KANA + _REF_HAN:
            for code in (lo - 1, lo, hi, hi + 1):
                assert detect_language(chr(code)) == reference_detect_language(chr(code))

    @given(st.text(alphabet=_SCAN_ALPHABET, min_size=1, max_size=60))
    @settings(max_examples=500)
    def test_detect_language_on_edges(self, text):
        assert detect_language(text) == reference_detect_language(text)

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_detect_language_on_any_text(self, text):
        assert detect_language(text) == reference_detect_language(text)

    @given(st.text(alphabet=_SCAN_ALPHABET, max_size=60))
    @settings(max_examples=500)
    def test_split_sentences_on_terminals(self, text):
        assert [s.text for s in split_sentences(text)] == reference_split_sentences(text)

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_split_sentences_on_any_text(self, text):
        assert [s.text for s in split_sentences(text)] == reference_split_sentences(text)


class TestSplitSentences:
    def test_two_terminals(self):
        got = [s.text for s in split_sentences("今日は晴れ。明日は雨。")]
        assert got == ["今日は晴れ。", "明日は雨。"]

    def test_single_sentence(self):
        got = [s.text for s in split_sentences("你好！")]
        assert got == ["你好！"]

    def test_closing_quote_stays_attached(self):
        got = [s.text for s in split_sentences("「行く。」と言った。")]
        assert got == ["「行く。」", "と言った。"]

    def test_halfwidth_period_spares_decimals(self):
        got = [s.text for s in split_sentences("円周率は3.14です。次へ。")]
        assert got == ["円周率は3.14です。", "次へ。"]

    def test_newline_always_splits(self):
        got = [s.text for s in split_sentences("一行目\n二行目")]
        assert got == ["一行目", "二行目"]

    def test_short_fragment_merges_backward(self):
        got = [s.text for s in split_sentences("これが本文。あ")]
        assert got == ["これが本文。あ"]

    def test_ten_sentence_fixture_roundtrip(self):
        sentences = [f"第{i}文は説明である。" for i in range(1, 11)]
        text = "".join(sentences)
        got = split_sentences(text)
        assert [s.text for s in got] == sentences
        assert "".join(s.text for s in got) == text

    @given(st.text(alphabet="あい。！？ \n「」abc.3", max_size=80))
    @settings(max_examples=300)
    def test_roundtrip_property(self, text):
        got = split_sentences(text)
        joined = "".join(s.text for s in got)
        assert joined.replace(" ", "") == "".join(text.split())
        assert all(s.text.strip() for s in got)
        assert all(s.char_len == len(s.text) for s in got)


def reference_segment_words(text, lang, lexicon):
    """The per-character segmenter that ``segment_words`` replaced, kept
    as the oracle: it scans every candidate substring for whitespace."""
    headwords = lexicon.headwords(lang) if lexicon is not None else frozenset()
    max_len = max(map(len, headwords), default=1)
    tokens: list[str] = []
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        match = None
        limit = min(max_len, n - i)
        for width in range(limit, 1, -1):
            candidate = text[i : i + width]
            if any(c.isspace() for c in candidate):
                continue
            if candidate in headwords:
                match = candidate
                break
        if match is None:
            match = ch
        tokens.append(match)
        i += len(match)
    return tokens


_SEG_ALPHABET = "日本語学校あいAB \t\n\u3000\u00a0\u2028"


class TestSegmentWords:
    def test_whole_string_headword(self):
        lex = build_lexicon([("日本語", "日语")])
        assert segment_words("日本語", LanguageTag.JA, lex) == ["日本語"]

    def test_empty_lexicon_falls_back_to_characters(self):
        lex = build_lexicon([])
        assert segment_words("日本語", LanguageTag.JA, lex) == ["日", "本", "語"]

    def test_longest_match_wins(self):
        lex = build_lexicon([("ABA", "x"), ("AB", "y")])
        assert segment_words("ABAB", LanguageTag.JA, lex) == ["ABA", "B"]

    def test_widths_of_one_first_character(self):
        # "日" starts headwords of lengths 2, 3 and 5; near the end of a
        # run the longer ones do not fit and a shorter one must still match.
        lex = build_lexicon([("日本", "a"), ("日本語", "b"), ("日本語学校", "c"), ("本語", "d")])
        assert lex.headword_widths(LanguageTag.JA)["日"] == (5, 3, 2)
        for text in ("日本語学校", "日本語学", "日本語", "日本", "日", "本語日本語学", "日本語学校日本語"):
            got = segment_words(text, LanguageTag.JA, lex)
            assert got == reference_segment_words(text, LanguageTag.JA, lex)
        assert segment_words("日本語学日本", LanguageTag.JA, lex) == ["日本語", "学", "日本"]

    def test_tokens_never_span_spaces(self):
        lex = build_lexicon([("AB", "x")])
        assert segment_words("A B", LanguageTag.JA, lex) == ["A", "B"]

    @given(st.text(alphabet="日本語学校あいABC ", max_size=40))
    @settings(max_examples=200)
    def test_coverage_property(self, text):
        lex = build_lexicon([("日本", "日本"), ("日本語", "日语"), ("学校", "学校")])
        tokens = segment_words(text, LanguageTag.JA, lex)
        assert sum(len(t) for t in tokens) == sum(1 for ch in text if not ch.isspace())
        assert "".join(tokens) == "".join(text.split())

    @given(
        text=st.text(alphabet=_SEG_ALPHABET, max_size=40) | st.text(max_size=40),
        heads=st.none()
        | st.lists(st.text(alphabet=_SEG_ALPHABET, min_size=1, max_size=4), max_size=8),
        lang=st.sampled_from([LanguageTag.JA, LanguageTag.ZH]),
    )
    @settings(max_examples=400)
    def test_equals_reference(self, text, heads, lang):
        lex = None if heads is None else build_lexicon([(h, h) for h in heads])
        assert segment_words(text, lang, lex) == reference_segment_words(text, lang, lex)
