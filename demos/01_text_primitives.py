"""Text primitives: normalization, language identification, sentence
splitting and lexicon-driven word segmentation.

Run: python demos/01_text_primitives.py
"""

from localmine import (
    LanguageTag,
    build_lexicon,
    detect_language,
    normalize_text,
    segment_words,
    split_sentences,
)

# NFKC folds width variants; whitespace runs collapse to single spaces.
for raw in ("Ａ　Ｂ", "  x \t y \r\n", "ﾃｽﾄ"):
    print(f"normalize {raw!r:24} -> {normalize_text(raw)!r}")
print()

# Script statistics separate the language pair: kana marks Japanese,
# Han without kana marks Chinese.
for text in ("これは日本語の文です。", "这是一个中文句子。", "hello world"):
    lang, confidence = detect_language(text)
    print(f"detect    {text:18} -> {lang.value:6} (confidence {confidence:.2f})")
print()

text = normalize_text("今日は晴れ。明日は雨。「行くよ。」と言った。円周率は3.14です。")
for sentence in split_sentences(text):
    print(f"sentence  {sentence.text}")
print()

# Greedy longest match over the lexicon headwords; unknown characters
# fall back to single-character tokens.
lexicon = build_lexicon([("日本語", "日语"), ("新聞", "报纸"), ("読む", "读")])
tokens = segment_words("私は日本語の新聞を読む。", LanguageTag.JA, lexicon)
print("segmented:", " | ".join(tokens))
