"""Sentence alignment: dynamic programming over bead types (0-1 through
2-2) with a normal-deviate length cost, bead-type priors, and a
dictionary-similarity bonus.

Run: python demos/05_align_sentences.py
"""

from localmine import LanguageTag, align_sentences, build_lexicon, extract_pairs
from localmine.text import Sentence, segment_words

lexicon = build_lexicon(
    [("学生", "学生"), ("新聞", "报纸"), ("読む", "读"), ("映画", "电影"),
     ("見る", "看"), ("図書館", "图书馆"), ("好き", "喜欢"), ("新しい", "新"),
     ("近く", "附近"), ("映画館", "电影院"), ("今日", "今天")]
)


def sentences(lang, texts):
    out = []
    for text in texts:
        s = Sentence(text=text)
        s.tokens = segment_words(text, lang, lexicon)
        out.append(s)
    return out


def show(ladder, src, trg):
    print(f"total cost {ladder.total_cost:.3f}")
    for bead in ladder.beads:
        s0, sn = bead.src_span
        t0, tn = bead.trg_span
        left = " / ".join(s.text for s in src[s0 : s0 + sn]) or "-"
        right = " / ".join(t.text for t in trg[t0 : t0 + tn]) or "-"
        print(f"  [{bead.kind.code}] cost={bead.cost:5.2f}  {left}  <->  {right}")


# A mirrored passage: lexical anchors pin the diagonal.
src = sentences(LanguageTag.JA, [
    "学生は新聞を読む。",
    "図書館で映画の雑誌を見る。",
    "映画を見るのが好き。",
])
trg = sentences(LanguageTag.ZH, [
    "学生读报纸。",
    "在图书馆看电影杂志。",
    "喜欢看电影。",
])
ladder = align_sentences(src, trg, lexicon, lam=3.0)
print("mirrored passage:")
show(ladder, src, trg)

print("\nextracted candidate pairs (cost ceiling 10):")
for ja, zh, cost, _, _ in extract_pairs(ladder, src, trg, max_cost=10.0):
    print(f"  ({cost:4.2f}) {ja} ||| {zh}")

# One long Japanese sentence split over two Chinese sentences: the
# length model makes the 1-2 bead cheaper than any alternative tiling.
src2 = sentences(LanguageTag.JA, ["今日の映画は図書館の近くの新しい映画館で見る。"])
trg2 = sentences(LanguageTag.ZH, ["今天的电影在图书馆附近。", "在新的电影院看。"])
print("\nsplit sentence on the target side:")
show(align_sentences(src2, trg2, lexicon, lam=3.0), src2, trg2)
