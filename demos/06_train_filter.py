"""The sentence-pair filter: translation probabilities (EM), character
LMs and a bagged-tree classifier trained on synthetic negatives, plus
the embedding-similarity gate.

Run: python demos/06_train_filter.py
"""

import random

from localmine import LanguageTag, train_filter
from localmine.embeddings import write_vector_file, FileVectorProvider
from localmine.filtering import CorpusRecord, embedding_gate
from localmine.lexicon import build_lexicon
from localmine.text import make_segmenter

SUBJECTS = [("学生", "学生"), ("医者", "医生"), ("記者", "记者")]
OBJECTS = [("新聞", "报纸"), ("小説", "小说"), ("映画", "电影"), ("音楽", "音乐")]
VERBS = [("読む", "读"), ("見る", "看"), ("聞く", "听")]

lexicon = build_lexicon(SUBJECTS + OBJECTS + VERBS)

rng = random.Random(1)
parallel = []
for s in SUBJECTS:
    for o in OBJECTS:
        for v in VERBS:
            parallel.append((f"{s[0]}は{o[0]}を{v[0]}。", f"{s[1]}{v[1]}{o[1]}。"))
            n = rng.randrange(1, 100)
            parallel.append(
                (f"{s[0]}は{n}冊の{o[0]}を{v[0]}。", f"{s[1]}{v[1]}{n}本{o[1]}。")
            )

bitext_filter = train_filter(
    parallel,
    lexicon,
    make_segmenter(lexicon, LanguageTag.JA),
    make_segmenter(lexicon, LanguageTag.ZH),
    seed=0,
)

seg_ja = make_segmenter(lexicon, LanguageTag.JA)
seg_zh = make_segmenter(lexicon, LanguageTag.ZH)
probes = [
    ("学生は新聞を読む。", "学生读报纸。"),       # parallel
    ("学生は新聞を読む。", "医生听音乐。"),       # mismatched translation
    ("記者は映画を見る。", "记者看电"),           # truncated target
]
print("classifier scores (threshold 0.5):")
for ja, zh in probes:
    [fv] = bitext_filter.features([(ja, zh, seg_ja(ja), seg_zh(zh))], lexicon)
    score = bitext_filter.score(fv)
    print(f"  {score:.2f}  {ja} ||| {zh}")

# The embedding gate runs behind a provider interface; here a
# precomputed-vector file stands in for a sentence-embedding service.
import tempfile
from pathlib import Path

pairs = [CorpusRecord(ja="学生は新聞を読む。", zh="学生读报纸。"),
         CorpusRecord(ja="学生は新聞を読む。", zh="医生听音乐。")]
with tempfile.TemporaryDirectory() as tmp:
    vectors = Path(tmp) / "vectors.jsonl"
    write_vector_file(vectors, {
        "学生は新聞を読む。": [0.9, 0.1],
        "学生读报纸。": [0.88, 0.12],   # nearly the same direction
        "医生听音乐。": [0.1, 0.9],     # dissimilar
    })
    kept = embedding_gate(pairs, FileVectorProvider(vectors), threshold=0.7)
print("\nembedding gate kept:")
for pair in kept:
    print(f"  sim={pair.embed_sim:.2f}  {pair.ja} ||| {pair.zh}")
