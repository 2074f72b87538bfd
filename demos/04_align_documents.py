"""Document alignment inside one site: score JA/ZH page pairs from
dictionary coverage, URL shape, HTML structure and length, then match
greedily.

Run: python demos/04_align_documents.py
"""

from localmine import LanguageTag, build_lexicon, match_documents
from localmine.htmltext import extract_page
from localmine.text import document_from_text, segment_words

lexicon = build_lexicon(
    [
        ("学生", "学生"), ("新聞", "报纸"), ("読む", "读"), ("図書館", "图书馆"),
        ("映画", "电影"), ("見る", "看"), ("天気", "天气"), ("晴れ", "晴天"),
    ]
)

PAGES = {
    "https://example.jp/ja/news/1.html":
        "<html><body><h1>ニュース</h1><p>学生は新聞を読む。</p><p>図書館で読む。</p></body></html>",
    "https://example.jp/ja/news/2.html":
        "<html><body><h1>天気</h1><p>今日は晴れです。</p></body></html>",
    "https://example.jp/zh/news/1.html":
        "<html><body><h1>新闻</h1><p>学生读报纸。</p><p>在图书馆读。</p></body></html>",
    "https://example.jp/zh/news/2.html":
        "<html><body><h1>天气</h1><p>今天是晴天。</p></body></html>",
}


def to_document(url, html):
    text, digest, _ = extract_page(html)
    doc = document_from_text(url, text, tag_digest=digest)
    for sentence in doc.sentences:
        sentence.tokens = segment_words(sentence.text, doc.lang, lexicon)
    return doc


documents = [to_document(url, html) for url, html in sorted(PAGES.items())]
docs_ja = [d for d in documents if d.lang is LanguageTag.JA]
docs_zh = [d for d in documents if d.lang is LanguageTag.ZH]

print("pairwise similarity features:")
for a in docs_ja:
    for b in docs_zh:
        names = f"  {a.url.rsplit('/', 1)[1]} vs {b.url.rsplit('/', 1)[1]}"
        # A 1x1 match at min_score 0 keeps the pair unless the URL and
        # dictionary pre-filter rules it out.
        scored = match_documents([a], [b], lexicon, min_score=0.0)
        if not scored:
            print(f"{names}: not scored (fails the URL and dictionary pre-filter)")
            continue
        cells = ", ".join(f"{k}={v:.2f}" for k, v in scored[0].features.items())
        print(f"{names}: score={scored[0].score:.2f} ({cells})")

print("\ngreedy one-to-one matching:")
for pair in match_documents(docs_ja, docs_zh, lexicon, min_score=0.4):
    print(f"  {pair.doc_ja.url} <-> {pair.doc_zh.url} (score {pair.score:.2f})")
