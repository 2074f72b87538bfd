import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from localmine import docalign
from localmine.docalign import DEFAULT_WEIGHTS, FEATURE_NAMES, match_documents
from localmine.lexicon import build_lexicon
from localmine.text import Document, LanguageTag, Sentence


def make_doc(url, lang, token_rows, digest=("p", "p"), chars=None):
    sentences = []
    for tokens in token_rows:
        text = "".join(tokens)
        s = Sentence(text=text)
        s.tokens = list(tokens)
        sentences.append(s)
    doc = Document(url=url, lang=lang, sentences=sentences, tag_digest=list(digest))
    doc.raw_char_count = chars if chars is not None else sum(s.char_len for s in sentences)
    return doc


def score_pair(a, b, lexicon):
    """The pair ``match_documents`` keeps from one JA and one ZH
    document at ``min_score=0.0``; None when the pair is not scored."""
    pairs = match_documents([a], [b], lexicon, min_score=0.0)
    return pairs[0] if pairs else None


@pytest.fixture()
def perfect_lexicon():
    return build_lexicon([("犬", "狗"), ("猫", "猫"), ("鳥", "鸟"), ("魚", "鱼")])


class TestDocSimilarity:
    def test_mirror_pages_saturate_features(self, perfect_lexicon):
        a = make_doc("https://x.jp/ja/p.html", LanguageTag.JA, [["犬", "猫"], ["鳥", "魚"]])
        b = make_doc("https://x.jp/zh/p.html", LanguageTag.ZH, [["狗", "猫"], ["鸟", "鱼"]],
                     chars=a.raw_char_count)
        pair = score_pair(a, b, perfect_lexicon)
        assert pair.features["dict_sim"] == pytest.approx(1.0)
        assert pair.features["struct_sim"] == pytest.approx(1.0)
        assert pair.features["len_ratio"] == pytest.approx(1.0)
        assert pair.features["url_sim"] == pytest.approx(1.0)
        assert pair.score == pytest.approx(1.0)

    def test_url_similarity_after_marker_stripping(self, perfect_lexicon):
        a = make_doc("https://x.jp/ja/news/1.html", LanguageTag.JA, [["犬"]])
        b = make_doc("https://x.jp/zh/news/1.html", LanguageTag.ZH, [["狗"]])
        assert score_pair(a, b, perfect_lexicon).features["url_sim"] == pytest.approx(1.0)

    def test_struct_similarity_edit_distance(self, perfect_lexicon):
        a = make_doc("https://x.jp/a", LanguageTag.JA, [["犬"]], digest=("p", "p", "h1"))
        b = make_doc("https://x.jp/b", LanguageTag.ZH, [["狗"]], digest=("p", "h1"))
        features = score_pair(a, b, perfect_lexicon).features
        assert features["struct_sim"] == pytest.approx(1 - 1 / 3)

    def test_zero_length_document(self, perfect_lexicon):
        a = make_doc("https://x.jp/a", LanguageTag.JA, [])
        b = make_doc("https://x.jp/b", LanguageTag.ZH, [["狗"]])
        assert score_pair(a, b, perfect_lexicon) is None
        assert score_pair(b, a, perfect_lexicon) is None

    def test_score_is_a_left_fold(self, perfect_lexicon):
        """The weighted terms are added left to right from 0.0, so the
        score's bits do not depend on whether ``sum`` compensates
        (Python 3.12 does)."""
        a = make_doc("https://x.jp/ja/news/1.html", LanguageTag.JA,
                     [["犬", "猫"], ["鳥", "魚", "山"]], digest=("p", "p", "h1"))
        b = make_doc("https://x.jp/zh/news/1.html", LanguageTag.ZH,
                     [["狗", "猫"], ["鸟"]], digest=("p", "p", "p", "div"))
        c = make_doc("https://x.jp/zh/n/2.html", LanguageTag.ZH,
                     [["狗", "海", "鱼"], ["猫"]], digest=("p", "h1"))
        exact_differs = False
        for other in (b, c):
            pair = score_pair(a, other, perfect_lexicon)
            terms = [w * pair.features[name] for w, name in zip(DEFAULT_WEIGHTS, FEATURE_NAMES)]
            fold = 0.0
            for term in terms:
                fold += term
            assert pair.score == fold
            exact_differs |= math.fsum(terms) != fold
        # The inputs are ones where an exactly rounded sum would differ.
        assert exact_differs


class TestMatchDocuments:
    def test_single_pair(self, perfect_lexicon):
        a = make_doc("https://x.jp/ja/p.html", LanguageTag.JA, [["犬", "猫"]])
        b = make_doc("https://x.jp/zh/p.html", LanguageTag.ZH, [["狗", "猫"]])
        pairs = match_documents([a], [b], perfect_lexicon, min_score=0.3)
        assert len(pairs) == 1
        assert pairs[0].doc_ja is a and pairs[0].doc_zh is b

    def test_greedy_two_by_two(self, perfect_lexicon):
        # Dictionary evidence makes s(A,X)=s(B,Y)=1 dominate the cross
        # pairs; greedy must select the two dominant pairs.
        a = make_doc("https://x.jp/ja/p.html", LanguageTag.JA, [["犬", "犬"]])
        b = make_doc("https://x.jp/ja/q.html", LanguageTag.JA, [["犬", "猫"]])
        x = make_doc("https://x.jp/zh/p.html", LanguageTag.ZH, [["狗", "狗"]])
        y = make_doc("https://x.jp/zh/q.html", LanguageTag.ZH, [["狗", "猫"]])
        pairs = match_documents([a, b], [x, y], perfect_lexicon, min_score=0.2)
        chosen = {(p.doc_ja.url, p.doc_zh.url) for p in pairs}
        assert chosen == {(a.url, x.url), (b.url, y.url)}

    def test_injectivity_fuzz(self, perfect_lexicon):
        rng = random.Random(23)
        animals_ja = ["犬", "猫", "鳥", "魚"]
        animals_zh = ["狗", "猫", "鸟", "鱼"]
        for _ in range(30):
            docs_ja = [
                make_doc(f"https://x.jp/ja/{i}", LanguageTag.JA,
                         [[rng.choice(animals_ja) for _ in range(3)]])
                for i in range(rng.randrange(1, 6))
            ]
            docs_zh = [
                make_doc(f"https://x.jp/zh/{j}", LanguageTag.ZH,
                         [[rng.choice(animals_zh) for _ in range(3)]])
                for j in range(rng.randrange(1, 6))
            ]
            pairs = match_documents(docs_ja, docs_zh, perfect_lexicon, min_score=0.0)
            assert len({id(p.doc_ja) for p in pairs}) == len(pairs)
            assert len({id(p.doc_zh) for p in pairs}) == len(pairs)
            assert all(0.0 <= p.score <= 1.0 for p in pairs)

    def test_per_document_work_is_linear(self, monkeypatch, perfect_lexicon):
        """Each document's URL residue and token bag are computed once
        per call, not once per pair."""
        calls = {"strip_lang_markers": 0, "token_bag": 0}
        strip, token_bag = docalign.strip_lang_markers, Document.token_bag

        def counting_strip(*args):
            calls["strip_lang_markers"] += 1
            return strip(*args)

        def counting_token_bag(doc):
            calls["token_bag"] += 1
            return token_bag(doc)

        monkeypatch.setattr(docalign, "strip_lang_markers", counting_strip)
        monkeypatch.setattr(Document, "token_bag", counting_token_bag)
        n, m = 3, 5
        docs_ja = [make_doc(f"https://x.jp/ja/{i}", LanguageTag.JA, [["犬", "猫"]]) for i in range(n)]
        docs_zh = [make_doc(f"https://x.jp/zh/{j}", LanguageTag.ZH, [["狗", "猫"]]) for j in range(m)]
        assert len(match_documents(docs_ja, docs_zh, perfect_lexicon, min_score=0.0)) == n
        assert calls == {"strip_lang_markers": n + m, "token_bag": n + m}

    def test_mirror_site_matches_mapping(self, starter_lexicon, fixture_site):
        """10x10 mirror fixture: at least 9 of 10 matches are correct."""
        from localmine.crawl import CrawlBudget, crawl_site
        from localmine.discovery import CandidateSite
        from localmine.fetching import snapshot_fetch
        from localmine.pipeline import pages_to_documents

        site = CandidateSite(
            host="example-news.jp",
            seed_urls=[
                "https://example-news.jp/ja/index.html",
                "https://example-news.jp/zh/index.html",
            ],
            source="crowd",
        )
        fetch = snapshot_fetch(fixture_site.snapshot_dir)
        store = crawl_site(site, CrawlBudget(per_host_delay_ms=0), fetch)
        docs_ja, docs_zh = pages_to_documents(store, starter_lexicon)
        pairs = match_documents(docs_ja, docs_zh, starter_lexicon)
        correct = 0
        for pair in pairs:
            ja_path = pair.doc_ja.url.replace("/ja/", "/")
            zh_path = pair.doc_zh.url.replace("/zh/", "/")
            if ja_path == zh_path:
                correct += 1
        assert correct >= 9

    def test_greedy_equals_hungarian_when_gaps_large(self, perfect_lexicon):
        """On mirror-structured instances whose true pair dominates its
        row and column by more than 0.05, greedy equals the optimal
        assignment (Hungarian oracle, <=8x8)."""
        checked = 0
        for n, seed in itertools.product(range(2, 9), range(4)):
            docs_ja, docs_zh, matrix = _mirror_instance(n, seed, perfect_lexicon)
            if not _dominant_margins_ok(matrix, margin=0.05):
                continue
            checked += 1
            pairs = match_documents(docs_ja, docs_zh, perfect_lexicon, min_score=0.0)
            greedy_total = sum(p.score for p in pairs)
            row, col = linear_sum_assignment(-matrix)
            hungarian_total = float(matrix[row, col].sum())
            assert greedy_total == pytest.approx(hungarian_total, abs=1e-9)
            assert {(p.doc_ja.url, p.doc_zh.url) for p in pairs} == {
                (docs_ja[i].url, docs_zh[i].url) for i in range(n)
            }
        assert checked >= 15


def _mirror_instance(n, seed, lexicon):
    """n JA docs and their mirrors with noisy lengths/digests; returns the
    full score matrix, each cell scored by ``match_documents`` alone."""
    rng = random.Random(1000 * n + seed)
    animals = [("犬", "狗"), ("猫", "猫"), ("鳥", "鸟"), ("魚", "鱼")]
    docs_ja, docs_zh = [], []
    for i in range(n):
        words = [rng.choice(animals) for _ in range(4 + (i % 3))]
        digest = ["p"] * (2 + i % 4) + ["h1"] * (i % 2)
        chars = 40 + 11 * i
        docs_ja.append(
            make_doc(f"https://x.jp/ja/a{i}.html", LanguageTag.JA,
                     [[w[0] for w in words]], digest=digest, chars=chars)
        )
        docs_zh.append(
            make_doc(f"https://x.jp/zh/a{i}.html", LanguageTag.ZH,
                     [[w[1] for w in words]], digest=digest, chars=chars + rng.randrange(3))
        )
    matrix = np.zeros((n, n))
    for i, dj in enumerate(docs_ja):
        for j, dz in enumerate(docs_zh):
            matrix[i, j] = score_pair(dj, dz, lexicon).score
    return docs_ja, docs_zh, matrix


def _dominant_margins_ok(matrix, margin):
    n = matrix.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if matrix[i, i] < matrix[i, j] + margin or matrix[j, j] < matrix[i, j] + margin:
                return False
    return True


def reference_match_documents(pages_ja, pages_zh, lex, min_score=docalign.DEFAULT_MIN_SCORE):
    """``match_documents`` as it was before document keys held
    translation rows and counts: ``coverage`` over the two token bags
    for every pair."""
    from localmine.lexicon import coverage
    from localmine.urls import normalized_similarity, strip_lang_markers

    def score(a, key_a, b, key_b):
        if a.raw_char_count == 0 or b.raw_char_count == 0:
            return None
        url_sim = normalized_similarity(key_a[0], key_b[0])
        j2z = coverage(key_a[1], key_b[1], lex, LanguageTag.JA)
        z2j = coverage(key_b[1], key_a[1], lex, LanguageTag.ZH)
        dict_sim = 0.0 if j2z + z2j == 0.0 else 2.0 * j2z * z2j / (j2z + z2j)
        if url_sim < docalign.PREFILTER_URL_SIM and dict_sim < docalign.PREFILTER_DICT_SIM:
            return None
        features = {
            "dict_sim": dict_sim,
            "url_sim": url_sim,
            "struct_sim": normalized_similarity(a.tag_digest, b.tag_digest),
            "len_ratio": (
                min(a.raw_char_count, b.raw_char_count)
                / max(a.raw_char_count, b.raw_char_count)
            ),
        }
        total = 0.0
        for w, name in zip(DEFAULT_WEIGHTS, FEATURE_NAMES):
            total += w * features[name]
        return total, features

    keys_ja = [(strip_lang_markers(d.url), d.token_bag()) for d in pages_ja]
    keys_zh = [(strip_lang_markers(d.url), d.token_bag()) for d in pages_zh]
    scored = []
    for i, (doc_ja, key_ja) in enumerate(zip(pages_ja, keys_ja)):
        for j, (doc_zh, key_zh) in enumerate(zip(pages_zh, keys_zh)):
            found = score(doc_ja, key_ja, doc_zh, key_zh)
            if found is None or found[0] < min_score:
                continue
            total, features = found
            scored.append((total, features["url_sim"], doc_ja.url, doc_zh.url, i, j, features))
    scored.sort(key=lambda row: (-row[0], -row[1], row[2], row[3]))
    used_ja, used_zh, pairs = set(), set(), []
    for total, _, _, _, i, j, features in scored:
        if i in used_ja or j in used_zh:
            continue
        used_ja.add(i)
        used_zh.add(j)
        pairs.append(docalign.DocPair(pages_ja[i], pages_zh[j], total, features))
    return pairs


# Words a* and b* with several senses each (a0 and a1 both name b0,
# b0 names a0 and a1), words with one sense, and u* that no entry names.
_MULTI_SENSE = build_lexicon([
    ("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b2"), ("a2", "b2"), ("a3", "b3"),
])
_BAG_WORDS = ("a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "u0", "u1")


@st.composite
def _random_docs(draw, lang, prefix):
    """Documents whose bags are empty, untranslatable or multi-sense,
    with a random URL, digest and character count (0 included)."""
    docs = []
    for k in range(draw(st.integers(0, 4))):
        rows = draw(st.lists(st.lists(st.sampled_from(_BAG_WORDS), max_size=5), max_size=3))
        docs.append(make_doc(
            f"https://x.jp/{prefix}/{draw(st.sampled_from(['a', 'b', 'news/1']))}{k}.html",
            lang,
            rows,
            digest=draw(st.lists(st.sampled_from(["p", "h1", "div"]), max_size=4)),
            chars=draw(st.integers(0, 30)),
        ))
    return docs


def _rows(pairs):
    return [(p.doc_ja.url, p.doc_zh.url, p.score, p.features) for p in pairs]


class TestDocumentKeysEqualReference:
    """Per-document keys against ``coverage`` over the bags, and
    ``match_documents`` against its former per-pair version."""

    @settings(max_examples=300, deadline=None)
    @given(ja=st.lists(st.sampled_from(_BAG_WORDS), max_size=8),
           zh=st.lists(st.sampled_from(_BAG_WORDS), max_size=8))
    def test_key_coverage_is_coverage(self, ja, zh):
        from localmine.lexicon import coverage

        key_ja = docalign._doc_key(make_doc("u", LanguageTag.JA, [ja]),
                                   _MULTI_SENSE.headwords(LanguageTag.JA))
        key_zh = docalign._doc_key(make_doc("v", LanguageTag.ZH, [zh]),
                                   _MULTI_SENSE.headwords(LanguageTag.ZH))
        assert docalign._coverage(key_ja, key_zh) == coverage(ja, zh, _MULTI_SENSE, LanguageTag.JA)
        assert docalign._coverage(key_zh, key_ja) == coverage(zh, ja, _MULTI_SENSE, LanguageTag.ZH)

    @settings(max_examples=200, deadline=None)
    @given(ja=_random_docs(LanguageTag.JA, "ja"), zh=_random_docs(LanguageTag.ZH, "zh"),
           min_score=st.sampled_from([0.0, 0.2, docalign.DEFAULT_MIN_SCORE]))
    def test_match_documents_equals_reference(self, ja, zh, min_score):
        got = match_documents(ja, zh, _MULTI_SENSE, min_score=min_score)
        assert _rows(got) == _rows(reference_match_documents(ja, zh, _MULTI_SENSE, min_score))

    def test_mirror_instances_equal_reference(self, perfect_lexicon):
        for n, seed in itertools.product(range(2, 7), range(3)):
            docs_ja, docs_zh, _ = _mirror_instance(n, seed, perfect_lexicon)
            got = match_documents(docs_ja, docs_zh, perfect_lexicon, min_score=0.0)
            want = reference_match_documents(docs_ja, docs_zh, perfect_lexicon, 0.0)
            assert _rows(got) == _rows(want)

    def test_fixture_site_equals_reference(self, starter_lexicon, fixture_site):
        from localmine.crawl import CrawlBudget, crawl_site
        from localmine.discovery import CandidateSite
        from localmine.fetching import snapshot_fetch
        from localmine.pipeline import pages_to_documents

        site = CandidateSite(host="example-news.jp", source="crowd", seed_urls=[
            "https://example-news.jp/ja/index.html", "https://example-news.jp/zh/index.html",
        ])
        store = crawl_site(site, CrawlBudget(per_host_delay_ms=0),
                           snapshot_fetch(fixture_site.snapshot_dir))
        docs_ja, docs_zh = pages_to_documents(store, starter_lexicon)
        for min_score in (0.0, docalign.DEFAULT_MIN_SCORE):
            got = match_documents(docs_ja, docs_zh, starter_lexicon, min_score=min_score)
            want = reference_match_documents(docs_ja, docs_zh, starter_lexicon, min_score)
            assert _rows(got) == _rows(want)
