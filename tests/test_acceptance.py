"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured values.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import json
import math
import random
import time
from itertools import chain

import mpmath
import pytest
from scipy.optimize import linear_sum_assignment

from localmine.charlm import train_char_lm
from localmine.config import load_config
from localmine.crawl import CrawlBudget, crawl_site
from localmine.docalign import match_documents
from localmine.filtering import (
    CorpusRecord,
    embedding_gate,
    extract_features,
    synthesize_negatives,
    train_classifier,
)
from localmine.lexicon import build_lexicon, reduce_dictionary, single_char_pairs
from localmine.model1 import train_model1
from localmine.pipeline import SiteReport, emit_report, run_pipeline
from localmine.sentalign import align_sentences, length_cost
from localmine.text import LanguageTag, Sentence, make_segmenter

from sitegen import unique_sentences, write_run_config
from test_lexicon import make_planted_raw_entries
from test_sentalign import brute_force_min_cost, sent


def _verdict(name: str, passed: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")


class TestAcceptance:
    def test_ac1_sentence_alignment_optimality(self, mirror_lexicon):
        rng = random.Random(101)
        words_ja = ["学生", "新聞", "図書館", "映画", "東京", "公園", "好き"]
        words_zh = ["学生", "报纸", "图书馆", "电影", "东京", "公园", "喜欢"]
        start = time.monotonic()
        worst = 0.0
        for _ in range(500):
            n, m = rng.randrange(0, 7), rng.randrange(0, 7)
            src = [
                sent("".join(rng.choice(words_ja) for _ in range(rng.randrange(1, 4))))
                for _ in range(n)
            ]
            trg = [
                sent("".join(rng.choice(words_zh) for _ in range(rng.randrange(1, 4))))
                for _ in range(m)
            ]
            for s in src:
                s.tokens = [s.text[i : i + 2] for i in range(0, len(s.text), 2)]
            for t in trg:
                t.tokens = [t.text[i : i + 2] for i in range(0, len(t.text), 2)]
            # At most 6 target sentences: the DP runs on the full grid.
            ladder = align_sentences(src, trg, mirror_lexicon)
            oracle = brute_force_min_cost(src, trg, mirror_lexicon, 3.0)
            worst = max(worst, abs(ladder.total_cost - oracle))
        elapsed = time.monotonic() - start
        ok = worst <= 1e-9 and elapsed < 60.0
        _verdict("AC-1 alignment optimality",
                 ok, f"max |DP-bruteforce| = {worst:.2e}, 500 instances in {elapsed:.1f}s")
        assert worst <= 1e-9
        assert elapsed < 60.0

    def test_ac2_length_cost_component(self):
        zero = length_cost(100, 100)
        monotone = True
        previous = -1.0
        for d in range(0, 200, 5):
            cost = length_cost(100, 100 + d)
            if cost < previous - 1e-12:
                monotone = False
            previous = cost
        delta = (80 - 50) / math.sqrt(50 * 6.8)
        oracle = float(-mpmath.log(2 * (1 - mpmath.ncdf(delta))))
        got = length_cost(50, 80)
        ok = abs(zero) <= 1e-9 and monotone and abs(got - oracle) <= 1e-6
        _verdict("AC-2 length-cost component",
                 ok, f"cost(l,l)={zero:.1e}, |impl-oracle|={abs(got - oracle):.2e}")
        assert abs(zero) <= 1e-9
        assert monotone
        assert abs(got - oracle) <= 1e-6

    def test_ac3_model1_em(self):
        corpus = [(["a"], ["x"]), (["a", "b"], ["x", "y"]), (["b"], ["y"])]
        table = train_model1(corpus, iterations=20)
        lls = table.log_likelihoods
        ll_ok = all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
        sums_ok = all(
            abs(sum(row.values()) - 1.0) <= 1e-6 for row in table.t.values()
        )
        p_xa, p_yb = table.t["a"]["x"], table.t["b"]["y"]
        ok = p_xa >= 0.9 and p_yb >= 0.9 and ll_ok and sums_ok
        _verdict("AC-3 Model 1 EM", ok,
                 f"t(x|a)={p_xa:.3f}, t(y|b)={p_yb:.3f}, LL monotone={ll_ok}")
        assert p_xa >= 0.9 and p_yb >= 0.9
        assert ll_ok and sums_ok

    def test_ac4_lexicon_reduction(self):
        kept = list(reduce_dictionary(make_planted_raw_entries(total=1000, single=730)))
        chars = [(chr(0x4E00 + i), chr(0x6C00 + i)) for i in range(60)]
        reduced = len(build_lexicon(kept))
        lex = build_lexicon(chain(kept, single_char_pairs(chars)))
        ok = reduced == 730 and len(lex) == 790
        _verdict("AC-4 lexicon reduction", ok, f"reduced={reduced}, augmented={len(lex)}")
        assert reduced == 730
        assert len(lex) == 790

    def test_ac5_filter_quality(self, starter_lexicon):
        start = time.monotonic()
        rng = random.Random(551)
        positives = unique_sentences(1000, rng, set(), short_share=0.2)
        labeled = synthesize_negatives(positives, seed=5)
        split = int(len(labeled) * 0.8)
        train_rows, test_rows = labeled[:split], labeled[split:]

        seg_ja = make_segmenter(starter_lexicon, LanguageTag.JA)
        seg_zh = make_segmenter(starter_lexicon, LanguageTag.ZH)
        train_pos = [(r.ja, r.zh) for r in train_rows if r.label == 1]
        tokenized = [(seg_ja(ja), seg_zh(zh)) for ja, zh in train_pos]
        table_j2z = train_model1(tokenized, iterations=5)
        table_z2j = train_model1([(b, a) for a, b in tokenized], iterations=5)
        lm_ja = train_char_lm([ja for ja, _ in train_pos], n=5, k=0.1)
        lm_zh = train_char_lm([zh for _, zh in train_pos], n=5, k=0.1)

        def featurize(rows):
            features = extract_features(
                [(r.ja, r.zh, seg_ja(r.ja), seg_zh(r.zh)) for r in rows],
                table_j2z, table_z2j, lm_ja, lm_zh, starter_lexicon,
            )
            return [(fv, r.label) for fv, r in zip(features, rows)]

        train_feats = featurize(train_rows)
        test_feats = featurize(test_rows)
        model = train_classifier(train_feats, trees=100, depth=8, seed=5)
        test_x = [fv for fv, _ in test_feats]
        correct = sum(
            1 for score, (_, label) in zip(model.predict_proba(test_x), test_feats)
            if (score >= 0.5) == bool(label)
        )
        accuracy = correct / len(test_feats)

        perm_rng = random.Random(99)
        perm_labels = [label for _, label in train_feats]
        perm_rng.shuffle(perm_labels)
        perm_rows = [(fv, label) for (fv, _), label in zip(train_feats, perm_labels)]
        perm_model = train_classifier(perm_rows, trees=100, depth=8, seed=6)
        perm_correct = sum(
            1 for score, (_, label) in zip(perm_model.predict_proba(test_x), test_feats)
            if (score >= 0.5) == bool(label)
        )
        perm_accuracy = perm_correct / len(test_feats)
        elapsed = time.monotonic() - start
        ok = accuracy >= 0.90 and 0.4 <= perm_accuracy <= 0.6 and elapsed < 120.0
        _verdict("AC-5 filter quality", ok,
                 f"held-out acc={accuracy:.3f}, permuted acc={perm_accuracy:.3f}, {elapsed:.0f}s")
        assert accuracy >= 0.90
        assert 0.4 <= perm_accuracy <= 0.6
        assert elapsed < 120.0

    def test_ac6_end_to_end_fixture(self, fixture_site, tmp_path):
        from localmine.cli import main as cli_main

        out_dir = tmp_path / "out"
        config_path = write_run_config(fixture_site, out_dir, snapshot_in_config=False)
        code = cli_main([
            "--config", str(config_path),
            "--snapshot-dir", str(fixture_site.snapshot_dir),
            "run",
        ])
        assert code == 0
        true_set = set(map(tuple, fixture_site.true_pairs))
        kept = [
            json.loads(line)
            for line in open(out_dir / "corpus.jsonl", encoding="utf-8")
        ]
        recovered = sum(1 for k in kept if (k["ja"], k["zh"]) in true_set)
        spurious = sum(1 for k in kept if (k["ja"], k["zh"]) not in true_set)
        recovery = recovered / len(true_set)
        spurious_rate = spurious / max(len(kept), 1)

        report_rows = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        (report,) = [SiteReport.from_json(r) for r in report_rows]
        conservation = report.n_urls == report.n_errors + report.n_crawled
        header = emit_report([], "tsv").decode().strip()
        schema_ok = header == "source\t#URLs\t#errors\t#crawled\t#extracted (rate)\t#sentences"

        paper_rows = [
            SiteReport(source="Common Crawl", n_urls=40000, n_errors=19878,
                       n_extracted=5483, n_sentences=2786467),
            SiteReport(source="Crowdsourcing", n_urls=11184, n_errors=168,
                       n_extracted=8204, n_sentences=4602328),
        ]
        rendered = emit_report(paper_rows, "tsv").decode("utf-8")
        cells_ok = "5483 (0.272)" in rendered and "8204 (0.745)" in rendered

        ok = recovery >= 0.9 and spurious_rate <= 0.05 and conservation and schema_ok and cells_ok
        _verdict("AC-6 end-to-end fixture", ok,
                 f"recovery={recovery:.1%}, spurious={spurious_rate:.1%}, "
                 f"conservation={conservation}, table cells exact={cells_ok}")
        assert recovery >= 0.9
        assert spurious_rate <= 0.05
        assert conservation and schema_ok and cells_ok

    def test_ac7_determinism(self, fixture_site, tmp_path):
        outputs = []
        for run in ("a", "b"):
            config = load_config(write_run_config(fixture_site, tmp_path / f"out_{run}"))
            result = run_pipeline(config)
            outputs.append(
                (
                    result.corpus_jsonl.read_bytes(),
                    result.corpus_tsv.read_bytes(),
                    result.report_json.read_bytes(),
                    result.report_tsv.read_bytes(),
                )
            )
        ok = outputs[0] == outputs[1]
        _verdict("AC-7 determinism", ok,
                 f"corpus+report byte-identical across runs={ok}")
        assert ok

    def test_ac8_document_matcher(self):
        import itertools

        from test_docalign import _dominant_margins_ok, _mirror_instance, make_doc

        lexicon = build_lexicon([("犬", "狗"), ("猫", "猫"), ("鳥", "鸟"), ("魚", "鱼")])
        checked = 0
        exact = True
        for n, seed in itertools.product(range(2, 9), range(5)):
            docs_ja, docs_zh, matrix = _mirror_instance(n, seed, lexicon)
            if not _dominant_margins_ok(matrix, margin=0.05):
                continue
            checked += 1
            pairs = match_documents(docs_ja, docs_zh, lexicon, min_score=0.0)
            greedy_total = sum(p.score for p in pairs)
            row, col = linear_sum_assignment(-matrix)
            if abs(greedy_total - float(matrix[row, col].sum())) > 1e-9:
                exact = False

        rng = random.Random(77)
        injective = True
        animals_ja = ["犬", "猫", "鳥", "魚"]
        animals_zh = ["狗", "猫", "鸟", "鱼"]
        for _ in range(50):
            docs_ja = [
                make_doc(f"https://x.jp/ja/{i}{rng.randrange(9)}", LanguageTag.JA,
                         [[rng.choice(animals_ja) for _ in range(3)]])
                for i in range(rng.randrange(1, 7))
            ]
            docs_zh = [
                make_doc(f"https://x.jp/zh/{j}{rng.randrange(9)}", LanguageTag.ZH,
                         [[rng.choice(animals_zh) for _ in range(3)]])
                for j in range(rng.randrange(1, 7))
            ]
            pairs = match_documents(docs_ja, docs_zh, lexicon, min_score=0.0)
            if len({id(p.doc_ja) for p in pairs}) != len(pairs):
                injective = False
            if len({id(p.doc_zh) for p in pairs}) != len(pairs):
                injective = False
        ok = exact and injective and checked >= 15
        _verdict("AC-8 document matcher", ok,
                 f"greedy==Hungarian on {checked} gap-checked instances, injectivity={injective}")
        assert exact and injective
        assert checked >= 15

    def test_ac9_throughput(self, starter_lexicon, fixture_site):
        rng = random.Random(911)
        words_ja = ["学生", "新聞", "図書館", "映画", "東京", "は", "を", "読む"]
        words_zh = ["学生", "报纸", "图书馆", "电影", "东京", "的", "读", "看"]
        src = []
        trg = []
        for i in range(1000):
            ja = "".join(rng.choice(words_ja) for _ in range(rng.randrange(3, 8))) + "。"
            zh = "".join(rng.choice(words_zh) for _ in range(rng.randrange(3, 8))) + "。"
            s = Sentence(text=ja)
            s.tokens = make_segmenter(starter_lexicon, LanguageTag.JA)(ja)
            t = Sentence(text=zh)
            t.tokens = make_segmenter(starter_lexicon, LanguageTag.ZH)(zh)
            src.append(s)
            trg.append(t)
        start = time.monotonic()
        ladder = align_sentences(src, trg, starter_lexicon)
        align_seconds = time.monotonic() - start
        tiling_ok = (
            sum(b.src_span[1] for b in ladder.beads) == 1000
            and sum(b.trg_span[1] for b in ladder.beads) == 1000
        )

        from test_crawl import CountingFetch, chain_pages, make_site

        fetch = CountingFetch(chain_pages(30))
        budget = CrawlBudget(max_pages=12, per_host_delay_ms=0)
        store = crawl_site(make_site(), budget, fetch)
        crawl_ok = len(store.pages) == 12 and len(fetch.page_fetches) == 12

        ok = align_seconds < 10.0 and tiling_ok and crawl_ok
        _verdict("AC-9 throughput guard", ok,
                 f"1000x1000 banded alignment {align_seconds:.2f}s, "
                 f"crawl stored exactly {len(store.pages)}/12 pages")
        assert align_seconds < 10.0
        assert tiling_ok and crawl_ok

    def test_ac10_embedding_gate_boundary(self):
        def vec(sim):
            return [sim, math.sqrt(max(0.0, 1 - sim * sim))]

        sims = [0.69, 0.70, 0.71]
        pairs = [CorpusRecord(ja=f"j{i}", zh=f"z{i}") for i in range(3)]
        vectors = []
        for sim in sims:
            vectors.append([1.0, 0.0])
            vectors.append(vec(sim))
        kept = embedding_gate(pairs, lambda s: vectors, threshold=0.7)
        kept_sims = sorted(round(p.embed_sim, 2) for p in kept)
        ok = kept_sims == [0.70, 0.71]
        _verdict("AC-10 embedding gate boundary", ok, f"kept similarities {kept_sims}")
        assert kept_sims == [0.70, 0.71]
