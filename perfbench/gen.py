"""Seeded input generators for the benchmark workloads.

Each builder writes, under one work directory, everything a mining run
needs and nothing it could fetch from a network:

* ``snapshot/`` with ``manifest.jsonl``: every page of every live host,
  served through ``snapshot_fetch``;
* the site sources: a WARC archive plus a crowd TSV (many-sites), or a
  candidate-site list (long-docs);
* ``train.tsv``: the filter training corpus (the same for every
  workload under one seed);
* ``vectors.jsonl``: precomputed sentence vectors (many-sites only);
* ``manifest.json``: the planted parallel pairs and the report counts
  the run must reproduce.

The sentence grammar follows the shape of the test-suite site builder
but is kept here, with a larger vocabulary, so that editing a test can
never change what the benchmark measures.  Every content word of the
templates is an entry of the bundled starter lexicon, so dictionary
evidence exists at every stage.  The numbers of hosts, pages and
documents are fixed per workload; the seed changes their content.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from localmine.discovery import write_warc
from localmine.embeddings import sentence_key
from localmine.text import normalize_text

PEOPLE = [
    ("学生", "学生"), ("医者", "医生"), ("作家", "作家"), ("記者", "记者"),
    ("選手", "选手"), ("歌手", "歌手"), ("友達", "朋友"), ("子供", "孩子"),
    ("両親", "父母"), ("留学生", "留学生"), ("弁護士", "律师"), ("警官", "警官"),
    ("観光客", "游客"), ("外国人", "外国人"), ("女性", "女性"), ("男性", "男性"),
]
THINGS = [
    ("新聞", "报纸"), ("小説", "小说"), ("音楽", "音乐"), ("映画", "电影"),
    ("写真", "照片"), ("野菜", "蔬菜"), ("料理", "料理"), ("漫画", "漫画"),
    ("雑誌", "杂志"), ("果物", "水果"), ("地図", "地图"), ("辞書", "词典"),
    ("手紙", "信"), ("荷物", "行李"), ("切符", "票"), ("文章", "文章"),
    ("作品", "作品"), ("番組", "节目"), ("記事", "报道"), ("書類", "文件"),
    ("コーヒー", "咖啡"), ("ケーキ", "蛋糕"), ("茶", "茶"), ("牛乳", "牛奶"),
]
PLACES = [
    ("図書館", "图书馆"), ("公園", "公园"), ("病院", "医院"), ("大学", "大学"),
    ("東京", "东京"), ("市場", "市场"), ("北京", "北京"), ("上海", "上海"),
    ("京都", "京都"), ("大阪", "大阪"), ("駅前", "站前"), ("空港", "机场"),
    ("銀行", "银行"), ("博物館", "博物馆"), ("美術館", "美术馆"), ("動物園", "动物园"),
    ("映画館", "电影院"), ("劇場", "剧场"), ("ホテル", "酒店"), ("レストラン", "餐厅"),
    ("温泉", "温泉"), ("神社", "神社"),
]
VERBS = [
    ("読む", "读"), ("見る", "看"), ("食べる", "吃"), ("買う", "买"),
    ("作る", "做"), ("書く", "写"), ("売る", "卖"), ("使う", "使用"),
]
TIMES = [
    ("今日", "今天"), ("明日", "明天"), ("昨日", "昨天"), ("毎日", "每天"),
    ("毎週", "每周"), ("朝", "早晨"), ("夜", "晚上"), ("月曜日", "星期一"),
    ("火曜日", "星期二"), ("水曜日", "星期三"), ("木曜日", "星期四"),
    ("金曜日", "星期五"), ("土曜日", "星期六"), ("日曜日", "星期天"),
    ("春", "春"), ("夏", "夏"), ("秋", "秋"), ("冬", "冬"),
]
QUALITIES = [
    ("新しい", "新"), ("古い", "旧"), ("大きい", "大"), ("小さい", "小"),
    ("高い", "高"), ("安い", "便宜"), ("有名", "有名"), ("便利", "方便"),
    ("静か", "安静"), ("美しい", "美丽"), ("重要", "重要"),
]
TOPICS = [
    ("ニュース", "新闻"), ("会社", "公司"), ("研究", "研究"), ("技術", "技术"),
    ("経済", "经济"), ("文化", "文化"), ("歴史", "历史"), ("教育", "教育"),
    ("環境", "环境"), ("交通", "交通"), ("計画", "计划"), ("会議", "会议"),
    ("調査", "调查"), ("開発", "开发"), ("旅行", "旅行"), ("天気", "天气"),
]

# Sentences that every host of a multi-site crawl carries (site
# boilerplate), so global dedup has duplicates to drop.
BOILERPLATE = [
    ("このサイトの記事は毎日新しい。", "本站的报道每天是新的。"),
    ("東京の会社は有名。", "东京的公司是有名的。"),
    ("学生は図書館で新聞を読む。", "学生在图书馆读报纸。"),
    ("友達は音楽が好き。", "朋友喜欢音乐。"),
    ("観光客は京都へ行く。", "游客去京都。"),
    ("記者は会議で写真を見る。", "记者在会议看照片。"),
]

HTTP_HEADER = b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\r\n"

VECTOR_DIM = 8


class Grammar:
    """Parallel JA/ZH sentence source; every JA sentence it returns is new."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.taken: set[str] = set(ja for ja, _ in BOILERPLATE)

    def _draw(self) -> tuple[str, str]:
        r = self.rng
        kind = r.randrange(6)
        p, p2 = r.sample(PEOPLE, 2)
        t, pl, v = r.choice(THINGS), r.choice(PLACES), r.choice(VERBS)
        if kind == 0:
            tm = r.choice(TIMES)
            return (f"{tm[0]}、{p[0]}は{pl[0]}で{t[0]}を{v[0]}。",
                    f"{tm[1]}{p[1]}在{pl[1]}{v[1]}{t[1]}。")
        if kind == 1:
            return f"{p[0]}は{pl[0]}の{t[0]}が好き。", f"{p[1]}喜欢{pl[1]}的{t[1]}。"
        if kind == 2:
            month, day = r.randrange(1, 13), r.randrange(1, 29)
            return (f"{month}月{day}日に{p[0]}は{pl[0]}へ行く。",
                    f"{month}月{day}日{p[1]}去{pl[1]}。")
        if kind == 3:
            q = r.choice(QUALITIES)
            return f"{pl[0]}の{t[0]}は{q[0]}。", f"{pl[1]}的{t[1]}是{q[1]}的。"
        if kind == 4:
            tm = r.choice(TIMES)
            return (f"{tm[0]}、{p[0]}と{p2[0]}は{pl[0]}で会う。",
                    f"{tm[1]}{p[1]}和{p2[1]}在{pl[1]}见面。")
        n = r.randrange(2, 100)
        return f"{pl[0]}には{n}人の{p[0]}がいる。", f"{pl[1]}有{n}个{p[1]}。"

    def _draw_short(self) -> tuple[str, str]:
        r = self.rng
        kind = r.randrange(3)
        if kind == 0:
            topic = r.choice(TOPICS)
            n = r.randrange(1, 10_000)
            return f"{topic[0]}のお知らせ{n}", f"{topic[1]}通知{n}"
        if kind == 1:
            pl, t = r.choice(PLACES), r.choice(THINGS)
            return f"{pl[0]}の{t[0]}", f"{pl[1]}的{t[1]}"
        # Never a one-character Chinese side: synthesize_negatives makes
        # ten random attempts at a distinct negative, and for such a row
        # all ten can fail, which aborts train_filter.
        return r.choice([w for w in PLACES + THINGS + TOPICS if len(w[1]) > 1])

    def _draw_full(self) -> tuple[str, str]:
        """A clause, or with probability 0.6 two clauses joined by a comma
        (real sentences are longer than one template)."""
        ja, zh = self._draw()
        if self.rng.random() < 0.6:
            ja2, zh2 = self._draw()
            ja, zh = ja[:-1] + "、" + ja2, zh[:-1] + "，" + zh2
        return ja, zh

    def sentence(self) -> tuple[str, str]:
        while True:
            pair = self._draw_full()
            if pair[0] not in self.taken:
                self.taken.add(pair[0])
                return pair

    def near_miss(self) -> tuple[str, str]:
        """A pair whose sides name different places: dictionary features
        still look parallel, sentence vectors do not."""
        r = self.rng
        while True:
            tm, p, t, v = r.choice(TIMES), r.choice(PEOPLE), r.choice(THINGS), r.choice(VERBS)
            pl, other = r.sample(PLACES, 2)
            ja = f"{tm[0]}、{p[0]}は{pl[0]}で{t[0]}を{v[0]}。"
            if ja not in self.taken:
                self.taken.add(ja)
                return ja, f"{tm[1]}{p[1]}在{other[1]}{v[1]}{t[1]}。"

    def title(self) -> tuple[str, str]:
        while True:
            topic = self.rng.choice(TOPICS)
            n = self.rng.randrange(1, 10_000)
            pair = (f"{topic[0]}のお知らせ{n}", f"{topic[1]}通知{n}")
            if pair[0] not in self.taken:
                self.taken.add(pair[0])
                return pair

    def training_pair(self, short_share: float) -> tuple[str, str]:
        while True:
            if self.rng.random() < short_share:
                pair = self._draw_short()
            else:
                pair = self._draw_full()
            if pair[0] not in self.taken:
                self.taken.add(pair[0])
                return pair


def page_html(title: str, sentences: list[str], links: list[tuple[str, str]] = ()) -> str:
    body = "\n".join(f"<p>{s}</p>" for s in sentences)
    nav = "\n".join(f'<li><a href="{href}">{text}</a></li>' for href, text in links)
    return (
        '<!DOCTYPE html>\n<html><head><meta charset="utf-8">'
        f"<title>{title}</title></head>\n<body>\n<h1>{title}</h1>\n{body}\n"
        f"<ul>\n{nav}\n</ul>\n</body></html>\n"
    )


class Snapshot:
    """Directory of page files plus the manifest ``snapshot_fetch`` serves."""

    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.entries: list[dict] = []

    def add(self, url: str, body: str | bytes, content_type: str = "text/html") -> None:
        name = f"f{len(self.entries):05d}"
        data = body.encode("utf-8") if isinstance(body, str) else body
        (self.root / name).write_bytes(data)
        self.entries.append({"file": name, "url": url, "content_type": content_type})

    def close(self) -> None:
        lines = [json.dumps(e, ensure_ascii=False) for e in self.entries]
        (self.root / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _site_row(host: str, seeds: list[str]) -> dict:
    return {"host": host, "seed_urls": seeds, "source": "crowd",
            "balance": 0.0, "bytes_ja": 0, "bytes_zh": 0}


def write_training_corpus(path: Path, seed: int, pairs: int = 1000) -> None:
    """The filter training corpus: one per seed, shared by all workloads.
    A fifth of the rows are title-like fragments so the filter does not
    learn that only full sentences are parallel.  Rows are stored
    normalized, the form in which the miner scores sentences."""
    grammar = Grammar(random.Random(f"train-{seed}"))
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(pairs):
            ja, zh = grammar.training_pair(short_share=0.2)
            fh.write(f"{normalize_text(ja)}\t{normalize_text(zh)}\n")


# ---------------------------------------------------------------------------
# many-sites


class _BilingualHost:
    """One fixture-sized bilingual host: language-switching index pages
    and article pairs with mirrored paths, plus the links a real site
    has to things that are not parallel text (a PDF, an image, a page
    that is gone)."""

    def __init__(self, grammar: Grammar, host: str, articles: int, sentences: int,
                 near_misses: int) -> None:
        r = grammar.rng
        self.host = host
        base = f"https://{host}"
        self.planted: list[tuple[str, str]] = []
        self.near_misses: list[tuple[str, str]] = []
        self.pages: list[tuple[str, str]] = []  # (url, html)
        titles = [grammar.title() for _ in range(articles)]
        miss_slots = set(r.sample(range(articles), near_misses))
        for k, title in enumerate(titles):
            body = [grammar.sentence() for _ in range(sentences - 1)]
            body.insert(r.randrange(len(body) + 1), r.choice(BOILERPLATE))
            self.planted.append(title)
            self.planted.extend(body)
            if k in miss_slots:
                # Aligned by position and kept by the filter; the
                # embedding gate is what rejects it.
                miss = grammar.near_miss()
                body.insert(r.randrange(len(body) + 1), miss)
                self.near_misses.append(miss)
            self.pages.append((f"{base}/ja/news/{k}.html",
                               page_html(title[0], [ja for ja, _ in body])))
            self.pages.append((f"{base}/zh/news/{k}.html",
                               page_html(title[1], [zh for _, zh in body])))
        index_title = grammar.title()
        intro = [grammar.sentence() for _ in range(3)]
        self.planted.append(index_title)
        self.planted.extend(intro)
        extras = [("/files/report.pdf", "PDF"), ("/img/logo.png", "logo"),
                  ("/ja/gone.html", "old")]
        ja_links = ([("/zh/index.html", "中文")]
                    + [(f"/ja/news/{k}.html", t[0]) for k, t in enumerate(titles)] + extras)
        zh_links = ([("/ja/index.html", "日本語")]
                    + [(f"/zh/news/{k}.html", t[1]) for k, t in enumerate(titles)])
        self.pages.append((f"{base}/ja/index.html",
                           page_html(index_title[0], [ja for ja, _ in intro], ja_links)))
        self.pages.append((f"{base}/zh/index.html",
                           page_html(index_title[1], [zh for _, zh in intro], zh_links)))
        self.seeds = [f"{base}/ja/index.html", f"{base}/zh/index.html"]

    def serve(self, snap: Snapshot, robots: bool) -> None:
        base = f"https://{self.host}"
        for url, html in self.pages:
            snap.add(url, html)
        snap.add(f"{base}/files/report.pdf", b"%PDF-1.4 stand-in", "application/pdf")
        snap.add(f"{base}/img/logo.png", b"\x89PNG\r\n\x1a\n stand-in", "image/png")
        if robots:
            snap.add(f"{base}/robots.txt", "User-agent: *\nAllow: /\n", "text/plain")


def _monolingual_pages(grammar: Grammar, host: str, lang: str, n_pages: int) -> list:
    side = 0 if lang == "ja" else 1
    records = []
    for k in range(n_pages):
        title = grammar.title()[side]
        body = [grammar.sentence()[side] for _ in range(20)]
        records.append((f"https://{host}/{lang}/p{k}.html", page_html(title, body).encode("utf-8")))
    return records


def _pair_vector(rng: random.Random) -> list[float]:
    return [rng.gauss(0.0, 1.0) for _ in range(VECTOR_DIM)]


def _noisy(vec: list[float], rng: random.Random, scale: float) -> list[float]:
    return [round(v + rng.gauss(0.0, scale), 4) for v in vec]


def build_many_sites(root: Path, seed: int, hosts: int = 2, crowd_hosts: int = 6) -> dict:
    """Archive hosts are as large as discovery requires (10 kB of text on
    the smaller side, its default); crowd hosts need no volume and are
    smaller."""
    rng = random.Random(f"many-sites-{seed}")
    grammar = Grammar(rng)
    snap = Snapshot(root / "snapshot")
    articles, sentences = 10, 24
    planted: list[tuple[str, str]] = []
    near_misses: list[tuple[str, str]] = []
    warc_records: list[tuple[str, bytes]] = []

    live = [_BilingualHost(grammar, f"shuppan{k:02d}.jp", articles, sentences, near_misses=2)
            for k in range(hosts)]
    # Listed in the archive but offline by the time of the crawl.
    dead = _BilingualHost(grammar, "heisa-shita.jp", articles, sentences, near_misses=0)
    for k, site in enumerate(live):
        site.serve(snap, robots=k % 2 == 0)
        planted.extend(site.planted)
        near_misses.extend(site.near_misses)
    for site in live + [dead]:
        for url, html in site.pages:
            warc_records.append((url, HTTP_HEADER + html.encode("utf-8")))

    # Archive noise: hosts discovery must not select, and payloads it
    # cannot decode (Shift_JIS without a declared charset).
    warc_records += _monolingual_pages(grammar, "tango-nikki.jp", "ja", 6)
    warc_records += _monolingual_pages(grammar, "zhongwen-ribao.cn", "zh", 6)
    warc_records += _monolingual_pages(grammar, "katayori.jp", "ja", 8)
    warc_records += _monolingual_pages(grammar, "katayori.jp", "zh", 1)
    warc_records.append(("https://english-only.com/index.html",
                         page_html("About", ["This site is in English."] * 20).encode("utf-8")))
    for k in range(5):
        text = "".join(grammar.sentence()[0] for _ in range(10))
        warc_records.append((f"https://sjis-page{k}.jp/index.html",
                             b"<html><body><p>" + text.encode("cp932") + b"</p></body></html>"))
    rng.shuffle(warc_records)
    archive = root / "archive.warc.gz"
    write_warc(warc_records, archive)

    crowd = [_BilingualHost(grammar, f"kyodo{k:02d}.jp", articles=4, sentences=6, near_misses=1)
             for k in range(crowd_hosts)]
    for site in crowd:
        site.serve(snap, robots=True)
        planted.extend(site.planted)
        near_misses.extend(site.near_misses)
    first, second = crowd[0].seeds, crowd[1].seeds
    rows = [
        (second[1], second[0], "w01"),  # WRONG_LANGUAGE: sides swapped
        *[(site.seeds[0], site.seeds[1], f"w{k + 2:02d}") for k, site in enumerate(crowd)],
        (first[0], first[0], "w08"),  # SAME_URL
        ("not a url", first[1], "w09"),  # MALFORMED_URL
        ("https://kieta.jp/ja/", "https://kieta.jp/zh/", "w10"),  # UNREACHABLE
        (first[0], first[1], "w11"),  # DUPLICATE_HOST
    ]
    submissions = root / "submissions.tsv"
    submissions.write_text("".join(f"{a}\t{b}\t{w}\n" for a, b, w in rows), encoding="utf-8")
    snap.close()

    # Vectors: translations share a direction, near misses do not, and a
    # few planted sentences have no vector at all (provider failures).
    vec_rng = random.Random(f"vectors-{seed}")
    unique_planted = list(dict.fromkeys(planted))
    missing = set(vec_rng.sample(range(len(unique_planted)), len(unique_planted) // 100))
    vectors = root / "vectors.jsonl"

    def row(text: str, vec: list[float]) -> dict:
        return {"sha256": sentence_key(text), "vector": vec}

    rows_out = []
    for idx, (ja, zh) in enumerate(unique_planted):
        base = _pair_vector(vec_rng)
        rows_out.append(row(ja, _noisy(base, vec_rng, 0.2)))
        if idx not in missing:
            rows_out.append(row(zh, _noisy(base, vec_rng, 0.2)))
    for ja, zh in near_misses:
        rows_out.append(row(ja, _noisy(_pair_vector(vec_rng), vec_rng, 0.2)))
        rows_out.append(row(zh, _noisy(_pair_vector(vec_rng), vec_rng, 0.2)))
    _write_jsonl(vectors, rows_out)

    bad_rows = len(rows) - crowd_hosts
    return {
        "config": {
            "pipeline": {
                "archive": str(archive),
                "submissions": str(submissions),
                "snapshot_dir": str(snap.root),
            },
            "filter": {"embed_vectors": str(vectors)},
        },
        "planted": unique_planted,
        "expected_urls": hosts + 1 + len(rows),
        "expected_errors": 1 + bad_rows,
    }


# ---------------------------------------------------------------------------
# long-docs


def _single_site_inputs(root: Path, snap: Snapshot, host: str, planted: list) -> dict:
    """Site list with the mined host plus one host that no longer
    answers, so the site-error share is a measured quantity."""
    base = f"https://{host}"
    sites = root / "sites.jsonl"
    _write_jsonl(sites, [
        _site_row(host, [f"{base}/ja/index.html", f"{base}/zh/index.html"]),
        _site_row("heisa-shita.jp", ["https://heisa-shita.jp/ja/index.html"]),
    ])
    return {
        "config": {"pipeline": {"sites": str(sites), "snapshot_dir": str(snap.root)}},
        "planted": list(dict.fromkeys(planted)),
        "expected_urls": 2,
        "expected_errors": 1,
    }


def _merge_ja(a: str, b: str) -> str:
    return a[:-1] + "、" + b


def _merge_zh(a: str, b: str) -> str:
    return a[:-1] + "，" + b


def build_long_docs(root: Path, seed: int, sizes: tuple[int, ...] = (200, 250, 300),
                    event_rate: float = 0.02) -> dict:
    """Document pairs whose sentence ladders carry planted insertions on
    either side and 1-2 / 2-1 merges, each at ``event_rate``."""
    rng = random.Random(f"long-docs-{seed}")
    grammar = Grammar(rng)
    snap = Snapshot(root / "snapshot")
    host = "chohen-kiroku.jp"
    base = f"https://{host}"
    planted: list[tuple[str, str]] = []
    titles = []
    for k, n in enumerate(sizes):
        title = grammar.title()
        titles.append(title)
        planted.append(title)
        ja: list[str] = []
        zh: list[str] = []
        while len(ja) < n:
            event = rng.random()
            if event < event_rate:
                ja.append(grammar.sentence()[0])
            elif event < 2 * event_rate:
                zh.append(grammar.sentence()[1])
            elif event < 3 * event_rate:
                (a_ja, a_zh), (b_ja, b_zh) = grammar.sentence(), grammar.sentence()
                ja.append(_merge_ja(a_ja, b_ja))
                zh += [a_zh, b_zh]
                planted.append((_merge_ja(a_ja, b_ja), a_zh + b_zh))
            elif event < 4 * event_rate:
                (a_ja, a_zh), (b_ja, b_zh) = grammar.sentence(), grammar.sentence()
                ja += [a_ja, b_ja]
                zh.append(_merge_zh(a_zh, b_zh))
                planted.append((a_ja + b_ja, _merge_zh(a_zh, b_zh)))
            else:
                pair = grammar.sentence()
                ja.append(pair[0])
                zh.append(pair[1])
                planted.append(pair)
        snap.add(f"{base}/ja/kiroku/{k}.html", page_html(title[0], ja))
        snap.add(f"{base}/zh/kiroku/{k}.html", page_html(title[1], zh))
    index_title = grammar.title()
    planted.append(index_title)
    for lang, other, side in (("ja", "zh", 0), ("zh", "ja", 1)):
        links = [(f"/{other}/index.html", other)] + [
            (f"/{lang}/kiroku/{k}.html", t[side]) for k, t in enumerate(titles)
        ]
        snap.add(f"{base}/{lang}/index.html", page_html(index_title[side], [], links))
    snap.close()
    return _single_site_inputs(root, snap, host, planted)


BUILDERS = {
    "many-sites": build_many_sites,
    "long-docs": build_long_docs,
}


def build(workload: str, seed: int, root: Path) -> dict:
    """Write every input of ``workload`` under ``root`` and return its
    manifest (also written to ``root / "manifest.json"``)."""
    root.mkdir(parents=True, exist_ok=True)
    manifest = BUILDERS[workload](root, seed)
    manifest["workload"] = workload
    manifest["seed"] = seed
    manifest["train_tsv"] = str(root / "train.tsv")
    # The pipeline stores NFKC-normalized text (a full-width comma
    # becomes ","), so the planted pairs are compared in that form.
    manifest["planted"] = [
        [normalize_text(ja), normalize_text(zh)] for ja, zh in manifest["planted"]
    ]
    write_training_corpus(root / "train.tsv", seed)
    (root / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=1), encoding="utf-8"
    )
    return manifest
