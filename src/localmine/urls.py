"""URL helpers: registrable-domain grouping and language-marker stripping.

Sites are identified by their registrable domain so JA/ZH sections on
separate subdomains of one site group together.  The suffix table is a
curated subset of the public suffix list covering the TLDs common in
JA/ZH web mining; unknown multi-label suffixes fall back to the last
two labels.
"""

from __future__ import annotations

from urllib.parse import parse_qsl, urlencode, urlsplit

DEFAULT_LANG_MARKERS = ("/ja/", "/zh/", "/jp/", "/cn/")
DEFAULT_LANG_QUERY_KEYS = ("lang", "language", "locale")

# Two-level public suffixes under which the registrable domain takes a
# third label (e.g. example.co.jp).
_TWO_LEVEL_SUFFIXES = frozenset(
    {
        "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp", "ad.jp", "ed.jp",
        "gr.jp", "lg.jp",
        "com.cn", "net.cn", "org.cn", "gov.cn", "edu.cn", "ac.cn",
        "com.tw", "net.tw", "org.tw", "edu.tw", "gov.tw", "idv.tw",
        "com.hk", "net.hk", "org.hk", "edu.hk", "gov.hk",
        "co.kr", "ne.kr", "or.kr", "ac.kr", "go.kr",
        "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk",
        "com.au", "net.au", "org.au", "edu.au",
        "com.sg", "edu.sg", "gov.sg",
        "com.br", "com.mx", "co.in", "co.nz",
    }
)


def registrable_domain(url_or_host: str) -> str:
    """Map a URL or bare hostname to its registrable domain."""
    host = url_or_host
    if "//" in url_or_host or url_or_host.startswith(("http:", "https:")):
        host = urlsplit(url_or_host).hostname or ""
    host = host.strip().strip(".").lower()
    if not host:
        return ""
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in _TWO_LEVEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def strip_lang_markers(
    url: str,
    markers: tuple[str, ...] = DEFAULT_LANG_MARKERS,
    query_keys: tuple[str, ...] = DEFAULT_LANG_QUERY_KEYS,
) -> str:
    """Remove language path segments and language query keys from a URL,
    keeping only the path(+query) residue used for URL similarity."""
    parts = urlsplit(url)
    path = parts.path or "/"
    lowered = path.lower()
    for marker in markers:
        idx = lowered.find(marker)
        while idx != -1:
            path = path[:idx] + "/" + path[idx + len(marker) :]
            lowered = path.lower()
            idx = lowered.find(marker)
    query_pairs = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if k.lower() not in query_keys
    ]
    residue = path
    if query_pairs:
        residue += "?" + urlencode(query_pairs)
    return residue


def levenshtein(a, b) -> int:
    """Edit distance over two sequences (strings or lists of tokens)."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i]
        for j, item_b in enumerate(b, start=1):
            cost = 0 if item_a == item_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def normalized_similarity(a, b) -> float:
    """1 - normalized edit distance; 1.0 when both sequences are empty."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest
