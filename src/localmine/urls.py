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
LANG_QUERY_KEYS = ("lang", "language", "locale")

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
    """Map a URL or bare hostname to its registrable domain; ``""``
    when it has no host or ``urlsplit`` rejects it."""
    host = url_or_host
    if "//" in url_or_host or url_or_host.startswith(("http:", "https:")):
        try:
            host = urlsplit(url_or_host).hostname or ""
        except ValueError:  # e.g. an unclosed IPv6 bracket
            return ""
    host = host.strip().strip(".").lower()
    if not host:
        return ""
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in _TWO_LEVEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def strip_lang_markers(url: str, markers: tuple[str, ...] = DEFAULT_LANG_MARKERS) -> str:
    """Remove language path segments and ``LANG_QUERY_KEYS`` query keys
    from a URL, keeping only the path(+query) residue used for URL
    similarity."""
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
        if k.lower() not in LANG_QUERY_KEYS
    ]
    residue = path
    if query_pairs:
        residue += "?" + urlencode(query_pairs)
    return residue


def levenshtein(a, b) -> int:
    """Edit distance over two sequences (strings or lists of tokens).

    Hyyrö's (2001) global form of Myers' (1999, JACM) bit-vector
    algorithm.  Each symbol of the shorter sequence gets one Python int
    with a bit set at each of its positions; one pass over the longer
    sequence then updates the vertical +1/-1 deltas of a whole DP column
    at once, as bit vectors, and tracks the cell of the last row.  That
    is O(len) big-int operations instead of O(len(a)·len(b)) cell
    steps, with the integer the row DP computes.  Symbols are compared
    as dict keys, which for strings is ``==``.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict = {}
    bit = 1
    for item in b:
        peq[item] = peq.get(item, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    vp, vn = mask, 0  # column 0: every vertical delta is +1
    dist = len(b)
    for item in a:
        eq = peq.get(item, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = (hp << 1) | 1  # row 0 rises by 1 per column
        hn <<= 1
        vp = (hn | ~(d0 | hp)) & mask
        vn = hp & d0 & mask
    return dist


def normalized_similarity(a, b) -> float:
    """1 - normalized edit distance; 1.0 when both sequences are empty."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest
