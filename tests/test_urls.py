from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.urls import (
    levenshtein,
    normalized_similarity,
    registrable_domain,
    strip_lang_markers,
)



def reference_levenshtein(a, b) -> int:
    """The row DP that the bit-parallel kernel replaced, kept verbatim as
    the oracle: ``levenshtein`` must return the same integer."""
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


class TestRegistrableDomain:
    def test_plain_com(self):
        assert registrable_domain("https://www.example.com/a") == "example.com"

    def test_two_level_suffix(self):
        assert registrable_domain("https://shop.foo.co.jp/x") == "foo.co.jp"

    def test_subdomains_collapse(self):
        assert registrable_domain("http://ja.news.example.com") == "example.com"
        assert registrable_domain("zh.news.example.com") == "example.com"

    def test_bare_host(self):
        assert registrable_domain("example-news.jp") == "example-news.jp"

    def test_case_insensitive(self):
        assert registrable_domain("HTTPS://WWW.Example.COM") == "example.com"


class TestLangMarkers:
    def test_mirrored_paths_match(self):
        a = strip_lang_markers("https://x.jp/ja/news/1.html")
        b = strip_lang_markers("https://x.jp/zh/news/1.html")
        assert a == b == "/news/1.html"

    def test_lang_query_key_removed(self):
        got = strip_lang_markers("https://x.jp/page?lang=ja&id=3")
        assert got == "/page?id=3"

    def test_non_marker_segment_survives(self):
        assert strip_lang_markers("https://x.jp/jpeg/1.html") == "/jpeg/1.html"


class TestEditDistance:
    def test_strings(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_token_lists(self):
        assert levenshtein(["p", "p", "h1"], ["p", "h1"]) == 1

    def test_similarity_range(self):
        assert normalized_similarity("", "") == 1.0
        assert normalized_similarity("abc", "abc") == 1.0
        assert normalized_similarity("abc", "") == 0.0

    def test_empty_sides(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "") == levenshtein("", "abc") == 3
        assert levenshtein([], ["p", "div"]) == 2


# Small alphabets make long common runs and many equal symbols, the
# cases where the carry through the bit vectors matters.
_strings = st.text(alphabet="ab/-1", max_size=90)
_tag_lists = st.lists(st.sampled_from(["p", "div", "h1", "li", "a"]), max_size=90)


class TestBitParallelOracle:
    """``levenshtein`` against ``reference_levenshtein``."""

    @settings(max_examples=400, deadline=None)
    @given(a=_strings, b=_strings)
    def test_strings(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    @settings(max_examples=400, deadline=None)
    @given(a=_tag_lists, b=_tag_lists)
    def test_token_lists(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    @settings(max_examples=60, deadline=None)
    @given(a=st.text(alphabet="ab/-1", min_size=65, max_size=130),
           b=st.text(alphabet="ab/-1", min_size=65, max_size=130))
    def test_both_sides_wider_than_64_bits(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    @settings(max_examples=5, deadline=None)
    @given(
        a=st.lists(st.sampled_from(["p", "div", "h1", "li"]), min_size=1001, max_size=1100),
        edits=st.lists(st.tuples(st.integers(0, 1000), st.sampled_from(["p", "span", None])),
                       max_size=60),
    )
    def test_over_a_thousand_symbols(self, a, edits):
        # A long digest against an edited copy: substitutions, insertions
        # and deletions, so the distance is neither 0 nor the length.
        b = list(a)
        for pos, tag in edits:
            if tag is None:
                del b[pos % len(b)]
            elif tag == "span":
                b.insert(pos % len(b), tag)
            else:
                b[pos % len(b)] = tag
        assert levenshtein(a, b) == reference_levenshtein(a, b)
