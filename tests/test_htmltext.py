import pytest

from localmine.htmltext import EncodingError, decode_html, extract_links, extract_page


class TestExtractText:
    def test_paragraphs_and_digest(self):
        text, digest, _ = extract_page("<p>你好</p><p>世界</p>")
        assert text == "你好\n世界"
        assert digest == ["p", "p"]

    def test_script_stripped(self):
        text, _, _ = extract_page("<script>x=1</script><p>hi</p>")
        assert text == "hi"

    @pytest.mark.parametrize("tag", ["script", "style"])
    def test_self_closing_skip_tag_keeps_the_rest(self, tag):
        """A self-closing ``<script/>`` or ``<style/>`` has no content to
        drop, so the text after it survives."""
        text, digest, _ = extract_page(f"<{tag} src='a.js'/><p>本文</p>".encode("utf-8"))
        assert text == "本文"
        assert digest == ["p"]

    def test_style_and_comments_stripped(self):
        text, _, _ = extract_page("<style>p{}</style><!-- c --><p>a</p>")
        assert text == "a"

    def test_golden_page(self):
        html = (
            "<html><head><title>見出し</title></head><body>"
            "<h1>記事</h1><p>一文目。</p><div><a href='/x'>リンク</a></div>"
            "<ul><li>項目</li></ul><img src='a.png'></body></html>"
        )
        text, digest, _ = extract_page(html)
        assert text == "見出し\n記事\n一文目。\nリンク\n項目"
        assert digest == ["title", "h1", "p", "div", "a", "li", "img"]

    def test_entities_decoded(self):
        text, _, _ = extract_page("<p>a&amp;b</p>")
        assert text == "a&b"

    def test_no_control_chars_except_lf(self):
        text, _, _ = extract_page("<p>a\x01b\tc</p><p>d</p>")
        assert all(ch == "\n" or ord(ch) >= 0x20 for ch in text)

    def test_malformed_html_is_not_fatal(self):
        text, _, _ = extract_page("<p>open<div<b>odd</p> tail")
        assert "open" in text


class TestDecoding:
    def test_utf8_first(self):
        assert decode_html("日本".encode("utf-8")) == "日本"

    def test_meta_shift_jis_fallback(self):
        body = "<html><head><meta charset=shift_jis></head><body><p>日本語</p></body></html>"
        raw = body.encode("cp932")
        text, _, _ = extract_page(raw)
        assert "日本語" in text

    def test_meta_gbk_fallback(self):
        body = '<html><head><meta http-equiv="Content-Type" content="text/html; charset=gbk"></head><body><p>中文页面</p></body></html>'
        raw = body.encode("gbk")
        text, _, _ = extract_page(raw)
        assert "中文页面" in text

    def test_undecodable_raises_encoding_error(self):
        with pytest.raises(EncodingError):
            decode_html(b"\xff\xfe\x99" + "日本".encode("cp932"))


class TestLinks:
    def test_document_order(self):
        links = extract_links("<a href='/a'>1</a><p><a href='/b'>2</a></p>")
        assert links == ["/a", "/b"]
