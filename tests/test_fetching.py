import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from localmine.embeddings import HttpVectorProvider
from localmine.fetching import MAX_REDIRECTS, http_fetch


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        if self.path.startswith("/hop/"):
            n = int(self.path.rsplit("/", 1)[1])
            if n > 0:
                self.send_response(302)
                self.send_header("Location", f"/hop/{n - 1}")
                self.end_headers()
                return
            body = b"<p>landed</p>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/missing":
            self.send_error(404)
        else:
            body = "<p>ページ</p>".encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        sentences = json.loads(self.rfile.read(length).decode("utf-8"))
        vectors = [[float(len(s)), 1.0] for s in sentences]
        if self.path == "/short":  # misbehaving endpoint: wrong batch size
            vectors = vectors[:-1]
        body = json.dumps(vectors).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture(scope="module")
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


class TestHttpFetch:
    def test_plain_get(self, server):
        resp = http_fetch(f"{server}/page.html", timeout=5.0)
        assert resp.status == 200
        assert resp.content_type == "text/html"
        assert "ページ" in resp.body.decode("utf-8")

    def test_follows_redirects_under_cap(self, server):
        resp = http_fetch(f"{server}/hop/3", timeout=5.0)
        assert resp.status == 200
        assert resp.body == b"<p>landed</p>"

    def test_redirect_cap_enforced(self, server):
        # beyond the cap the chain is abandoned: a non-ok 3xx comes back
        resp = http_fetch(f"{server}/hop/{MAX_REDIRECTS + 3}", timeout=5.0)
        assert resp.status == 302
        assert not resp.ok

    def test_http_error_as_status(self, server):
        resp = http_fetch(f"{server}/missing", timeout=5.0)
        assert resp.status == 404
        assert not resp.ok


class TestHttpVectorProvider:
    def test_batch_roundtrip(self, server):
        provider = HttpVectorProvider(server, batch_size=2, timeout=5.0)
        sentences = ["ab", "cdef", "g", "hij", "kl"]
        vectors = provider(sentences)
        assert vectors == [[2.0, 1.0], [4.0, 1.0], [1.0, 1.0], [3.0, 1.0], [2.0, 1.0]]

    def test_misaligned_batch_rejected(self, server):
        provider = HttpVectorProvider(f"{server}/short", batch_size=64, timeout=5.0)
        with pytest.raises(ValueError):
            provider(["a", "b"])


def test_http_fetch_calls_share_one_opener(server, monkeypatch):
    """The redirect-capped opener is built once per process, on the first
    call (``test_import_footprint`` checks that importing builds none)."""
    import urllib.request

    from localmine import fetching

    built = []
    build_opener = urllib.request.build_opener

    def counting_build_opener(*handlers):
        built.append(handlers)
        return build_opener(*handlers)

    monkeypatch.setattr(urllib.request, "build_opener", counting_build_opener)
    fetching._opener.cache_clear()
    assert http_fetch(f"{server}/page.html", timeout=5.0).ok
    assert http_fetch(f"{server}/hop/2", timeout=5.0).ok
    assert len(built) == 1
