"""Sentence-vector providers for the embedding gate.

Two bindings: a precomputed-vector file keyed by the SHA-256 of
normalized sentence text, and an HTTP endpoint that accepts a JSON
array of sentences and returns an array of float arrays.  Any
multilingual embedding service can sit behind either interface.

``hashlib`` loads on the first ``sentence_key`` call and
``urllib.request`` on the first ``HttpVectorProvider`` call, so a run
with neither binding loads no OpenSSL.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Sequence

from .fetching import DEFAULT_TIMEOUT
from .jsonl import read_jsonl, write_jsonl
from .text import normalize_text

logger = logging.getLogger(__name__)

DEFAULT_BATCH_SIZE = 64


def sentence_key(sentence: str) -> str:
    """SHA-256 hex digest of the normalized sentence text."""
    import hashlib

    return hashlib.sha256(normalize_text(sentence).encode("utf-8")).hexdigest()


class FileVectorProvider:
    """Vectors from a JSONL file with keys ``sha256`` and ``vector``.

    Sentences absent from the file come back as None (the gate drops
    and counts them).
    """

    def __init__(self, path: str | Path) -> None:
        self._vectors = {
            obj["sha256"]: [float(v) for v in obj["vector"]] for obj in read_jsonl(path)
        }

    def __call__(self, sentences: Sequence[str]) -> list:
        return [self._vectors.get(sentence_key(s)) for s in sentences]


def write_vector_file(path: str | Path, items: dict[str, Sequence[float]]) -> None:
    """Write a precomputed-vector file mapping sentence text to vectors."""
    write_jsonl(
        path,
        ({"sha256": sentence_key(s), "vector": list(v)} for s, v in items.items()),
    )


class HttpVectorProvider:
    """POST a JSON array of sentences, read back an array of float arrays."""

    def __init__(
        self,
        endpoint: str,
        batch_size: int = DEFAULT_BATCH_SIZE,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.endpoint = endpoint
        self.batch_size = batch_size
        self.timeout = timeout

    def __call__(self, sentences: Sequence[str]) -> list:
        import urllib.request

        vectors: list = []
        for start in range(0, len(sentences), self.batch_size):
            batch = list(sentences[start : start + self.batch_size])
            payload = json.dumps(batch, ensure_ascii=False).encode("utf-8")
            request = urllib.request.Request(
                self.endpoint,
                data=payload,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                returned = json.loads(resp.read().decode("utf-8"))
            if not isinstance(returned, list) or len(returned) != len(batch):
                raise ValueError("embedding endpoint returned a misaligned batch")
            vectors.extend(returned)
        return vectors
