"""Sentence-vector providers for the embedding gate.

Two bindings: a precomputed-vector file keyed by the SHA-256 of
normalized sentence text, and an HTTP endpoint that accepts a JSON
array of sentences and returns an array of float arrays.  Any
multilingual embedding service can sit behind either interface.

``sentence_key`` hashes with CPython's own SHA-256, imported once, on
the first call: ``_sha2`` on Python 3.12 and later, ``_sha256`` on 3.10
and 3.11, and ``hashlib`` only where neither exists.  The digests are
``hashlib``'s, but no OpenSSL is mapped for them, so a run that reads a
vector file loads none, and a run without one loads no SHA-256 module
at all.  ``urllib.request`` loads on the first ``HttpVectorProvider``
call.  (On numpy 1.x ``import numpy`` itself loads ``hashlib``,
through ``numpy.random``, so there the saving does not apply.)

A vector file row must hold a ``sha256`` string and a ``vector`` list
of finite numbers; any other row is a ``ValueError`` naming the file
and line, raised when the file is loaded.  ``FileVectorProvider`` keeps
every row's numbers in one float64 ``array`` (8 bytes a number), with
each row's start in a second array and a dict from the row's 32-byte
digest to its row number, and hands each vector back as a list of the
same floats.  A key that is not the lowercase hex of 32 bytes is no
``sentence_key``, so its row is checked and then dropped.  The
``array`` module loads with the first vector file, so importing the
package maps none.
"""

from __future__ import annotations

import json
import logging
import math
from functools import cache
from pathlib import Path
from typing import Sequence

from .fetching import DEFAULT_TIMEOUT
from .jsonl import numbered_jsonl, write_jsonl
from .text import normalize_text

logger = logging.getLogger(__name__)

DEFAULT_BATCH_SIZE = 64
_NUMBER_TYPES = frozenset((int, float))  # JSON numbers; bool is not one


@cache
def _sha256():
    """CPython's own SHA-256 constructor, imported on the first call only:
    a failed import is an import search, too slow to repeat per key."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10, 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def sentence_key(sentence: str) -> str:
    """SHA-256 hex digest of the normalized sentence text."""
    return _sentence_digest(sentence).hex()


def _sentence_digest(sentence: str) -> bytes:
    return _sha256()(normalize_text(sentence).encode("utf-8")).digest()


def _key_digest(key: str) -> bytes | None:
    """The digest whose ``sentence_key`` is ``key``, None if there is none."""
    try:
        digest = bytes.fromhex(key)
    except ValueError:
        return None
    return digest if len(digest) == 32 and digest.hex() == key else None


class FileVectorProvider:
    """Vectors from a JSONL file with keys ``sha256`` and ``vector``.

    Sentences absent from the file come back as None (the gate drops
    and counts them).  A malformed row is a ``ValueError`` naming
    ``path:line``; see the module docstring.
    """

    def __init__(self, path: str | Path) -> None:
        from array import array

        self._rows: dict[bytes, int] = {}  # digest -> row number
        self._floats = array("d")  # every row's numbers, row after row
        self._starts = array("q", [0])  # row r is _floats[_starts[r]:_starts[r + 1]]
        for number, obj in numbered_jsonl(path):
            key = obj.get("sha256")
            if type(key) is not str:
                raise ValueError(f"{path}:{number}: 'sha256' is missing or not a string")
            vector = _finite_floats(obj.get("vector"))
            if vector is None:
                raise ValueError(f"{path}:{number}: 'vector' is not a list of finite numbers")
            digest = _key_digest(key)
            if digest is not None:
                self._rows[digest] = len(self._starts) - 1
                self._floats.extend(vector)
                self._starts.append(len(self._floats))

    def __call__(self, sentences: Sequence[str]) -> list:
        floats, starts = self._floats, self._starts
        vectors = []
        for s in sentences:
            row = self._rows.get(_sentence_digest(s))
            vectors.append(None if row is None else floats[starts[row] : starts[row + 1]].tolist())
        return vectors


def _finite_floats(vector) -> list[float] | None:
    """``vector`` as floats, or None unless it is a list of finite numbers."""
    if type(vector) is not list or not _NUMBER_TYPES.issuperset(map(type, vector)):
        return None
    try:
        floats = list(map(float, vector))
    except OverflowError:  # an integer past the float range
        return None
    return floats if all(map(math.isfinite, floats)) else None


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
