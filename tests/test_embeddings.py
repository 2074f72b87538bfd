"""Sentence keys and the precomputed-vector file.

``sentence_key`` hashes with CPython's own SHA-256 module rather than
``hashlib``; its digests must be ``hashlib``'s, computed here in the
test process.  A vector file row that is not a ``sha256`` string and a
``vector`` list of finite numbers stops the load with one error naming
the file and line, before a run mines any site.
"""

import hashlib
import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmine.cli import main as cli_main
from localmine.embeddings import FileVectorProvider, sentence_key, write_vector_file
from localmine.text import normalize_text

from sitegen import write_run_config

# Characters outside the Basic Multilingual Plane, and whitespace that
# ``normalize_text`` folds: runs of spaces and tabs, line separators,
# and the ideographic space, which NFKC makes a space.
_FOLDED = [" ", "  ", "\t", "\r\n", "\r", " ", " ", "\x0b", "\x0c", "\x85", "　"]
_TEXT = st.lists(
    st.sampled_from(_FOLDED + ["😀", "𠀋", "𩸽", "学生", "读", "ｶﾞ", "Ａ", "a", "\n"])
    | st.characters(max_codepoint=0xD7FF)
    | st.characters(min_codepoint=0xE000),
    max_size=12,
).map("".join)


def _oracle(sentence: str) -> str:
    return hashlib.sha256(normalize_text(sentence).encode("utf-8")).hexdigest()


@given(sentence=_TEXT)
@settings(max_examples=300, deadline=None)
def test_sentence_key_equals_hashlib(sentence):
    assert sentence_key(sentence) == _oracle(sentence)


def test_sentence_key_examples():
    assert sentence_key("") == hashlib.sha256(b"").hexdigest()
    assert sentence_key(" 学生　は\t\t新聞😀 ") == _oracle("学生 は 新聞😀")


@given(items=st.dictionaries(
    _TEXT,
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6),
             max_size=4),
    max_size=6,
))
@settings(max_examples=200, deadline=None)
def test_vector_file_round_trips(tmp_path_factory, items):
    path = tmp_path_factory.mktemp("vectors") / "vectors.jsonl"
    write_vector_file(path, items)
    provider = FileVectorProvider(path)
    # Two sentences that normalize alike share a key; the later row wins.
    want = {}
    for sentence, vector in items.items():
        want[sentence_key(sentence)] = [float(v) for v in vector]
    assert provider(list(items)) == [want[sentence_key(s)] for s in items]
    assert provider(["not in the file"]) == [None]


@pytest.mark.parametrize("row, message", [
    ('{"sha256": "ab", "vector": null}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": 5}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": "0.5"}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": {"x": 1}}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab"}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": [0.5, NaN]}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": [Infinity]}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": [1e400]}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": [1' + "0" * 400 + "]}",
     "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": [true]}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": ["0.5"]}', "'vector' is not a list of finite numbers"),
    ('{"sha256": "ab", "vector": [[0.5]]}', "'vector' is not a list of finite numbers"),
    ('{"vector": [0.5]}', "'sha256' is missing or not a string"),
    ('{"sha256": 5, "vector": [0.5]}', "'sha256' is missing or not a string"),
    ('{"sha256": null, "vector": [0.5]}', "'sha256' is missing or not a string"),
], ids=["null", "number", "string", "object", "missing-vector", "nan", "infinity",
        "overflowing-float", "overflowing-int", "bool", "string-entry", "nested",
        "missing-key", "int-key", "null-key"])
def test_malformed_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "vectors.jsonl"
    path.write_text(
        json.dumps({"sha256": sentence_key("学生"), "vector": [0.5, 1]}) + "\n\n" + row + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}$"):
        FileVectorProvider(path)


def test_malformed_vector_file_stops_run_before_any_site(
    fixture_site, trained_filter, tmp_path, caplog
):
    model = tmp_path / "model.bin"
    trained_filter.save(model)
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text('{"sha256": "ab", "vector": null}\n', encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(  # the fixture config ends in its [filter] section
        write_run_config(fixture_site, tmp_path / "out").read_text(encoding="utf-8")
        + f"model_path = {model}\nembed_vectors = {vectors}\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.INFO):
        assert cli_main(["--config", str(config), "run"]) == 1
    (error,) = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert error.getMessage() == f"{vectors}:1: 'vector' is not a list of finite numbers"
    assert error.exc_info is None
    assert not (tmp_path / "out").exists()
