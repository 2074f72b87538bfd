"""A run from a snapshot loads no network stack, no OpenSSL, no thread
pool and no ``html.parser``, with or without a vector file for the
embedding gate.

``ssl`` and ``hashlib`` map OpenSSL, and ``urllib.request`` pulls in
``http.client``, ``email`` and ``socket``: several MB of a mining
process's peak RSS that a snapshot run never uses.  Sites are mined one
after another, so ``concurrent.futures`` has no use either, and
``htmltext`` tokenizes pages itself, without ``html.parser`` and
``_markupbase``.  Each check runs in a child process, whose
``sys.modules`` is not shared with the other tests, and counts only
modules that ``import numpy`` has not already loaded: numpy 1.x
imports ``numpy.random`` and ``numpy.ma`` itself, and ``numpy.random``
imports ``secrets`` → ``hmac`` → ``hashlib``.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from localmine.embeddings import write_vector_file
from localmine.text import normalize_text

from sitegen import write_run_config

SRC = Path(__file__).resolve().parents[1] / "src"
# Modules a snapshot run has no use for.
UNUSED = (
    "ssl", "_ssl", "http.client", "urllib.request", "email", "socket", "hashlib", "_hashlib",
    "concurrent.futures", "concurrent.futures.thread", "html.parser", "_markupbase",
)


def child(code: str, *args: str):
    """Run ``code`` after ``import numpy``, with ``src`` first on the
    path, the modules then loaded in ``NUMPY_LOADED`` and ``args`` as
    ``sys.argv[1:]``; return what it prints as JSON."""
    script = (
        f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
        f"import numpy\nNUMPY_LOADED = set(sys.modules)\n{code}"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded(modules) -> str:
    """Code that prints which of ``modules`` were loaded after numpy."""
    return (
        f"print(json.dumps(sorted(m for m in {tuple(modules)!r}"
        " if m in sys.modules and m not in NUMPY_LOADED)))"
    )


@pytest.mark.parametrize("module", ["localmine", "localmine.cli"])
def test_import_loads_no_network_stack(module):
    """Nor does the import map ``array``: ``sentalign`` and
    ``embeddings`` import it inside the functions that use it.  A run
    loads it, so the run checks below do not count it."""
    assert child(f"import {module}\n" + loaded(UNUSED + ("array",))) == []


def _run_config(fixture_site, trained_filter, tmp_path, extra: str = ""):
    """A config that mines the fixture from a saved model."""
    model = tmp_path / "model.bin"
    trained_filter.save(model)
    config = tmp_path / "run.ini"
    config.write_text(  # the fixture config ends in its [filter] section
        write_run_config(fixture_site, tmp_path / "out").read_text(encoding="utf-8")
        + f"model_path = {model}\n" + extra,
        encoding="utf-8",
    )
    return config


RUN = "from localmine.cli import main\nassert main(['--config', sys.argv[1], 'run']) == 0\n"


def test_snapshot_run_loads_no_network_stack(fixture_site, trained_filter, tmp_path):
    """A mining run from a saved model, as each benchmark repeat is.
    Training the filter loads ``hashlib`` all the same: ``numpy.random``
    imports ``secrets``, which imports ``hmac``."""
    config = _run_config(fixture_site, trained_filter, tmp_path)
    assert child(RUN + loaded(UNUSED), str(config)) == []
    assert (tmp_path / "out" / "corpus.jsonl").stat().st_size > 0


def test_vector_file_run_loads_no_network_stack(fixture_site, trained_filter, tmp_path):
    """The same run through the embedding gate, with a vector file keyed
    by SHA-256, as each many-sites benchmark repeat is: the keys take
    no OpenSSL."""
    vectors = tmp_path / "vectors.jsonl"
    write_vector_file(vectors, {
        text: vector
        for ja, zh in fixture_site.true_pairs
        for text, vector in ((ja, [1.0, 0.0]), (zh, [0.95, 0.05]))
    })
    config = _run_config(fixture_site, trained_filter, tmp_path, f"embed_vectors = {vectors}\n")
    assert child(RUN + loaded(UNUSED), str(config)) == []
    rows = (tmp_path / "out" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    assert rows and all(json.loads(row)["embed_sim"] is not None for row in rows)


def test_sentence_key_loads_no_openssl():
    """Neither ``hashlib`` nor ``_hashlib`` loads for a key, unless numpy
    has loaded them already, as numpy 1.x does."""
    code = (
        "from localmine.embeddings import sentence_key\n"
        "key = sentence_key(' 学生は新聞を読む。 ')\n"
        "print(json.dumps([key, sorted(m for m in ('hashlib', '_hashlib')\n"
        "                              if m in sys.modules and m not in NUMPY_LOADED)]))\n"
    )
    key, openssl = child(code)
    assert openssl == []
    digest = hashlib.sha256(normalize_text(" 学生は新聞を読む。 ").encode("utf-8"))
    assert key == digest.hexdigest()


def test_importing_fetching_builds_no_opener():
    code = (
        "from localmine import fetching\n"
        "assert fetching._opener.cache_info().currsize == 0\n"
    )
    assert child(code + loaded(UNUSED)) == []


def test_forest_fit_leaves_numpy_ma_unloaded():
    code = (
        "import numpy as np\n"
        "from localmine.forest import RandomForest\n"
        "x = np.random.default_rng(0).random((60, 3))\n"
        "RandomForest(n_trees=3, max_depth=3, seed=0).fit(x, (x[:, 0] > 0.5).astype(int))\n"
    )
    assert child(code + loaded(["numpy.ma"])) == []
