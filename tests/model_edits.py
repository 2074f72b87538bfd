"""Helpers for tests that take filter model files and components apart
and put them back together, intact or edited."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

from localmine import modelfile
from localmine.filtering import SECTIONS
from localmine.model1 import TranslationTable, _encode


def through_bytes(component):
    """``component`` rebuilt from its ``to_arrays`` as a model file
    carries them: the scalars through JSON text, each array through its
    raw bytes."""
    scalars, arrays = component.to_arrays()
    return type(component).from_arrays(json.loads(json.dumps(scalars)), copied(arrays))


def copied(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each array rebuilt from its raw bytes, as ``np.fromfile`` reads it."""
    return {name: np.frombuffer(a.tobytes(), dtype=a.dtype.str).copy()
            for name, a in arrays.items()}


def dump(component) -> bytes:
    """``component``'s scalars and arrays as bytes, to compare two
    components or take a digest."""
    scalars, arrays = component.to_arrays()
    parts = [json.dumps(scalars, sort_keys=True).encode()]
    for name, a in arrays.items():
        parts += [name.encode(), a.dtype.str.encode(), a.tobytes()]
    return b"\0".join(parts)


def table_from_rows(rows: dict[str, dict[str, float]], direction: str = "") -> TranslationTable:
    """A Model 1 table holding ``rows``, t(trg | src) by source and then
    target, built by ``from_arrays`` from the arrays a model file would
    carry; a source without entries is left out."""
    sources = sorted(src for src, row in rows.items() if row)
    entries = [sorted(rows[src].items()) for src in sources]
    targets = sorted({trg for row in entries for trg, _ in row})
    target_id = {trg: i for i, trg in enumerate(targets)}
    source_codes, source_lengths = _encode(sources)
    target_codes, target_lengths = _encode(targets)
    return TranslationTable.from_arrays({"direction": direction}, copied({
        "sources": source_codes,
        "source_lengths": source_lengths,
        "row_lengths": np.array([len(row) for row in entries], dtype="<i8"),
        "targets": target_codes,
        "target_lengths": target_lengths,
        "target_ids": np.array([target_id[trg] for row in entries for trg, _ in row],
                               dtype="<i8"),
        "probs": np.array([p for row in entries for _, p in row], dtype="<f8"),
    }))


def table_rows(table: TranslationTable) -> dict[str, dict[str, float]]:
    """Every entry of ``table`` as t(trg | src) by source and then target,
    both in sorted order."""
    sources, targets = list(table.source_id), list(table.target_id)
    rows: dict[str, dict[str, float]] = {}
    for key, p in zip(table.keys.tolist(), table.probs.tolist()):
        row, target = divmod(key, len(targets))
        rows.setdefault(sources[row], {})[targets[target]] = p
    return rows


def read_sections(path: Path) -> dict[str, tuple[dict, dict[str, np.ndarray]]]:
    """Each section of a model file as its scalars and its arrays."""
    return modelfile.read(path, {name: lambda scalars, arrays: (scalars, arrays)
                                 for name in SECTIONS})


def edit_sections(path: Path, edit) -> None:
    """Rewrite the model file at ``path`` with ``edit`` applied to its
    sections (see ``read_sections``)."""
    sections = read_sections(path)
    edit(sections)
    modelfile.write(path, sections)


def split_file(path: Path) -> tuple[dict, bytes]:
    """A model file's parsed header and the bytes after the header line."""
    line, _, rest = path.read_bytes().partition(b"\n")
    return json.loads(line[len(modelfile.MAGIC):]), rest


def join_file(path: Path, header: dict, rest: bytes) -> None:
    """Write ``header`` and ``rest`` as ``split_file`` took them apart."""
    path.write_bytes(modelfile.MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
                     + rest)


def _edit_forest(name: str, value_of) -> Callable[[Path], None]:
    """A fault that sets the forest's ``name`` array at its first tree's
    root to ``value_of(scalars, arrays)`` of the forest section."""
    def fault(path: Path) -> None:
        def edit(sections):
            arrays = sections["forest"][1]
            arrays[name][0] = value_of(sections["forest"][0], arrays)
        edit_sections(path, edit)
    return fault


def _edit_header(edit) -> Callable[[Path], None]:
    """A fault that applies ``edit`` to the parsed header."""
    def fault(path: Path) -> None:
        header, rest = split_file(path)
        edit(header)
        join_file(path, header, rest)
    return fault


def _nested_v2(path: Path) -> None:
    """A version-2 JSON model whose first tree nests 3,000 levels deep."""
    tree = '{"left": ' * 3000 + '{"vote": 0}' + "}" * 3000
    path.write_text('{"forest": {"trees": [' + tree + ']}, "version": 2}', encoding="utf-8")


def _pop_vocabulary(sections) -> None:
    del sections["lm_ja"][1]["vocabulary"]


# Model files no load may accept, each made from a valid one in place,
# with the message its one-line error holds.
FAULTS = {
    "child-before-parent": (_edit_forest("right", lambda _, a: 0),
                            "section 'forest': node 0 has children 1 and 0"),
    "child-past-its-tree": (_edit_forest("right", lambda _, a: a["roots"][1]),
                            "section 'forest': node 0 has children 1 and "),
    "feature-out-of-range": (_edit_forest("feature", lambda s, _: len(s["feature_means"])),
                             "section 'forest': node 0 splits on feature 12 of a 12-feature"),
    "array-past-end": (_edit_header(lambda h: h["arrays"][-1].update(
        count=h["arrays"][-1]["count"] + 1)), "past the .* bytes after the header"),
    "trailing-bytes": (lambda path: path.write_bytes(path.read_bytes() + b"\0"),
                       "holds 1 bytes after its last array"),
    "unknown-dtype": (_edit_header(lambda h: h["arrays"][0].update(dtype="<f2")),
                      "unknown dtype '<f2'"),
    "header-without-newline": (lambda path: path.write_bytes(
        modelfile.MAGIC + b"{" + b" " * modelfile.HEADER_CAP),
        "header has no newline in its first 65536 bytes"),
    "version-1-json": (lambda path: path.write_text('{"version": 1}', encoding="utf-8"),
                       "retrain it with `localmine train-filter`"),
    "version-2-json": (lambda path: path.write_text('{"version": 2}', encoding="utf-8"),
                       "retrain it with `localmine train-filter`"),
    "deep-version-2-json": (_nested_v2, "retrain it with `localmine train-filter`"),
    "no-vocabulary": (lambda path: edit_sections(path, _pop_vocabulary),
                      "section 'lm_ja' lacks the key 'vocabulary'"),
    "int-feature-means": (_edit_header(lambda h: h["forest"].update(feature_means=5)),
                          "section 'forest': 'int' object is not iterable"),
    "null-header": (lambda path: path.write_bytes(modelfile.MAGIC + b"null\n"),
                    "filter model header is not a JSON object"),
}
