"""JSON Lines, the format of every line file the miner reads or writes,
and ``whole_file``, the one way the miner writes its line files.

One JSON object per line, UTF-8 with non-ASCII text left unescaped, each
line ended by LF.  Readers skip blank lines and reject a line that is
not an object.

A file is written whole or not at all: ``whole_file`` writes
``<name>.partial`` next to it and renames that over the file only once
every line is written, so a writer that raises (its rows fail midway,
or an input it reads is missing or malformed) leaves the old file as it
was, or no file, and no ``.partial`` file.  This guards against the
writing process failing, not the machine: nothing is fsynced.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO


@contextmanager
def whole_file(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose writes land at ``path`` when the block
    ends, and nowhere when it raises; see the module docstring.  Creates
    missing parent directories."""
    partial = Path(f"{path}.partial")
    partial.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
        partial.replace(path)
    finally:  # gone after the rename; left behind by a block that raised
        partial.unlink(missing_ok=True)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write ``rows`` one object per line, whole or not at all."""
    with whole_file(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """The objects of a JSON Lines file, in file order; a line that
    holds JSON but not an object is a ``ValueError`` naming the file
    and line number."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                row = json.loads(line)
                if type(row) is not dict:
                    raise ValueError(f"{path}:{number}: not a JSON object")
                yield row
