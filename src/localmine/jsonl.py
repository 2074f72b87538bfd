"""JSON Lines, the format of every line file the miner reads or writes.

One JSON object per line, UTF-8 with non-ASCII text left unescaped, each
line ended by LF.  Readers skip blank lines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write ``rows`` one object per line, creating missing parent
    directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """The objects of a JSON Lines file, in file order."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
