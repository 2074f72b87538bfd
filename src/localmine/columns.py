"""Nested string-keyed tables stored as columns: the on-disk form of the
filter's Model 1 tables and language-model count levels.

A table maps each row name to a row ``{key: value}``.  ``to_columns``
writes it as four parallel columns: the row names, sorted; each row's
length; every row's keys, each row sorted and one row after another;
and the values in the same order.  An empty row holds nothing and is
not written.  A loader parses these as a few long JSON lists (or
strings, see the callers) instead of one JSON object or list per row
or entry.  ``from_columns`` builds a Model 1 table's rows from them;
a language model reads its columns into arrays instead (``charlm``).

``from_columns`` returns each distinct key as one shared string object
(through ``memo``), as the JSON parser's object-key memo would for a
row written as an object; the parser gives every list element its own
string.  Columns whose lengths disagree, a row length that is not a
positive integer (``check_lengths``, which both readers call), a
repeated row name, or a key repeated within a row, is a
``ValueError``.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence, TypeVar

V = TypeVar("V")


def to_columns(table: dict[str, dict[str, V]]) -> tuple[list[str], list[int], list[str], list[V]]:
    """Row names, row lengths, keys and values; see the module docstring."""
    names = sorted(name for name, row in table.items() if row)
    lengths: list[int] = []
    keys: list[str] = []
    values: list[V] = []
    for name in names:
        row = sorted(table[name].items())
        lengths.append(len(row))
        keys.extend(key for key, _ in row)
        values.extend(value for _, value in row)
    return names, lengths, keys, values


def column(section: dict, name: str, kind: type) -> list:
    """``section[name]`` when it is a list of ``kind`` (exactly: a bool
    is not an int), else a ``ValueError``."""
    values = section.get(name)
    if type(values) is not list or not set(map(type, values)) <= {kind}:
        raise ValueError(f"column {name!r} is not a list of {kind.__name__} values")
    return values


def check_lengths(names: Sequence, lengths: Sequence[int], n_keys: int, n_values: int) -> None:
    """A ``ValueError`` unless there is one positive length per row name
    and the lengths add up to the number of keys and of values."""
    if len(names) != len(lengths):
        raise ValueError(f"{len(names)} row names but {len(lengths)} row lengths")
    if min(lengths, default=1) < 1:
        raise ValueError("a row length is not positive")
    if sum(lengths) != n_keys or n_keys != n_values:
        raise ValueError(f"rows of {sum(lengths)} entries hold {n_keys} keys "
                         f"and {n_values} values")


def from_columns(
    names: Sequence[str],
    lengths: Sequence[int],
    keys: Sequence[str],
    values: Sequence[V],
    memo: dict[str, str],
) -> dict[str, dict[str, V]]:
    """The table ``to_columns`` wrote; see the module docstring."""
    check_lengths(names, lengths, len(keys), len(values))
    shared = map(memo.setdefault, keys, keys)
    value_iter = iter(values)
    table = {
        name: dict(zip(islice(shared, length), islice(value_iter, length)))
        for name, length in zip(names, lengths)
    }
    if len(table) != len(names):
        raise ValueError("a row name is repeated")
    if sum(map(len, table.values())) != len(keys):
        raise ValueError("a key is repeated within a row")
    return table
