"""The filter model file (version 3): one header line, then raw arrays.

The file starts with ``MAGIC`` and a JSON object on one ASCII line,
written with sorted keys: the ``version``, each section's scalars under
the section's name, and ``arrays``, one entry per array in file order
giving its ``section``, ``name``, ``dtype`` (one of ``DTYPES``), element
``count`` and byte ``offset``, counted from the end of the header line.
The arrays follow as raw little-endian bytes, each right after the one
before it, and the last one ends where the file ends.  A component
gives its section as its scalars and its arrays in a fixed order
(``to_arrays``), so two trainings write identical bytes, and is built
from them again by ``from_arrays``.

``read`` reads at most ``HEADER_CAP`` bytes of header and checks that
its arrays tile the rest of the file exactly before it reads any of
them.  It then builds one section at a time: each of the section's
arrays is read with ``np.fromfile`` into the array the component keeps
(or builds from and frees), so no text, parsed payload or whole-file
buffer is held.  Nothing on the way recurses: the header's JSON is
parsed with a depth error caught, and no array is walked as a tree.

A file that starts with ``{`` is a JSON model of version 1 or 2, which
is no longer read.  That, a header that is not ``MAGIC`` and one line of
ASCII JSON holding an object, a version other than 3, an array entry
that is malformed, of an unknown dtype, out of place or past the end of
the file, bytes after the last array, a section that is missing or not
an object, and a section its component rejects (a missing array or
scalar, a value of the wrong type, a dtype other than the one the
component keeps, or a value out of range; see each ``from_arrays``), is
a one-line ``ValueError`` that names the section where there is one.
Nothing depends on the file's name or extension.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

import numpy as np

T = TypeVar("T")

MAGIC = b"localmine-filter "
VERSION = 3
DTYPES = frozenset({"<i8", "<f8", "<u4", "|u1"})
HEADER_CAP = 1 << 16  # bytes, the newline included

Arrays = dict[str, np.ndarray]
Section = tuple[dict, Arrays]  # a component's scalars and its arrays by name


class _Entry(NamedTuple):
    name: str
    dtype: str
    count: int
    offset: int


def array(arrays: Arrays, name: str, dtype: str) -> np.ndarray:
    """``arrays[name]`` when its dtype is ``dtype``; a ``ValueError`` when
    it is another, a ``KeyError`` when it is missing."""
    found = arrays[name]
    if found.dtype.str != dtype:
        raise ValueError(f"array {name!r} is {found.dtype.str}, not {dtype}")
    return found


def write(path: str | Path, sections: dict[str, Section]) -> None:
    """Write ``sections``, each a component's ``to_arrays``, in order."""
    header: dict = {"version": VERSION}
    entries = []
    offset = 0
    for section, (scalars, arrays) in sections.items():
        header[section] = scalars
        for name, values in arrays.items():
            if values.dtype.str not in DTYPES:
                raise ValueError(f"array {section}.{name} is {values.dtype.str}, "
                                 f"not one of {sorted(DTYPES)}")
            entries.append({"section": section, "name": name, "dtype": values.dtype.str,
                            "count": len(values), "offset": offset})
            offset += values.nbytes
    header["arrays"] = entries
    line = MAGIC + json.dumps(header, sort_keys=True).encode("ascii") + b"\n"
    if len(line) > HEADER_CAP:
        raise ValueError(f"filter model header of {len(line)} bytes exceeds {HEADER_CAP}")
    with open(path, "wb") as f:
        f.write(line)
        for _, arrays in sections.values():
            for values in arrays.values():
                f.write(np.ascontiguousarray(values).data)


def read(path: str | Path, readers: dict[str, Callable[[dict, Arrays], T]]) -> dict[str, T]:
    """Each section of ``readers``, in order, built by its reader from its
    scalars and arrays; see the module docstring."""
    with open(path, "rb") as f:
        header, start = _header(f)
        entries = _entries(header, os.fstat(f.fileno()).st_size - start, readers)
        built = {}
        for section, reader in readers.items():
            arrays = {}
            for entry in entries[section]:
                f.seek(start + entry.offset)
                arrays[entry.name] = np.fromfile(f, dtype=entry.dtype, count=entry.count)
                if len(arrays[entry.name]) != entry.count:
                    raise ValueError(f"filter model array {section}.{entry.name} is cut short")
            built[section] = _build(section, reader, header[section], arrays)
        return built


def _header(f) -> tuple[dict, int]:
    """The parsed header line and its length in bytes."""
    line = f.readline(HEADER_CAP)
    if line.startswith(b"{"):
        raise ValueError("filter model is a JSON file (version 1 or 2), which is no longer "
                         "read; retrain it with `localmine train-filter`")
    if not line.startswith(MAGIC):
        raise ValueError(f"filter model does not start with {MAGIC.decode()!r}")
    if not line.endswith(b"\n"):
        raise ValueError(f"filter model header has no newline in its first {HEADER_CAP} bytes")
    try:
        header = json.loads(line[len(MAGIC):].decode("ascii"))
    except RecursionError:
        raise ValueError("filter model header nests too deeply") from None
    except ValueError as err:
        raise ValueError(f"filter model header is not ASCII JSON: {err}") from None
    if type(header) is not dict:
        raise ValueError("filter model header is not a JSON object")
    if header.get("version") != VERSION:
        raise ValueError(f"unsupported filter model version: {header.get('version')!r}")
    return header, len(line)


def _entries(header: dict, size: int, sections) -> dict[str, list[_Entry]]:
    """The header's array entries by section, checked to tile the
    ``size`` bytes after the header in order."""
    for section in sections:
        if type(header.get(section)) is not dict:
            raise ValueError(f"filter model section {section!r} is missing or not an object")
    listed = header.get("arrays")
    if type(listed) is not list:
        raise ValueError("filter model header's 'arrays' is not a list")
    found: dict[str, list[_Entry]] = {section: [] for section in sections}
    names: set[tuple] = set()
    end = 0
    for entry in listed:
        if type(entry) is not dict:
            raise ValueError("filter model array entry is not an object")
        section, name, dtype, count, offset = (
            entry.get(key) for key in ("section", "name", "dtype", "count", "offset"))
        label = f"{section}.{name}"
        if type(section) is not str or type(name) is not str:
            raise ValueError(f"filter model array {label!r} lacks a section or name string")
        if section not in found:
            raise ValueError(f"filter model array {label!r} is in no section of the filter")
        if (section, name) in names:
            raise ValueError(f"filter model array {label!r} is repeated")
        if type(dtype) is not str or dtype not in DTYPES:
            raise ValueError(f"filter model array {label!r} has the unknown dtype {dtype!r}")
        if type(count) is not int or count < 0:
            raise ValueError(f"filter model array {label!r} has a count that is not "
                             "a non-negative integer")
        if type(offset) is not int or offset != end:
            raise ValueError(f"filter model array {label!r} starts at byte {offset!r}, "
                             f"not {end}, where the array before it ends")
        end += count * np.dtype(dtype).itemsize
        if end > size:
            raise ValueError(f"filter model array {label!r} ends at byte {end}, past the "
                             f"{size} bytes after the header")
        names.add((section, name))
        found[section].append(_Entry(name, dtype, count, offset))
    if end != size:
        raise ValueError(f"filter model holds {size - end} bytes after its last array")
    return found


def _build(section: str, reader: Callable[[dict, Arrays], T], scalars: dict,
           arrays: Arrays) -> T:
    """``reader(scalars, arrays)``; a missing key, or a value of the
    wrong type or out of range, is a one-line ``ValueError`` naming the
    section."""
    try:
        return reader(scalars, arrays)
    except KeyError as err:
        raise ValueError(f"filter model section {section!r} lacks the key {err.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"filter model section {section!r}: {err}") from None
