"""Small JSON / JSONL helpers with deterministic byte output, the row
reader and writer every dataclass row file goes through, and the one
JSON-over-HTTP POST the external clients share.

Every stage file is written through these functions so that identical
in-memory rows always serialize to identical bytes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import typing
import urllib.request
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import SchemaError


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one canonical JSON object per line; returns the row count.

    ``rows`` is consumed one row at a time, into a temp file beside ``path``
    that replaces ``path`` once every row is written. If ``rows`` raises,
    the temp file is deleted and ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    n = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(dumps_canonical(row))
                fh.write("\n")
                n += 1
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return n


def read_jsonl(path: str | Path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> tuple[frozenset, dict]:
    """``cls``'s field names, and the dataclass of each field typed as a
    list of dataclasses."""
    hints = typing.get_type_hints(cls)
    names = frozenset(f.name for f in fields(cls))
    lists = {n: typing.get_args(hints[n])[0] for n in names if typing.get_origin(hints[n]) is list}
    return names, {name: inner for name, inner in lists.items() if is_dataclass(inner)}


def _record(row) -> dict:
    lists = {name: [vars(x) for x in getattr(row, name)] for name in _schema(type(row))[1]}
    return {**vars(row), **lists} if lists else vars(row)


def write_rows(path: str | Path, rows: Iterable, meta: dict | None = None) -> int:
    """Write each dataclass row as its fields, read with a shallow ``vars()``;
    a field holding a list of dataclasses is written as their fields. With
    ``meta``, a ``{"__meta__": meta}`` header line comes first. Returns the
    row count, the header not counted."""
    header = [] if meta is None else [{"__meta__": meta}]
    return write_jsonl(path, itertools.chain(header, map(_record, rows))) - len(header)


def _build(cls: type, row, where: str):
    names, nested = _schema(cls)
    keys = row.keys() if isinstance(row, dict) else frozenset()
    if keys != names:
        missing = names - keys
        raise SchemaError(f"{where}missing field {min(missing)!r}" if missing
                          else f"{where}unknown field {min(keys - names)!r}")
    for name, inner in nested.items():
        if not (isinstance(row[name], list) and all(isinstance(item, dict) for item in row[name])):
            raise SchemaError(f"{where}field {name!r} must be a list of objects")
        row[name] = [_build(inner, item, f"{where}{name}[{j}] ") for j, item in enumerate(row[name])]
    return cls(**row)


def read_rows(path: str | Path, cls: type) -> list:
    """Read a file ``write_rows`` wrote back into ``cls`` rows, skipping a
    first-line ``__meta__`` header. A row whose keys are not exactly
    ``cls``'s fields (or, in a list of dataclasses, its items'), or whose
    list-of-dataclasses field is not a list of objects, raises a SchemaError
    naming the file, the row (counted from 0, the header not counted) and
    the field."""
    out = []
    for i, row in enumerate(read_jsonl(path)):
        if i or not (isinstance(row, dict) and "__meta__" in row):
            out.append(_build(cls, row, f"{path} row {len(out)}: "))
    return out


def write_json(path: str | Path, obj: Any) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def post_json(endpoint: str, payload: Any, timeout: float) -> Any:
    """POST ``payload`` as JSON and return the decoded JSON reply; any
    transport or decoding failure raises."""
    request = urllib.request.Request(
        endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))
