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
import sys
import typing
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from .errors import SchemaError


def _plain(value):
    """A dataclass as its fields (a shallow ``vars()``, or its slots for a
    slotted one), a frozenset sorted."""
    if type(value) is frozenset:
        return sorted(value)
    if hasattr(value, "__dataclass_fields__"):
        slots = type(value).__dict__.get("__slots__")
        return vars(value) if slots is None else {name: getattr(value, name) for name in slots}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


dumps_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_plain).encode


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A temp file beside ``path``, open for writing, that replaces ``path``
    once the block ends. If the block raises, the temp file is deleted and
    ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def jsonl_writer(path: str | Path) -> Iterator[Callable[[Any], None]]:
    """A function that writes its argument as one canonical JSON line, for
    a caller that produces rows one at a time; ``path`` is replaced only
    once the block ends, and left as it was if the block raises (see
    ``_replacing``)."""
    with _replacing(path) as fh:

        def write(row) -> None:
            fh.write(dumps_canonical(row))
            fh.write("\n")

        yield write


def write_jsonl(path: str | Path, rows: Iterable) -> int:
    """Write one canonical JSON object per line (see ``jsonl_writer``),
    consuming ``rows`` one row at a time; returns the row count."""
    n = 0
    with jsonl_writer(path) as write:
        for row in rows:
            write(row)
            n += 1
    return n


_decode = json.JSONDecoder().raw_decode  # a stripped line needs no whitespace scans


def read_jsonl(path: str | Path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                value, end = _decode(line)
                if end < len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                yield value


# ---------------------------------------------------------------------------
# typed rows: a row dataclass's field annotations are its file's schema

class _Mismatch(Exception):
    """A value not of its annotation's type."""


def _mismatch():
    raise _Mismatch


def _object(cls: type, value):
    try:
        return build_row(cls, value) if type(value) is dict else _mismatch()
    except SchemaError as exc:
        raise SchemaError(f" {exc}") from None


_NOUNS = {str: "string", int: "integer", bool: "boolean", dict: "object", list: "list",
          float: "finite number"}
_EXACT = (str, int, bool, dict, list)  # the types JSON gives as they are


def _reader(tp) -> tuple[Callable, str, str]:
    """How a JSON value is read as a ``tp`` (or _Mismatch raised), and how a
    SchemaError names one ``tp`` and many: Any (any value, as it is), str,
    int, bool, dict, list, float (an int becomes one), a dataclass,
    X | None, or, from a JSON list, list[X], tuple[X, ...], tuple[X, Y, ...]
    or frozenset[X] of distinct items."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is Any:
        return (lambda value: value), "any value", "any values"
    if origin is tuple and Ellipsis not in args and len({*args}) > 1:
        reads, ones, _ = zip(*map(_reader, args))
        what = ", ".join(ones[:-1]) + " and " + ones[-1]

        def read_mixed(value):
            if type(value) is not list or len(value) != len(reads):
                raise _Mismatch
            return tuple(read(x) for read, x in zip(reads, value))

        return read_mixed, "a list of " + what, "lists of " + what
    if origin is None:
        noun = "object" if is_dataclass(tp) else _NOUNS[tp]
        if tp is float:
            read = lambda value: (float(value) if type(value) in (int, float)  # noqa: E731
                                  and abs(value) <= sys.float_info.max else _mismatch())
        elif is_dataclass(tp):
            read = functools.partial(_object, tp)
        else:
            read = lambda value: value if type(value) is tp else _mismatch()  # noqa: E731
        return read, ("an " if noun[0] in "aeiou" else "a ") + noun, noun + "s"
    item, one, many = _reader(args[0])
    if type(None) in args:
        return (lambda value: None if value is None else item(value)), "null or " + one, "nulls or " + many
    if origin not in (list, tuple, frozenset) or len({*args} - {Ellipsis}) != 1:
        raise TypeError(f"no row reader for {tp!r}")
    size = len(args) if origin is tuple and Ellipsis not in args else None

    def read(value):
        if type(value) is not list or size is not None and len(value) != size:
            raise _Mismatch
        if args[0] in _EXACT:  # checked in C; join raises TypeError at an item not a str
            try:
                same = "".join(value) is not None if args[0] is str else {*map(type, value)} <= {args[0]}
            except TypeError:
                same = False
            out = value if same else _mismatch()
        else:
            out = []
            for j, x in enumerate(value):
                try:
                    out.append(item(x))
                except SchemaError as exc:
                    raise SchemaError(f"[{j}]{exc}") from None
        out = out if origin is list else origin(out)
        if len(out) != len(value):  # a repeated frozenset item
            raise _Mismatch
        return out

    what = f"{size} {many}" if size else ("distinct " if origin is frozenset else "") + many
    return read, "a list of " + what, "lists of " + what


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> tuple[frozenset, tuple]:
    """``cls``'s fields; each one's name, exact JSON type, reader and noun."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    return frozenset(names), tuple((name, hints[name] if hints[name] in _EXACT else None,
                                    *_reader(hints[name])[:2]) for name in names)


def build_row(cls: type, row):
    """The ``cls`` row a decoded JSON object holds, its values read in place
    (see ``_reader``). Keys that are not exactly ``cls``'s fields, or a value
    not of its field's type, raise a SchemaError naming the field by its
    path, as in ``objects[0] field 'box' must be ...``."""
    names, checks = _plan(cls)
    if type(row) is not dict or row.keys() != names:
        keys = row.keys() if isinstance(row, dict) else frozenset()
        missing = names - keys
        raise SchemaError(f"missing field {min(missing)!r}" if missing
                          else f"unknown field {min(keys - names)!r}")
    for name, exact, read, noun in checks:
        value = row[name]
        if type(value) is not exact:
            try:
                row[name] = read(value)
            except _Mismatch:
                raise SchemaError(f"field {name!r} must be {noun}, got {value!r}") from None
            except SchemaError as exc:
                raise SchemaError(f"{name}{exc}") from None
    return cls(**row)


def write_rows(path: str | Path, rows: Iterable, meta: dict | None = None) -> int:
    """Write each dataclass row as its fields (see ``_plain``), after a
    ``{"__meta__": meta}`` header line when ``meta`` is given. Returns the
    row count, the header not counted."""
    header = [] if meta is None else [{"__meta__": meta}]
    return write_jsonl(path, itertools.chain(header, rows)) - len(header)


def iter_rows(path: str | Path, cls: type, unique: str | None = None,
              check: Callable | None = None) -> Iterator:
    """Read a file ``write_rows`` wrote back into ``cls`` rows, one row at a
    time, skipping a first-line ``__meta__`` header. A row whose keys or
    values do not fit ``cls``'s fields (see ``_reader``), that ``check``
    rejects, or whose ``unique`` field repeats raises a SchemaError naming
    the file, the row (from 0, the header not counted) and the field."""
    seen = set()
    n = 0
    for i, row in enumerate(read_jsonl(path)):
        if i or not (isinstance(row, dict) and "__meta__" in row):
            try:
                row = build_row(cls, row)
                if check is not None:
                    check(row)
                if unique is not None and getattr(row, unique) in seen:
                    raise SchemaError(f"duplicate {unique} {getattr(row, unique)!r}")
                seen.add(unique and getattr(row, unique))
            except SchemaError as exc:
                raise SchemaError(f"{path} row {n}: {exc}") from None
            n += 1
            yield row


def read_rows(path: str | Path, cls: type, unique: str | None = None,
              check: Callable | None = None) -> list:
    """Every row of ``iter_rows``, as a list."""
    return list(iter_rows(path, cls, unique, check))


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``obj`` as indented JSON; an ``obj`` that fails to encode
    leaves ``path`` as it was (see ``_replacing``)."""
    with _replacing(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def post_json(endpoint: str, payload: Any, timeout: float) -> Any:
    """POST ``payload`` as JSON and return the decoded JSON reply; any
    transport or decoding failure raises."""
    # Imported here, not at the top: only the external generator and bridger
    # post, and every other stage would pay for loading it.
    import urllib.request

    request = urllib.request.Request(
        endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))
