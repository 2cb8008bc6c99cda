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


# Rows are trees (a patch snapshot shared by two events is not a cycle), so
# the encoder does not look for cycles.
dumps_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_plain,
                                   check_circular=False).encode


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
# typed rows: a row dataclass's field annotations are its file's schema.
# Each row class gets one builder function, generated from its annotations
# the first time a row of it is built, as ``dataclasses`` generates
# ``__init__``.

class _Mismatch(Exception):
    """A value not of its annotation's type."""


_NOUNS = {str: "string", int: "integer", bool: "boolean", dict: "object", list: "list",
          float: "finite number"}
_EXACT = (str, int, bool, dict, list)  # the types JSON gives as they are


def _nests_row(tp) -> bool:
    return is_dataclass(tp) or any(map(_nests_row, typing.get_args(tp)))


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _read(tp, src: str, dst: str, env: dict, depth: int) -> tuple[list[str], str, str]:
    """Lines that read the JSON value in ``src`` as a ``tp`` into ``dst``,
    or raise _Mismatch, and how a SchemaError names one ``tp`` and many.
    ``tp`` is Any (any value, as it is), str, int, bool, dict, list, float
    (an int becomes one), a dataclass, X | None, or, from a JSON list,
    list[X], tuple[X, ...], tuple[X, Y, ...] or frozenset[X] of distinct
    items. A nested row's SchemaError passes out with a space before its
    message, and ``[j]`` before that from list item j, for the field's
    name to complete the path. ``env`` collects the names the lines use."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is Any:
        return [f"{dst} = {src}"], "any value", "any values"
    if origin is None and (tp in _NOUNS or is_dataclass(tp)):
        noun = "object" if is_dataclass(tp) else _NOUNS[tp]
        one, many = ("an " if noun[0] in "aeiou" else "a ") + noun, noun + "s"
        if tp in _EXACT:
            return [f"if type({src}) is not {tp.__name__}: raise _Mismatch", f"{dst} = {src}"], one, many
        if tp is float:
            return [f"if type({src}) not in (int, float) or not -_MAX <= {src} <= _MAX: raise _Mismatch",
                    f"{dst} = float({src})"], one, many
        build = f"_build{len(env)}"
        env[build] = _builder(tp)
        return [f"if type({src}) is not dict: raise _Mismatch",
                "try:",
                f"    {dst} = {build}({src})",
                "except SchemaError as exc:",
                "    raise SchemaError(f' {exc}') from None"], one, many
    if origin is tuple and Ellipsis not in args:  # unpacked, each item read on its own
        items = [f"t{depth}_{k}" for k in range(len(args))]
        reads = [f"r{depth}_{k}" for k in range(len(args))]
        lines = [f"if type({src}) is not list or len({src}) != {len(args)}: raise _Mismatch",
                 f"{', '.join(items)}, = {src}"]
        ones, manys = [], []
        for arg, item, read in zip(args, items, reads):
            item_lines, one, many = _read(arg, item, read, env, depth + 1)
            lines += item_lines
            ones.append(one)
            manys.append(many)
        what = (f"{len(args)} {manys[0]}" if len({*args}) == 1
                else ", ".join(ones[:-1]) + " and " + ones[-1])
        return lines + [f"{dst} = ({', '.join(reads)},)"], "a list of " + what, "lists of " + what
    if type(None) in args:
        lines, one, many = _read(args[0], src, dst, env, depth)
        return ([f"if {src} is None:", f"    {dst} = None", "else:", *_indent(lines)],
                "null or " + one, "nulls or " + many)
    if origin not in (list, tuple, frozenset) or len({*args} - {Ellipsis}) != 1:
        raise TypeError(f"no row reader for {tp!r}")
    item = args[0]
    lines = [f"if type({src}) is not list: raise _Mismatch"]
    if item is str:  # checked in C: join raises TypeError at the first item not a str
        lines += ["try:", f"    ''.join({src})", "except TypeError:", "    raise _Mismatch from None"]
        out, many = src, "strings"
    elif item in _EXACT:
        lines.append(f"if not {{*map(type, {src})}} <= {{{item.__name__}}}: raise _Mismatch")
        out, many = src, _NOUNS[item] + "s"
    else:
        out, x, y, j = f"out{depth}", f"x{depth}", f"y{depth}", f"j{depth}"
        item_lines, _, many = _read(item, x, y, env, depth + 1)
        loop = [f"for {x} in {src}:", *_indent(item_lines), f"    {out}.append({y})"]
        if _nests_row(item):  # the index the error names
            loop = ["try:", f"    for {j}, {x} in enumerate({src}):", *_indent(loop[1:]),
                    "except SchemaError as exc:",
                    f"    raise SchemaError(f'[{{{j}}}]{{exc}}') from None"]
        lines += [f"{out} = []", *loop]
    what = ("distinct " if origin is frozenset else "") + many
    if origin is list:
        return lines + [f"{dst} = {out}"], "a list of " + what, "lists of " + what
    lines.append(f"{dst} = {origin.__name__}({out})")
    if origin is frozenset:  # a repeated item
        lines.append(f"if len({dst}) != len({src}): raise _Mismatch")
    return lines, "a list of " + what, "lists of " + what


def _bad(name: str, noun: str, value) -> SchemaError:
    return SchemaError(f"field {name!r} must be {noun}, got {value!r}")


def _keys_error(row, names: frozenset) -> SchemaError:
    keys = row.keys() if isinstance(row, dict) else frozenset()
    missing = names - keys
    return SchemaError(f"missing field {min(missing)!r}" if missing
                       else f"unknown field {min(keys - names)!r}")


@functools.lru_cache(maxsize=None)
def _builder(cls: type) -> Callable:
    """``cls``'s builder: a generated function that reads each field of a
    decoded JSON object (see ``_read``) and passes them, in field order, to
    ``cls``."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    env = {"SchemaError": SchemaError, "_Mismatch": _Mismatch, "_MAX": sys.float_info.max,
           "_bad": _bad, "_keys_error": _keys_error, "_cls": cls, "_names": frozenset(names)}
    body = ["if type(row) is not dict or row.keys() != _names:",
            "    raise _keys_error(row, _names)"]
    for k, name in enumerate(names):
        lines, one, _ = _read(hints[name], "v", f"f{k}", env, 0)
        body += [f"v = row[{name!r}]", "try:", *_indent(lines),
                 "except _Mismatch:", f"    raise _bad({name!r}, {one!r}, v) from None"]
        if _nests_row(hints[name]):
            body += ["except SchemaError as exc:", f"    raise SchemaError(f'{name}{{exc}}') from None"]
    body.append(f"return _cls({', '.join(f'f{k}' for k in range(len(names)))})")
    exec("def build(row):\n" + "\n".join(_indent(body)), env)
    build = env["build"]
    build.__name__ = build.__qualname__ = f"build_{cls.__name__}"
    return build


def build_row(cls: type, row):
    """The ``cls`` row a decoded JSON object holds, built by ``cls``'s
    builder (see ``_read``), which leaves ``row`` as it was. Keys that are
    not exactly ``cls``'s fields, or a value not of its field's type, raise
    a SchemaError naming the field by its path, as in ``objects[0] field
    'box' must be ...``."""
    return _builder(cls)(row)


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
    values do not fit ``cls``'s fields (see ``build_row``), that ``check``
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
