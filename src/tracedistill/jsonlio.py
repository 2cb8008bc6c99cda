"""Small JSON / JSONL helpers with deterministic byte output, and the one
JSON-over-HTTP POST the external clients share.

Every stage file is written through these functions so that identical
in-memory rows always serialize to identical bytes.
"""

from __future__ import annotations

import json
import urllib.request
from pathlib import Path
from typing import Any, Iterable, Iterator


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one canonical JSON object per line; returns the row count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps_canonical(row))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str | Path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


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
