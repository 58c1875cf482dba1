"""Canonical forms of run files: config and content hashes, whole-file writes,
CSV text, and strict JSONL rows.

Run identity rests on these hashes, so the canonical form is pinned: keys
sorted, no whitespace, floats that carry an integral value normalized to ints
(so 3 and 3.0 hash identically), NaN/inf rejected. Every file a run writes
goes through write_file, so a file at its final path is always complete.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import threading
from pathlib import Path


def _normalize(obj):
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {obj} cannot be canonicalized")
        if obj.is_integer() and abs(obj) < 2**53:
            return int(obj)
        return obj
    return obj


def check_int_fields(record, *names: str):
    """Raise ValueError unless each named field of a config record is a Python
    int: never a bool, which hashes as true and counts as 1, nor a numpy
    integer, which canonical_json cannot write."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


def canonical_json(obj) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    """sha256 hex digest of the canonical JSON form of a config tree."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def bytes_hash(data: bytes) -> str:
    """sha256 hex digest of raw bytes, as content_hash gives for a file of them."""
    return hashlib.sha256(data).hexdigest()


def content_hash(path) -> str:
    """sha256 hex digest of a file's raw bytes."""
    return bytes_hash(Path(path).read_bytes())


def write_file(path, data: str | bytes):
    """Write `data` (text as UTF-8) as the whole of `path`, making its parent
    directories. The bytes go to the hidden sibling `.{name}.{pid}.{thread}.tmp`,
    which then replaces `path`, so a killed run leaves at most that temp file,
    never a partial `path`, and two threads writing one path never share it; a
    failed write removes it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(rows) -> str:
    """CSV text of `rows`, each line ending in a bare newline."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def read_jsonl(path, keys, required, error=ValueError, data: bytes | None = None) -> list[tuple[str, dict[str, str]]]:
    """(`path:line`, row) for each non-blank line of a JSONL file of strings:
    the bytes `data` read from path when given, else the file's bytes now.

    A row is an object whose keys lie in `keys` and include `required`, and
    whose values are JSON strings; an optional key may be null, which reads as
    absent. Bad JSON and any other row raise `error`.
    """
    if data is None:
        data = Path(path).read_bytes()
    rows = []
    # decoded as open(path, encoding="utf-8") would read the file
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            where = f"{path}:{line_no}"
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{where}: bad JSON: {exc}") from None
            if not isinstance(row, dict) or not set(required) <= set(row) <= set(keys):
                raise error(f"{where}: expected an object with keys {sorted(required)} (allowed: {sorted(keys)})")
            row = {k: v for k, v in row.items() if v is not None or k in required}
            for key, value in row.items():
                if not isinstance(value, str):
                    raise error(f"{where}: {key} must be a string, got {value!r}")
            rows.append((where, row))
    return rows
