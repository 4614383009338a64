"""Stable serialization helpers shared by the CLI and reports.

Two rules keep artifacts diffable and reproducible:

* floats print with 12 significant digits, everywhere (``fmt_float``), and
  JSON numbers are round-tripped through that representation, so a value
  shown in a CSV and the same value in a JSON report are byte-equal;
* JSON is emitted with a fixed layout (two-space indent, no trailing
  whitespace, one trailing newline, keys in insertion order) so reruns are
  byte-identical.

Machine-readable outputs carry ``schema_version`` so downstream scripts can
detect layout changes.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator

SCHEMA_VERSION = 1

_ENCODER = json.JSONEncoder(indent=2, ensure_ascii=False)


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def round_float(x: float) -> float:
    """``x`` at 12 significant digits; ``x`` itself if it already is."""
    return x if (rounded := float(fmt_float(x))) == x else rounded


def round_floats(obj):
    """Recursively apply the 12-significant-digit rule to every float,
    each once. Lists and dicts are rounded in place, so a float is let go
    as its rounded value takes its place; tuples become rounded lists."""
    if isinstance(obj, float):
        return round_float(obj)
    if isinstance(obj, tuple):
        return [round_floats(v) for v in obj]
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            obj[k] = round_floats(v)
    return obj


def json_pieces(obj) -> Iterator[str]:
    """:func:`json_dumps`'s text in pieces, made as a writer takes them.
    The floats of ``obj``'s lists and dicts are rounded in place."""
    yield from _ENCODER.iterencode(round_floats(obj))
    yield "\n"


def json_dumps(obj) -> str:
    return "".join(json_pieces(obj))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
