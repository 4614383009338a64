"""Normalization pipeline for comparison corpora.

Raw text from the wild carries punctuation, case, stray foreign characters
and encoding debris, all of which distort character statistics. The
:func:`cleanse` pipeline applies, in this fixed order:

1. strip punctuation-class characters (Unicode categories P*, S* and N*);
2. lowercase;
3. drop characters rarer than a proportional threshold (default 0.01%),
   measured over the word characters of this document only;
4. drop characters outside the configured script ranges, if any.

``preserve_chars`` exempts characters from all removal stages; the
apostrophe and the asterisk mask earn their keep here, since transcription
systems use them as letters. Digits fall under rule 1 by default but can be
preserved the same way (one target system uses digits as letters).

Words emptied by deletion are dropped from the table. Surviving records
keep their original positional fields — positions describe the source
document, and renumbering would silently change position-based selections.

The pipeline is idempotent: deletions only raise the surviving characters'
proportions, so a second pass removes nothing.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Mapping, Sequence
from functools import partial

from ._record import record
from .errors import ConfigError
from .ingest import (LongTable, character_counts, content_lines,
                     rewrite_types)
from .metrics import charset_from_counts, pair_counts, to_stream

DEFAULT_RARE_THRESHOLD = 0.0001  # 0.01% of word characters

_REMOVABLE_CATEGORIES = frozenset("PSN")


@record
class CleanseConfig:
    lowercase: bool = True
    strip_punctuation: bool = True
    rare_char_threshold: float = DEFAULT_RARE_THRESHOLD
    script_ranges: tuple[tuple[int, int], ...] | None = None
    preserve_chars: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rare_char_threshold < 1.0:
            raise ConfigError(
                f"rare_char_threshold must lie in [0, 1), "
                f"got {self.rare_char_threshold}")
        if self.script_ranges is not None:
            ranges = sorted(self.script_ranges)
            for lo, hi in ranges:
                if lo > hi:
                    raise ConfigError(
                        f"empty script range U+{lo:04X}..U+{hi:04X}")
            for (_, hi1), (lo2, _) in zip(ranges, ranges[1:]):
                if lo2 <= hi1:
                    raise ConfigError("script ranges overlap")
            object.__setattr__(self, "script_ranges", tuple(ranges))
        object.__setattr__(
            self, "preserve_chars", frozenset(self.preserve_chars))


def _is_removable(char: str) -> bool:
    return unicodedata.category(char)[0] in _REMOVABLE_CATEGORIES


def _in_ranges(char: str, ranges: tuple[tuple[int, int], ...]) -> bool:
    cp = ord(char)
    return any(lo <= cp <= hi for lo, hi in ranges)


def cleansing_table(counts: Mapping[str, int],
                    cfg: CleanseConfig) -> dict[int, str | None]:
    """The pipeline as one translation table, for a document whose words
    hold ``counts[c]`` of each character ``c``, each mapped to what it
    becomes or to None. Every stage decides per character, so the census
    after stripping and lowering carries each count to what its character
    becomes."""
    keep = cfg.preserve_chars

    def strip_and_lower(c: str) -> str:
        if c in keep:
            return c
        if cfg.strip_punctuation and _is_removable(c):
            return ""
        return c.lower() if cfg.lowercase else c

    first = {c: strip_and_lower(c) for c in counts}
    cleaned = character_counts(first.values(), counts.values())
    drop: set[str] = set()
    if cfg.rare_char_threshold > 0.0:
        total = sum(cleaned.values())
        drop = {c for c, n in cleaned.items()
                if n / total < cfg.rare_char_threshold and c not in keep}
    if cfg.script_ranges is not None:
        drop |= {c for c in cleaned
                 if c not in keep and not _in_ranges(c, cfg.script_ranges)}
    return str.maketrans({c: "".join(d for d in f if d not in drop) or None
                          for c, f in first.items()})


def cleaned_forms(forms: Sequence[str], freq: Sequence[int],
                  cfg: CleanseConfig) -> list[str]:
    """Each word type's form after the pipeline, for a document holding
    ``freq[t]`` tokens of ``forms[t]``; an empty form is a word the
    pipeline empties (see :func:`cleansing_table`). A form the pipeline
    leaves as it was is returned as the very string it was given."""
    table = cleansing_table(character_counts(forms, freq), cfg)
    return [w if (t := w.translate(table)) == w else t for w in forms]


def cleanse(table: LongTable, cfg: CleanseConfig) -> LongTable:
    """Run the pipeline over each distinct word once and drop the words it
    empties (see :func:`cleaned_forms`)."""
    return rewrite_types(table, partial(cleaned_forms, cfg=cfg))


def charset_report(table: LongTable) -> list[tuple[str, int, float]]:
    """Ranked character census: ``(character, count, proportion)``.

    The word separator is rank-eligible, reported as ``#`` and counted once
    per word — the same successor-position convention the metric layer
    uses, so this census is exactly the distribution behind h1. Sorted by
    descending count, ties by codepoint. Raises DataError, as
    ``to_stream`` does, for a word that contains ``#``.
    """
    if not len(table):
        return []
    return charset_from_counts(*pair_counts(to_stream(table)))


# int(x, 16) would also take a sign, "0x", "_" and non-ASCII digits.
_CODEPOINT = re.compile(r"(?:[Uu]\+)?([0-9A-Fa-f]{1,6})")


def parse_script_range(text: str) -> tuple[int, int]:
    """Parse ``U+0400..U+04FF`` into an inclusive codepoint interval."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(
            f"script range must look like U+0400..U+04FF, got {text!r}")
    bounds = []
    for p in parts:
        match = _CODEPOINT.fullmatch(p.strip())
        if not match or int(match[1], 16) > 0x10FFFF:
            raise ConfigError(
                f"bad codepoint {p.strip()!r} in script range {text!r}")
        bounds.append(int(match[1], 16))
    return bounds[0], bounds[1]


def parse_decimal(text: str) -> float:
    """``float(text)`` for ASCII text with no ``_``, surrounding space or
    leading ``+``, forms float() also takes; ``-0.0`` reads as ``0.0``.
    A leading ``-``, ``nan`` and ``inf`` are left to the range checks."""
    if (not text.isascii() or "_" in text or text != text.strip()
            or text.startswith("+")):
        raise ValueError(f"invalid decimal value: {text!r}")
    return float(text) + 0.0  # -0.0 + 0.0 is 0.0


_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


def parse_config(text: str) -> CleanseConfig:
    """Read a ``key=value`` config file into a CleanseConfig.

    Keys: lowercase, strip_punctuation, rare_char_threshold, script_ranges
    (comma-separated ``U+xxxx..U+yyyy``), preserve_chars (literal
    characters, no separators).
    """
    values: dict[str, object] = {}
    for n, line in content_lines(text):
        line = line.strip()
        if "=" not in line:
            raise ConfigError(f"line {n}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in ("lowercase", "strip_punctuation"):
            if raw.lower() in _TRUE:
                values[key] = True
            elif raw.lower() in _FALSE:
                values[key] = False
            else:
                raise ConfigError(f"line {n}: {key} must be true/false")
        elif key == "rare_char_threshold":
            try:
                values[key] = parse_decimal(raw)
            except ValueError:
                raise ConfigError(
                    f"line {n}: bad threshold {raw!r}") from None
        elif key == "script_ranges":
            try:
                values[key] = tuple(parse_script_range(part)
                                    for part in raw.split(",") if part)
            except ConfigError as exc:
                raise ConfigError(f"line {n}: {exc}") from None
        elif key == "preserve_chars":
            values[key] = frozenset(raw)
        else:
            raise ConfigError(f"line {n}: unknown key {key!r}")
    return CleanseConfig(**values)
