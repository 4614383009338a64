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

import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError
from .ingest import LongTable, take, with_words
from .metrics import BOUNDARY

DEFAULT_RARE_THRESHOLD = 0.0001  # 0.01% of word characters

_REMOVABLE_CATEGORIES = frozenset("PSN")


@dataclass(frozen=True, slots=True)
class CleanseConfig:
    lowercase: bool = True
    strip_punctuation: bool = True
    rare_char_threshold: float = DEFAULT_RARE_THRESHOLD
    script_ranges: tuple[tuple[int, int], ...] | None = None
    preserve_chars: frozenset[str] = field(default_factory=frozenset)

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


def cleanse(table: LongTable, cfg: CleanseConfig) -> LongTable:
    """Run the pipeline over each distinct word once and drop the words it
    empties; the rare-character census still counts every token.

    Every stage decides per character, so each pass is one translation
    table over the characters present.
    """
    keep = cfg.preserve_chars

    def strip_and_lower(c: str) -> str:
        if c in keep:
            return c
        if cfg.strip_punctuation and _is_removable(c):
            return ""
        return c.lower() if cfg.lowercase else c

    words = table.words()
    types = set(words)
    first = {ord(c): strip_and_lower(c) for c in set("".join(types))}
    cleaned = {w: w.translate(first) for w in types}

    drop: set[str] = set()
    if cfg.rare_char_threshold > 0.0:
        counts = Counter("".join(map(cleaned.__getitem__, words)))
        total = sum(counts.values())
        drop = {c for c, n in counts.items()
                if n / total < cfg.rare_char_threshold and c not in keep}
    if cfg.script_ranges is not None:
        drop |= {c for c in set("".join(cleaned.values()))
                 if c not in keep and not _in_ranges(c, cfg.script_ranges)}
    if drop:
        second = dict.fromkeys(map(ord, drop))
        cleaned = {w: v.translate(second) for w, v in cleaned.items()}

    new_words = list(map(cleaned.__getitem__, words))
    kept = take(table, new_words)  # an emptied word is false
    return with_words(kept, filter(None, new_words))


def charset_report(table: LongTable) -> list[tuple[str, int, float]]:
    """Ranked character census: ``(character, count, proportion)``.

    The word separator is rank-eligible, reported as ``#`` and counted once
    per word — the same successor-position convention the metric layer
    uses, so this census is exactly the distribution behind h1. Sorted by
    descending count, ties by codepoint.
    """
    if not len(table):
        return []
    counts = Counter("".join(table.words()))
    counts[BOUNDARY] += len(table)
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(c, n, n / total) for c, n in ranked]


def parse_script_range(text: str) -> tuple[int, int]:
    """Parse ``U+0400..U+04FF`` into an inclusive codepoint interval."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(
            f"script range must look like U+0400..U+04FF, got {text!r}")
    bounds = []
    for p in parts:
        p = p.strip()
        if p.upper().startswith("U+"):
            p = p[2:]
        try:
            bounds.append(int(p, 16))
        except ValueError:
            raise ConfigError(f"bad codepoint {p!r} in script range") from None
    return bounds[0], bounds[1]


_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


def parse_config(text: str) -> CleanseConfig:
    """Read a ``key=value`` config file into a CleanseConfig.

    Keys: lowercase, strip_punctuation, rare_char_threshold, script_ranges
    (comma-separated ``U+xxxx..U+yyyy``), preserve_chars (literal
    characters, no separators).
    """
    values: dict[str, object] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
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
                values[key] = float(raw)
            except ValueError:
                raise ConfigError(
                    f"line {n}: bad threshold {raw!r}") from None
        elif key == "script_ranges":
            values[key] = tuple(
                parse_script_range(part) for part in raw.split(",") if part)
        elif key == "preserve_chars":
            values[key] = frozenset(raw)
        else:
            raise ConfigError(f"line {n}: unknown key {key!r}")
    return CleanseConfig(**values)
