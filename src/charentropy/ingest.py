"""Parse interlinear transcription files and plain text into word tables.

The central structure is the :class:`LongTable`: the words of one source in
document order, stored column by column. Besides the surface forms there is
a column for each word's position within its line and paragraph and for each
page-level classification (folio, quire, section, language, scribal hand,
transcriber); the table carries one ``source_id``. A :class:`WordRecord` is
one row of the table, built on demand.

Columns are validated once, where tables are built: the two parsers,
:func:`read_tsv`, :func:`from_words` and :func:`with_words`. Every other table
derives from those through the only two transforms, :func:`with_words`
(replace every word) and :func:`take` (keep the rows a boolean mask selects),
so word rewrites elsewhere in the package compute one result per distinct
word and map it back over the tokens.

Interlinear input follows a documented subset of the line-by-line
transcription family used for the Voynich manuscript:

* ``#``-prefixed lines are comments and are skipped;
* every text line is ``<folio.locus.line;transcriber>`` followed by the
  payload, e.g. ``<f1r.P1.2;H>  daiin.ckhey.qo``;
* the locus code names the text unit on the page; codes starting with ``P``
  (or ``p``) are running paragraph text, anything else counts as
  label-or-diagram text;
* ``{...}`` spans in the payload are transcriber annotations and are
  stripped;
* ``.`` separates words; ``,`` marks an uncertain word break and is deleted
  by default (fusing its neighbours), or treated as a break when
  ``comma_breaks=True``;
* ``*`` is an unreadable glyph and is kept as a literal character.

Paragraph boundaries are recovered from the locus codes: whenever the
(folio, locus) pair changes between consecutive text lines, a new paragraph
begins. This also resets paragraph counters when the locus kind changes
(e.g. paragraph text interrupted by a diagram label).

Section, language, hand and quire are not stored in the transcription files;
they come from an external folio metadata map (a five-column TSV), because
these are scholarly classifications subject to revision.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import NoReturn

from .errors import DecodeError, MetadataError, ParseError

PARAGRAPH = "paragraph"
LABEL_OR_DIAGRAM = "label_or_diagram"
UNCLASSIFIED = "unclassified"

LOCUS_KINDS = (PARAGRAPH, LABEL_OR_DIAGRAM)
LANGUAGES = ("A", "B", UNCLASSIFIED)
HANDS = ("1", "2", "3", "4", "5", UNCLASSIFIED)

# No surface form may contain whitespace: every carrier format (interlinear
# payloads, plain text, the long-table TSV) breaks on it. Interlinear words
# additionally may not contain the transcription break marks or the stream
# boundary symbol; plain-text words may (raw corpora carry punctuation until
# cleansing strips it), which is why that stricter check lives in the
# interlinear parser, not here.
_WHITESPACE_CHARS = frozenset(" \t\r\n\v\f")
_INTERLINEAR_FORBIDDEN = frozenset(".,#")

_LOCUS_RE = re.compile(
    r"^<\s*(?P<folio>[A-Za-z0-9]+)"
    r"\.(?P<locus>[A-Za-z][A-Za-z0-9]*)"
    r"\.(?P<line>\d+)"
    r"\s*;\s*(?P<transcriber>[A-Za-z0-9]+)\s*>"
    r"(?P<payload>.*)$"
)

_ANNOTATION_RE = re.compile(r"\{[^{}]*\}")

# The columns of a LongTable, in WordRecord field order.
RECORD_FIELDS = (
    "surface_form",
    "line_pos_fwd", "line_pos_rev", "para_pos_fwd", "para_pos_rev",
    "locus_kind", "line_number", "paragraph_number",
    "folio", "quire", "section", "language", "hand", "transcriber",
)

_INT_FIELDS = tuple(
    f for f in RECORD_FIELDS if f.endswith(("_fwd", "_rev", "_number")))
_ENUM_FIELDS = {"locus_kind": LOCUS_KINDS, "language": LANGUAGES,
                "hand": HANDS}


def _check_surface_form(word: str) -> None:
    if not word:
        raise ValueError("surface_form must be non-empty")
    bad = _WHITESPACE_CHARS.intersection(word)
    if bad:
        raise ValueError(
            f"surface_form {word!r} contains whitespace {sorted(bad)!r}")


@dataclass(frozen=True, slots=True)
class WordRecord:
    """One word of the source text with its full positional metadata.

    Positions are 1-based distances: ``line_pos_fwd`` counts from the start
    of the line, ``line_pos_rev`` from its end, and likewise for the
    paragraph counters, so ``line_pos_fwd + line_pos_rev`` equals the line's
    word count plus one. Positions always describe the word's place in the
    *original* document; filtering a table does not renumber survivors.
    """

    surface_form: str
    line_pos_fwd: int
    line_pos_rev: int
    para_pos_fwd: int
    para_pos_rev: int
    locus_kind: str
    line_number: int
    paragraph_number: int
    folio: str
    quire: str
    section: str
    language: str
    hand: str
    transcriber: str

    def __post_init__(self) -> None:
        _check_surface_form(self.surface_form)
        for name in _INT_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        for name, allowed in _ENUM_FIELDS.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}")


def _invalid_values(name: str, values: set) -> set:
    """The values among ``values`` that WordRecord rejects in field
    ``name``."""
    if name == "surface_form":
        return {w for w in values
                if not w or not _WHITESPACE_CHARS.isdisjoint(w)}
    if name in _INT_FIELDS:
        return {v for v in values if v < 1}
    if name in _ENUM_FIELDS:
        return values.difference(_ENUM_FIELDS[name])
    return set()


def check_words(words: Sequence[str]) -> None:
    """Raise WordRecord's ValueError for the first invalid word, if any,
    judging each distinct word once."""
    bad = _invalid_values("surface_form", set(words))
    if bad:
        _check_surface_form(next(w for w in words if w in bad))


@dataclass(frozen=True, slots=True, init=False)
class LongTable:
    """An ordered, immutable table of words from one source.

    ``columns`` holds one tuple per :data:`RECORD_FIELDS` entry, all of the
    table's length. Every constructor validates what it is given, so each
    row satisfies WordRecord's checks.
    """

    columns: tuple[tuple, ...]
    source_id: str

    def __init__(self, records: Iterable[WordRecord], source_id: str) -> None:
        records = tuple(records)
        object.__setattr__(self, "columns", tuple(
            tuple(getattr(r, name) for r in records)
            for name in RECORD_FIELDS))
        object.__setattr__(self, "source_id", source_id)

    @classmethod
    def _from_columns(cls, columns: Iterable[Iterable],
                      source_id: str) -> "LongTable":
        """A table over columns the caller has already validated."""
        table = object.__new__(cls)
        object.__setattr__(table, "columns", tuple(map(tuple, columns)))
        object.__setattr__(table, "source_id", source_id)
        return table

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return iter(self.records)

    @property
    def records(self) -> tuple[WordRecord, ...]:
        """The rows as WordRecords, built on each access."""
        return tuple(WordRecord(*row) for row in zip(*self.columns))

    def words(self) -> list[str]:
        return list(self.columns[0])

    def column(self, name: str) -> tuple:
        return self.columns[RECORD_FIELDS.index(name)]


@dataclass(frozen=True, slots=True)
class FolioMetadataMap:
    """folio -> (section, language, hand, quire), loaded from a TSV.

    Lookups are total over parsed input: a folio with no entry fails the
    parse, unless a ``default_entry`` is set (see :meth:`permissive`), in
    which case unknown folios take the default classification.
    """

    entries: dict[str, tuple[str, str, str, str]]
    default_entry: tuple[str, str, str, str] | None = None

    def lookup(self, folio: str) -> tuple[str, str, str, str]:
        try:
            return self.entries[folio]
        except KeyError:
            if self.default_entry is not None:
                return self.default_entry
            raise MetadataError([folio]) from None

    def permissive(self) -> "FolioMetadataMap":
        """Copy that classifies unknown folios as unclassified."""
        return FolioMetadataMap(
            entries=self.entries,
            default_entry=("", UNCLASSIFIED, UNCLASSIFIED, ""))

    @classmethod
    def from_tsv(cls, text: str) -> "FolioMetadataMap":
        """Parse ``folio<TAB>section<TAB>language<TAB>hand<TAB>quire`` rows.

        ``#``-prefixed lines are comments; a literal header row is skipped.
        """
        entries: dict[str, tuple[str, str, str, str]] = {}
        for n, line in enumerate(text.splitlines(), start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if fields[0] == "folio" and len(fields) == 5:
                continue
            if len(fields) != 5:
                raise ParseError(
                    f"folio metadata row needs 5 tab-separated fields, "
                    f"got {len(fields)}", n)
            folio, section, language, hand, quire = (f.strip() for f in fields)
            if language not in LANGUAGES:
                raise ParseError(f"unknown language {language!r}", n)
            if hand not in HANDS:
                raise ParseError(f"unknown hand {hand!r}", n)
            entries[folio] = (section, language, hand, quire)
        return cls(entries)


def _decode(raw: bytes) -> str:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("input is not valid UTF-8", exc.start) from None
    # A UTF-8 byte-order mark is an encoding signature, not text.
    return text.removeprefix("\ufeff")


def _table_from_lines(lines: list[tuple], source_id: str) -> LongTable:
    """Expand per-line words and attributes into a table's columns.

    Each entry of ``lines`` is ``(words, locus_kind, line_number,
    paragraph_number, folio, quire, section, language, hand, transcriber)``
    for one text line, in document order. Every attribute repeats for each
    word of its line, and the four position columns follow from the
    per-line word counts and paragraph numbers.
    """
    counts = [len(line[0]) for line in lines]
    para_size: Counter = Counter()
    for n, line in zip(counts, lines):
        para_size[line[3]] += n
    line_fwd: list[int] = []
    line_rev: list[int] = []
    para_fwd: list[int] = []
    para_rev: list[int] = []
    placed: Counter = Counter()  # words of each paragraph already placed
    for n, line in zip(counts, lines):
        para = line[3]
        before = placed[para]
        placed[para] += n
        left = para_size[para] - before
        line_fwd.extend(range(1, n + 1))
        line_rev.extend(range(n, 0, -1))
        para_fwd.extend(range(before + 1, before + n + 1))
        para_rev.extend(range(left, left - n, -1))
    per_line = list(zip(*lines)) or [()] * 10
    words = chain.from_iterable(per_line[0])
    attributes = (chain.from_iterable(map(repeat, values, counts))
                  for values in per_line[1:])
    return LongTable._from_columns(
        (words, line_fwd, line_rev, para_fwd, para_rev, *attributes),
        source_id)


def _split_payload(payload: str, comma_breaks: bool, line_number: int) -> tuple[str, ...]:
    if "{" in payload or "}" in payload:
        stripped = _ANNOTATION_RE.sub("", payload)
        if "{" in stripped or "}" in stripped:
            raise ParseError("unbalanced '{' annotation", line_number)
        payload = stripped
    if comma_breaks:
        payload = payload.replace(",", ".")
    else:
        payload = payload.replace(",", "")
    words = tuple(w for w in re.split(r"[.\s]+", payload) if w)
    for w in words:
        bad = _INTERLINEAR_FORBIDDEN.intersection(w)
        if bad:
            raise ParseError(
                f"word {w!r} contains reserved character(s) {sorted(bad)!r}",
                line_number)
    return words


def parse_interlinear(
    raw: bytes,
    meta: FolioMetadataMap,
    transcriber_filter: str | None = None,
    *,
    comma_breaks: bool = False,
    source_id: str = "",
) -> LongTable:
    """Parse an interlinear transcription file into a LongTable.

    One row per credible word. When ``transcriber_filter`` is given, only
    that transcriber's lines are kept, and line/paragraph positions are
    computed over the filtered text (an interlinear file repeats each locus
    once per transcriber; positions describe a single transcriber's
    document). ``comma_breaks=True`` treats uncertain breaks as real breaks
    instead of deleting them.

    Raises ParseError for malformed locus headers (with the line number) and
    MetadataError listing every folio missing from ``meta``.
    """
    text = _decode(raw)
    parsed: list[tuple[str, str, int, str, tuple[str, ...], int]] = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            continue
        m = _LOCUS_RE.match(line.strip())
        if m is None:
            raise ParseError(
                "expected '<folio.locus.line;transcriber>' locus header", n)
        if transcriber_filter is not None and m["transcriber"] != transcriber_filter:
            continue
        parsed.append((m["folio"], m["locus"], int(m["line"]),
                       m["transcriber"],
                       _split_payload(m["payload"], comma_breaks, n), n))

    if meta.default_entry is None:
        missing = sorted({folio for folio, *_ in parsed} - set(meta.entries))
        if missing:
            raise MetadataError(missing)

    # Group consecutive lines into paragraphs by (folio, locus).
    lines: list[tuple] = []
    paragraph = 0
    prev_key: tuple[str, str] | None = None
    for folio, locus, line_number, transcriber, words, source_line in parsed:
        if (folio, locus) != prev_key:
            paragraph += 1
            prev_key = (folio, locus)
        section, language, hand, quire = meta.lookup(folio)
        kind = PARAGRAPH if locus[0] in "Pp" else LABEL_OR_DIAGRAM
        if words:
            # One record per line checks the fields its words share (locus
            # kind, line number, language, hand); positions are valid by
            # construction and the payload split already rejected bad words.
            try:
                WordRecord(words[0], 1, 1, 1, 1, kind, line_number, paragraph,
                           folio, quire, section, language, hand, transcriber)
            except ValueError as exc:
                raise ParseError(str(exc), source_line) from None
        lines.append((words, kind, line_number, paragraph, folio, quire,
                      section, language, hand, transcriber))
    return _table_from_lines(lines, source_id)


def parse_plaintext(raw: bytes, source_id: str) -> LongTable:
    """Parse whitespace-separated plain text into a LongTable.

    Line numbers are physical file lines; paragraphs are blocks separated by
    blank lines. All classification fields are unclassified (folio, quire,
    section and transcriber are empty strings).
    """
    text = _decode(raw)
    lines: list[tuple] = []
    paragraph = 0
    in_block = False
    for n, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if not words:
            in_block = False
            continue
        if not in_block:
            paragraph += 1
            in_block = True
        lines.append((words, PARAGRAPH, n, paragraph, "", "", "",
                      UNCLASSIFIED, UNCLASSIFIED, ""))
    return _table_from_lines(lines, source_id)


def take(table: LongTable, mask: Sequence[bool]) -> LongTable:
    """The rows where ``mask`` is true, order and positions preserved."""
    if len(mask) != len(table):
        raise ValueError(f"mask of {len(mask)} for {len(table)} records")
    return LongTable._from_columns(
        (compress(column, mask) for column in table.columns), table.source_id)


def select(table: LongTable, predicate: Callable[[WordRecord], bool]) -> LongTable:
    """Subsequence of records matching ``predicate``, order preserved."""
    return take(table, [predicate(r) for r in table.records])


# The sixteen canonical document selections: the whole text, each Currier
# language, and each scribal hand -- with and without label/diagram text.
# Each maps a column name to the value a kept row must have there.
def _criteria(language: str | None, hand: str | None,
              text_only: bool) -> dict[str, str]:
    criteria = {}
    if language is not None:
        criteria["language"] = language
    if hand is not None:
        criteria["hand"] = hand
    if text_only:
        criteria["locus_kind"] = PARAGRAPH
    return criteria


CANONICAL_SELECTIONS: dict[str, dict[str, str]] = {}
for _name, _lang, _hand in [("full", None, None),
                            ("a", "A", None), ("b", "B", None),
                            ("hand1", None, "1"), ("hand2", None, "2"),
                            ("hand3", None, "3"), ("hand4", None, "4"),
                            ("hand5", None, "5")]:
    CANONICAL_SELECTIONS[_name] = _criteria(_lang, _hand, False)
    CANONICAL_SELECTIONS[_name + "_text"] = _criteria(_lang, _hand, True)
del _name, _lang, _hand


def selection_mask(table: LongTable, name: str) -> bytes:
    """One byte per row: 1 where the row meets every criterion of the
    canonical selection ``name`` (``full``, ``a_text``, ...), else 0. Each
    criterion is judged once per distinct value of its column."""
    try:
        criteria = CANONICAL_SELECTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown selection {name!r}; expected one of "
            + ", ".join(sorted(CANONICAL_SELECTIONS))) from None
    n = len(table)
    # Bytes of 0 and 1 read as one integer: their AND is the rows that
    # meet both criteria.
    keep = int.from_bytes(b"\x01" * n, "little")
    for column, wanted in criteria.items():
        values = table.column(column)
        hit = {v: int(v == wanted) for v in set(values)}
        keep &= int.from_bytes(bytes(map(hit.__getitem__, values)), "little")
    return keep.to_bytes(n, "little")


def canonical_selection(table: LongTable, name: str) -> LongTable:
    """Apply one of the sixteen named selections (``full``, ``a_text``, ...)."""
    mask = selection_mask(table, name)
    return take(table, mask) if CANONICAL_SELECTIONS[name] else table


# ---------------------------------------------------------------------------
# TSV serialization: surface_form followed by the 14 metadata columns.
# ---------------------------------------------------------------------------

TSV_COLUMNS = RECORD_FIELDS + ("source_id",)

# read_tsv splits the text into pieces of about this many characters, so
# the per-field strings it makes at once stay bounded whatever the size of
# the table.
_CHUNK_CHARS = 1 << 18


def write_tsv(table: LongTable) -> str:
    columns = []
    for name, column in zip(RECORD_FIELDS, table.columns):
        if name in _INT_FIELDS:
            as_str = {v: str(v) for v in set(column)}
            column = map(as_str.__getitem__, column)
        columns.append(column)
    rows = zip(*columns, repeat(table.source_id + "\n"))
    return "\t".join(TSV_COLUMNS) + "\n" + "".join(map("\t".join, rows))


def _line_chunks(text: str):
    """``text.splitlines()`` in consecutive pieces, each cut after a
    ``\\n``, which ends a line wherever it stands."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK_CHARS)
        end = len(text) if cut < 0 else cut + 1
        yield text[start:end].splitlines()
        start = end


def _chunk_columns(rows: list[str], source_id: str | None,
                   interned: list[dict]):
    """``(source_id, columns)`` of non-blank data lines, or None when a row
    is invalid or has another source_id than ``source_id`` (when given) or
    the first row. Each column is validated over its distinct values, and
    its strings are taken from its dict in ``interned``."""
    width = len(TSV_COLUMNS)
    # No line contains "\n", so a field that is exactly "\n" ends a row, and
    # every row has ``width`` fields when those fields sit at every
    # (width + 1)-th place and nowhere else.
    fields = "\t\n\t".join(rows).split("\t")
    if (len(fields) != (width + 1) * len(rows) - 1
            or fields[width::width + 1].count("\n") != len(rows) - 1):
        return None
    ids = set(fields[width - 1::width + 1])
    if len(ids) != 1 or (source_id is not None and source_id not in ids):
        return None
    columns = []
    for i, (name, cache) in enumerate(zip(RECORD_FIELDS, interned)):
        part = fields[i::width + 1]
        # Page metadata is mostly constant over a chunk, and comparing equal
        # strings is cheaper than hashing each of them.
        constant = part.count(part[0]) == len(part)
        distinct = {part[0]} if constant else set(part)
        if name in _INT_FIELDS:
            try:
                value_of = {s: int(s) for s in distinct}
            except ValueError:
                return None
        else:
            value_of = {s: cache.setdefault(s, s) for s in distinct}
        if _invalid_values(name, set(value_of.values())):
            return None
        columns.append(repeat(value_of[part[0]], len(part)) if constant
                       else map(value_of.__getitem__, part))
    return ids.pop(), columns


def _raise_row_error(lines: list[str], first_line: int,
                     source_id: str | None) -> NoReturn:
    """Raise the ParseError of the first invalid line, row by row."""
    for n, line in enumerate(lines, start=first_line):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(TSV_COLUMNS):
            raise ParseError(
                f"expected {len(TSV_COLUMNS)} columns, got {len(fields)}", n)
        if source_id is None:
            source_id = fields[-1]
        elif fields[-1] != source_id:
            raise ParseError(
                f"source_id {fields[-1]!r} differs from {source_id!r} "
                f"on the rows above", n)
        try:
            WordRecord(*(int(v) if name in _INT_FIELDS else v
                         for name, v in zip(RECORD_FIELDS, fields)))
        except ValueError as exc:
            raise ParseError(str(exc), n) from None
    raise RuntimeError("rejected long-table rows hold no invalid row")


def read_tsv(text: str) -> LongTable:
    """Parse the long-table TSV that :func:`write_tsv` writes.

    Blank lines are skipped. Raises ParseError naming the first line, in
    file order, with the wrong number of columns, a source_id other than
    the first row's, a position that is not an integer, or a value that
    WordRecord rejects.
    """
    columns: list[list] = [[] for _ in RECORD_FIELDS]
    # Per column, one object per distinct string, shared by every row that
    # repeats it.
    interned: list[dict] = [{} for _ in RECORD_FIELDS]
    source_id = None
    line_number = 0  # lines consumed so far
    for lines in _line_chunks(text):
        if line_number == 0:
            header = tuple(lines[0].split("\t"))
            if header != TSV_COLUMNS:
                raise ParseError(
                    f"unexpected long-table header {header!r}", 1)
            lines = lines[1:]
            line_number = 1
        rows = [line for line in lines if line]
        if rows:
            chunk = _chunk_columns(rows, source_id, interned)
            if chunk is None:
                _raise_row_error(lines, line_number + 1, source_id)
            source_id, values = chunk
            for column, part in zip(columns, values):
                column.extend(part)
        line_number += len(lines)
    return LongTable._from_columns(columns, source_id or "")


def with_words(table: LongTable, words: Iterable[str]) -> LongTable:
    """Copy of ``table`` with surface forms replaced one-for-one."""
    words = tuple(words)
    if len(words) != len(table):
        raise ValueError(f"{len(words)} words for {len(table)} records")
    check_words(words)
    return LongTable._from_columns(
        (words, *table.columns[1:]), table.source_id)


def from_words(words: Sequence[str], source_id: str = "") -> LongTable:
    """Build a minimal one-line-per-word table from bare words (for tests
    and synthetic corpora)."""
    words = tuple(words)
    check_words(words)
    n = len(words)
    ones = (1,) * n
    return LongTable._from_columns(
        (words, ones, ones, range(1, n + 1), range(n, 0, -1),
         (PARAGRAPH,) * n, range(1, n + 1), ones,
         ("",) * n, ("",) * n, ("",) * n,
         (UNCLASSIFIED,) * n, (UNCLASSIFIED,) * n, ("",) * n),
        source_id)
