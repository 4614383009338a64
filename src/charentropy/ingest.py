"""Parse interlinear transcription files and plain text into word tables.

The parsers make lines: one tuple per text line, holding its words and the
attributes they share (locus kind, line and paragraph numbers, folio,
quire, section, language, scribal hand, transcriber). The parsers yield
their lines one at a time (:func:`interlinear_lines`,
:func:`plaintext_lines`), and :func:`line_sizes` counts each paragraph's
words. :func:`_placed` is the one place a line's words get their
positions within line and paragraph: in one loop over the lines it places
them by those counts, drops those a selection misses, and cuts them into
runs between any two lines. :func:`tsv_pieces` writes the long-table TSV
straight from placed runs, so no command builds a table.

The parsers check each line as they read it, and a
:class:`FolioMetadataMap` checks its languages and hands when it is
built, so a parsed line needs no further check. The library's table is
the :class:`LongTable`: the words of one source in document order, column
by column, with one ``source_id``; a :class:`WordRecord` is one of its
rows, built on demand. Its columns are validated where a table is built
from anything else: :func:`read_tsv`, :func:`from_words` and
:func:`with_words`. A TSV is read a block at a time: one split at the row
tails a pattern made once per file matches checks a block's rows and cuts
out their words in a single pass, and a block the split does not accept
is checked row by row, which alone decides which line is in error and why.
Every other table derives from those through the only two transforms,
:func:`with_words` (replace every word) and :func:`take` (keep the rows a
boolean mask selects). Every word rewrite in the package
(transliteration, simplification, cleansing) is a map from word types and
their frequencies to new forms, applied to a table by
:func:`rewrite_types`; :func:`rewritten_tsv` rewrites the rows of a TSV
where they stand, a block of words at a time.

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

import os
import re
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import chain, compress, groupby, islice, repeat
from operator import add, itemgetter, sub

from ._record import record
from .errors import DataError, DecodeError, MetadataError, ParseError

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

_LOCUS_RE = re.compile(
    r"^<\s*(?P<folio>[A-Za-z0-9]+)"
    r"\.(?P<locus>[A-Za-z][A-Za-z0-9]*)"
    r"\.(?P<line>[0-9]+)"
    r"\s*;\s*(?P<transcriber>[A-Za-z0-9]+)\s*>"
    r"(?P<payload>.*)$"
)

_ANNOTATION_RE = re.compile(r"\{[^{}]*\}")

# folio, quire, section, language, hand and transcriber of a plain-text line.
_UNCLASSIFIED_PAGE = ("", "", "", UNCLASSIFIED, UNCLASSIFIED, "")

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


@record
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


def builtin_data(name: str) -> bytes:
    """A file shipped in ``data/`` (importlib.resources loads inspect)."""
    return __spec__.loader.get_data(
        os.path.join(os.path.dirname(__file__), "data", name))


def check_words(words: Sequence[str]) -> None:
    """Raise WordRecord's ValueError for the first invalid word, if any,
    judging each distinct word once."""
    bad = {w for w in set(words)
           if not w or not _WHITESPACE_CHARS.isdisjoint(w)}
    if bad:
        _check_surface_form(next(w for w in words if w in bad))


@record
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

    def __reduce__(self):
        return type(self)._from_columns, (self.columns, self.source_id)

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


@record
class FolioMetadataMap:
    """folio -> (section, language, hand, quire), loaded from a TSV.

    Lookups are total over parsed input: a folio with no entry fails the
    parse, unless a ``default_entry`` is set (see :meth:`permissive`), in
    which case unknown folios take the default classification. Every
    entry's language and hand, the default's too, is checked when built.
    """

    entries: dict[str, tuple[str, str, str, str]]
    default_entry: tuple[str, str, str, str] | None = None

    def __post_init__(self) -> None:
        for _, language, hand, _ in filter(None, [*self.entries.values(),
                                                  self.default_entry]):
            if language not in LANGUAGES:
                raise ValueError(f"unknown language {language!r}")
            if hand not in HANDS:
                raise ValueError(f"unknown hand {hand!r}")

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
        for n, line in content_lines(text):
            fields = line.split("\t")
            if fields[0] == "folio" and len(fields) == 5:
                continue
            if len(fields) != 5:
                raise ParseError(
                    f"folio metadata row needs 5 tab-separated fields, "
                    f"got {len(fields)}", n)
            folio, section, language, hand, quire = (f.strip() for f in fields)
            entry = (section, language, hand, quire)
            try:
                cls({folio: entry})  # the map's own check, named by line
            except ValueError as exc:
                raise ParseError(str(exc), n) from None
            if folio in entries:
                raise ParseError(f"folio {folio!r} is listed twice", n)
            entries[folio] = entry
        return cls(entries)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of ``text`` that is neither
    blank nor a comment (its first non-blank character is ``#``)."""
    for n, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield n, line


# decoded_blocks reads a file this many bytes at a time, so the text it
# holds at once stays bounded whatever the size of the file. A block stays
# under glibc's initial 128 KiB mmap threshold, and the next reuses its
# space. Read 256 KiB at a time, the freed blocks went unreused: ingest's
# peak RSS grew by 3 MB from 400k to 2M words of plain text, and cleanse's
# stood 3 MB higher at 400k.
_BLOCK_BYTES = 1 << 16


def _decode(raw: bytes, offset: int = 0) -> str:
    """The text of ``raw``, which starts ``offset`` bytes into its file.
    A bad byte is reported at its offset in the file, and a UTF-8
    byte-order mark, an encoding signature rather than text, is stripped
    from the start of the file."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("input is not valid UTF-8",
                          offset + exc.start) from None
    return text if offset else text.removeprefix("\ufeff")


def decoded_blocks(read: Callable[[int], bytes]) -> Iterator[str]:
    """The text of a file, decoded as :func:`_decode` decodes a whole file,
    in consecutive blocks of about :data:`_BLOCK_BYTES` bytes, each cut
    just after a ``\\n`` byte (the last may end anywhere). ``read(n)``
    returns the file's next ``n`` bytes, or ``b""`` at its end.

    A ``\\n`` byte is never part of a multi-byte character, and it ends a
    line wherever it stands (``\\r\\n`` included), so the blocks split
    into the same lines as the whole text does.
    """
    offset = 0
    held: list[bytes] = []
    while block := read(_BLOCK_BYTES):
        cut = block.rfind(b"\n") + 1
        if not cut:
            held.append(block)
            continue
        held.append(block[:cut])
        piece = b"".join(held)
        held = [block[cut:]]
        yield _decode(piece, offset)
        offset += len(piece)
    piece = b"".join(held)
    if piece:
        yield _decode(piece, offset)


def line_values(names: Iterable[str]) -> Callable[[tuple], tuple]:
    """A line's values in the columns ``names``. A line holds a table's
    columns but the four positions, which follow its words."""
    at = [RECORD_FIELDS.index(name) - 4 for name in names]
    return lambda line: tuple(map(line.__getitem__, at))


def _placed(lines: Iterable[tuple], sizes: Sequence[int],
            criteria: Mapping[str, str] | None = None
            ) -> Iterator[tuple[list[tuple], list[tuple[int, int, int]]]]:
    """The lines that meet ``criteria`` (all, without it), in runs, each
    with the ``(count, first para_pos_fwd, first para_pos_rev)`` span of
    its words: the one place positions are assigned, so that a selection
    never renumbers (:func:`_positions` makes the columns). Each line is
    ``(words, locus_kind, line_number, paragraph_number, folio, quire,
    section, language, hand, transcriber)``, in document order, and
    paragraph p holds ``sizes[p - 1]`` words; a paragraph beyond ``sizes``
    is a DataError. A run ends at the first line end after it holds
    :data:`_PIECE_ROWS` words, kept or dropped, whether or not a paragraph
    ends there, or at the last line."""
    criteria = criteria or {}
    chosen, wanted = line_values(criteria), tuple(criteria.values())
    kept, spans = [], []
    paragraph = start = size = held = 0  # start: the line's first position
    for line in lines:
        count = len(line[0])
        if line[3] != paragraph:
            paragraph, start = line[3], 1
            if paragraph > len(sizes):
                raise DataError(f"paragraph {paragraph} was not counted")
            size = sizes[paragraph - 1]
        if not criteria or chosen(line) == wanted:
            kept.append(line)
            spans.append((count, start, size + 1 - start))
        start += count
        held += count
        if held >= _PIECE_ROWS:
            yield kept, spans
            kept, spans, held = [], [], 0
    yield kept, spans


def _positions(spans: Sequence[tuple[int, int, int]]) -> list[Iterator[int]]:
    """The line_pos_fwd, line_pos_rev, para_pos_fwd and para_pos_rev
    columns of the words of lines placed by :func:`_placed`."""
    counts, firsts, ends = zip(*spans) if spans else ((), (), ())
    return [
        chain.from_iterable(map(range, repeat(1), [n + 1 for n in counts])),
        chain.from_iterable(map(range, counts, repeat(0), repeat(-1))),
        chain.from_iterable(map(range, firsts, map(add, firsts, counts))),
        chain.from_iterable(map(range, ends, map(sub, ends, counts),
                                repeat(-1)))]


def _table_from_lines(lines: Iterable[tuple], source_id: str) -> LongTable:
    """The table of lines whose paragraphs are numbered 1, 2, ... in order
    (see :func:`_placed`)."""
    lines = list(lines)
    spans = [span for _, run in _placed(lines, line_sizes(lines))
             for span in run]
    counts = [len(line[0]) for line in lines]
    words, *attributes = zip(*lines) if lines else [()] * 10
    return LongTable._from_columns((
        chain.from_iterable(words), *_positions(spans),
        *(chain.from_iterable(map(repeat, values, counts))
          for values in attributes)), source_id)


def _split_payload(payload: str, comma_breaks: bool,
                   line_number: int) -> list[str]:
    """The words of a line's payload: annotations stripped, commas deleted
    or made breaks, split at runs of ``.`` and whitespace (``str.split``'s
    whitespace is the regex ``\\s``). Raises ParseError for an unbalanced
    annotation or a word that holds ``#``."""
    if "{" in payload or "}" in payload:
        stripped = _ANNOTATION_RE.sub("", payload)
        if "{" in stripped or "}" in stripped:
            raise ParseError("unbalanced '{' annotation", line_number)
        payload = stripped
    payload = payload.replace(",", "." if comma_breaks else "")
    words = payload.replace(".", " ").split()
    # "." separates words and "," is gone, so "#" is the only reserved
    # character a word can still hold.
    if "#" in payload:
        word = next(w for w in words if "#" in w)
        raise ParseError(
            f"word {word!r} contains reserved character(s) ['#']",
            line_number)
    return words


def interlinear_lines(raw: bytes | str, meta: FolioMetadataMap,
                      transcriber_filter: str | None = None, *,
                      comma_breaks: bool = False) -> Iterator[tuple]:
    """The lines of an interlinear transcription file, as :func:`_placed`
    takes them, with every credible word, parsed one at a time as they are
    asked for. With ``transcriber_filter``, only that transcriber's lines
    are kept, and positions are computed over the filtered text (an
    interlinear file repeats each locus once per transcriber; positions
    describe a single transcriber's document). ``comma_breaks=True`` treats
    uncertain breaks as real breaks instead of deleting them. ``raw`` is the
    file's bytes, or its text already decoded as :func:`_decode` decodes
    them.

    Raises ParseError naming the line for a malformed locus header or
    payload, or for words on a line numbered 0, when it reaches that line;
    then, once every line is read, MetadataError listing every folio
    missing from ``meta``, which checked its own entries. A line of a
    missing folio is not yielded, so the lines yielded before an error
    are no document: a caller that writes them reads every line first.
    """
    text = raw if isinstance(raw, str) else _decode(raw)
    missing = set()
    paragraph, unit = 0, None  # a paragraph: consecutive lines of one unit
    for n, line in content_lines(text):
        m = _LOCUS_RE.match(line.strip())
        if m is None:
            raise ParseError(
                "expected '<folio.locus.line;transcriber>' locus header", n)
        folio, locus, number, transcriber, payload = m.groups()
        if transcriber_filter is not None and transcriber != transcriber_filter:
            continue
        words = _split_payload(payload, comma_breaks, n)
        line_number = int(number)
        if words and not line_number:  # a line of words is numbered from 1
            raise ParseError("line_number must be a positive integer", n)
        if (folio, locus) != unit:
            paragraph += 1
            unit = (folio, locus)
        try:
            section, language, hand, quire = meta.lookup(folio)
        except MetadataError:
            missing.add(folio)
            continue
        yield (words, PARAGRAPH if locus[0] in "Pp" else LABEL_OR_DIAGRAM,
               line_number, paragraph, folio, quire, section, language, hand,
               transcriber)
    if missing:
        raise MetadataError(sorted(missing))


def parse_interlinear(raw: bytes | str, meta: FolioMetadataMap,
                      transcriber_filter: str | None = None, *,
                      comma_breaks: bool = False,
                      source_id: str = "") -> LongTable:
    """The LongTable of :func:`interlinear_lines`, one row per word."""
    return _table_from_lines(interlinear_lines(
        raw, meta, transcriber_filter, comma_breaks=comma_breaks), source_id)


def line_sizes(lines: Iterable[tuple]) -> list[int]:
    """The number of words of each paragraph of parsed ``lines`` (see
    :func:`_placed`) whose paragraphs are numbered 1, 2, ... in order, as
    :func:`tsv_pieces` takes them."""
    return [sum(len(line[0]) for line in group)
            for _, group in groupby(lines, key=itemgetter(3))]


def plaintext_lines(lines: Iterable[str]) -> Iterator[tuple]:
    """The lines of plain text, whose lines are ``lines``, as
    :func:`_placed` takes them: each line that holds a word.

    Line numbers are physical file lines; paragraphs are blocks separated by
    blank lines. All classification fields are unclassified (folio, quire,
    section and transcriber are empty strings).
    """
    paragraph, blank = 0, True
    for n, line in enumerate(lines, start=1):
        words = line.split()
        if not words:
            blank = True
            continue
        if blank:
            paragraph += 1
            blank = False
        yield (words, PARAGRAPH, n, paragraph, *_UNCLASSIFIED_PAGE)


def parse_plaintext(raw: bytes, source_id: str) -> LongTable:
    """Parse whitespace-separated plain text into a LongTable: the
    :func:`plaintext_lines`, in one table."""
    return _table_from_lines(plaintext_lines(_decode(raw).splitlines()),
                             source_id)


def take(table: LongTable, mask: Sequence[bool]) -> LongTable:
    """The rows where ``mask`` is true, order and positions preserved."""
    if len(mask) != len(table):
        raise ValueError(f"mask of {len(mask)} for {len(table)} records")
    return LongTable._from_columns(
        (compress(column, mask) for column in table.columns), table.source_id)


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


def canonical_selection(table: LongTable, name: str) -> LongTable:
    """Apply one of the sixteen named selections (``full``, ``a_text``, ...)."""
    if name not in CANONICAL_SELECTIONS:
        raise ValueError(f"unknown selection {name!r}; expected one of "
                         + ", ".join(sorted(CANONICAL_SELECTIONS)))
    if not (criteria := CANONICAL_SELECTIONS[name]):
        return table
    wanted = tuple(criteria.values())
    return take(table, [row == wanted
                        for row in zip(*map(table.column, criteria))])


# ---------------------------------------------------------------------------
# TSV serialization: surface_form followed by the 14 metadata columns.
# ---------------------------------------------------------------------------

TSV_COLUMNS = RECORD_FIELDS + ("source_id",)

# read_tsv cuts its text into blocks of about this many characters, as
# decoded_blocks cuts a file.
_CHUNK_CHARS = 1 << 18

# Rows per piece of tsv_pieces, and words before a run of lines may end.
_PIECE_ROWS = 1 << 12

TSV_HEADER = "\t".join(TSV_COLUMNS) + "\n"


def _position(name: str, text: str) -> int:
    """A position column's value, in the one form :func:`write_tsv` writes
    it: ASCII digits with no sign, space, underscore or leading zero. So a
    value that is read is written back unchanged."""
    if text.isascii() and text.isdigit() and text[0] != "0":
        return int(text)
    raise ValueError(f"{name} must be a positive integer, got {text!r}")


class _Numbers(dict):
    """``str(n)`` for each number ``n`` looked up, made once."""

    def __missing__(self, n: int) -> str:
        self[n] = text = str(n)
        return text


def tsv_pieces(lines: Iterable[tuple], source_id: str,
               sizes: Sequence[int],
               criteria: Mapping[str, str] | None = None) -> Iterator[str]:
    """:func:`write_tsv`'s text of parsed ``lines``, as :func:`_placed`
    places and selects them, in pieces: the header, then
    :data:`_PIECE_ROWS` rows at a time."""
    yield TSV_HEADER
    end = f"\t{source_id}\n"
    for lines, spans in _placed(lines, sizes, criteria):
        get = _Numbers().__getitem__  # a run's numbers, not the text's
        columns = [map(get, p) for p in _positions(spans)]
        tails = chain.from_iterable(  # the fields a line's words share
            repeat("\t".join((kind, str(n), str(paragraph), *page)) + end,
                   len(words))
            for words, kind, n, paragraph, *page in lines)
        words = chain.from_iterable(line[0] for line in lines)
        rows = map("\t".join, zip(words, *columns, tails))
        while piece := "".join(islice(rows, _PIECE_ROWS)):
            yield piece


def write_tsv(table: LongTable) -> str:
    columns = [map(str, c) if name in _INT_FIELDS else c
               for name, c in zip(RECORD_FIELDS, table.columns)]
    return TSV_HEADER + "".join(map("\t".join, zip(
        *columns, repeat(table.source_id + "\n"))))


def rewritten_tsv(blocks: Iterable[str],
                  rewrite: Callable[[list[str]], Iterable[str]]
                  ) -> Iterator[str]:
    """A valid long-table TSV's text with new words, in pieces, one per
    block (see :func:`tsv_slices`): ``rewrite(words)`` gives the new form
    of each of a block's words, in order.

    Each row is rewritten where it stands: its first field is replaced and
    the rest is kept, which is how ``write_tsv`` writes a row that
    ``read_tsv`` accepted. A row whose new form is empty is dropped, and so
    are blank lines.
    """
    yield TSV_HEADER
    header = True
    for block in blocks:
        lines = block.splitlines()
        if header and lines:
            lines = lines[1:]
            header = False
        rows = [line.partition("\t") for line in lines if line]
        forms = rewrite([word for word, _, _ in rows])
        yield "".join([f"{form}\t{rest}\n"
                       for form, (_, _, rest) in zip(forms, rows) if form])


def _text_blocks(text: str) -> Iterator[str]:
    """``text`` in consecutive blocks, each cut just after a ``\\n``."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK_CHARS)
        end = len(text) if cut < 0 else cut + 1
        yield text[start:end]
        start = end


_LINE_NUMBER = RECORD_FIELDS.index("line_number")

# The characters at which str.splitlines breaks a line, as a regex class
# body. No row tail that _tail_pattern accepts holds one inside a field.
_LINE_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"

# A block's leading blank lines, which no row tail ends, and a character
# no word in a row may hold.
_BLANK_LINES = re.compile(r"(?:\r?\n)*")
_NOT_IN_WORD = re.compile(rf"[ \t{_LINE_BREAKS}]")


def _tail_pattern(source_id: str) -> re.Pattern:
    """A pattern for the tail of a row of ``source_id`` that
    :func:`_checked_rows` accepts: the tab that ends its word, its other
    fields and its line end, ``\\n`` or ``\\r\\n``, with any blank lines
    after it, or the end of the text. No field admits its separator."""
    free = rf"[^\t{_LINE_BREAKS}]*"
    fields = []
    for name in RECORD_FIELDS[1:]:
        if name in _INT_FIELDS:
            fields.append("[1-9][0-9]*")
        elif name in _ENUM_FIELDS:
            fields.append(f"(?:{'|'.join(_ENUM_FIELDS[name])})")
        else:
            fields.append(free)
    tail = r"\t".join(["", *fields, re.escape(source_id)])
    return re.compile(rf"{tail}(?:(?:\r?\n)+|\Z)")


def _split_words(tail: re.Pattern, block: str) -> list[str] | None:
    """The words of the rows of ``block``, cut out by one split at the row
    tails ``tail`` matches, or None when the split does not show the block
    to be rows that :func:`_checked_rows` accepts and blank lines, each
    ended by ``\\n`` or ``\\r\\n`` (the last may be unended).

    Past the leading blank lines, a piece of the split that holds no tab
    stops at the first tab after it, where a row tail begins, and the next
    piece starts past that tail's line end. So pieces that are all words,
    non-empty and without space, tab or line break, with the text ending
    in a tail, are such rows."""
    start = _BLANK_LINES.match(block).end()
    words = tail.split(block[start:] if start else block)
    if words.pop() or not all(words) or _NOT_IN_WORD.search("".join(words)):
        return None
    return words


def _checked_rows(lines: list[str], first_line: int,
                  source_id: str) -> list[str]:
    """The non-blank lines of a block whose first line is line number
    ``first_line``, checked row by row. Raises the ParseError of the first
    line with the wrong number of columns, a source_id other than
    ``source_id``, or a value WordRecord rejects."""
    rows = []
    for n, line in enumerate(lines, start=first_line):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(TSV_COLUMNS):
            raise ParseError(
                f"expected {len(TSV_COLUMNS)} columns, got {len(fields)}", n)
        if fields[-1] != source_id:
            raise ParseError(
                f"source_id {fields[-1]!r} differs from {source_id!r} "
                f"on the rows above", n)
        try:
            WordRecord(*(_position(name, v) if name in _INT_FIELDS else v
                         for name, v in zip(RECORD_FIELDS, fields)))
        except ValueError as exc:
            raise ParseError(str(exc), n) from None
        rows.append(line)
    return rows


def tsv_slices(blocks: Iterable[str]
               ) -> Iterator[tuple[str, list[str], Callable[[int], int]]]:
    """The words of a long-table TSV, validated slice by slice.

    ``blocks`` is the text in consecutive blocks, each cut just after a
    ``\\n`` (the last may end anywhere), as :func:`decoded_blocks` makes
    them. Yields ``(source_id, words, line_of)`` for each block that holds
    rows, where ``line_of(i)`` reads the line_number of row i, splitting
    the block's lines only when asked. A block's words are cut out by the
    split that checks it (:func:`_split_words`). Raises :func:`read_tsv`'s
    ParseError at the first bad line, after reading the remaining blocks,
    so that a bad byte anywhere in a file is reported first, as when the
    whole file is decoded before it is parsed.
    """
    blocks = iter(blocks)
    try:
        for source_id, words, text in _slices(blocks):
            yield (source_id, words, lambda i, text=text: int(
                _rows(text)[i].split("\t")[_LINE_NUMBER]))
    except ParseError:
        for _ in blocks:
            pass
        raise


def _rows(text: str) -> list[str]:
    """The non-blank lines of ``text``."""
    return [line for line in text.splitlines() if line]


def _slices(blocks: Iterable[str]) -> Iterator[tuple[str, list[str], str]]:
    """``(source_id, words, text)`` for each block of a long-table TSV that
    holds rows, where ``text`` is the block without the header: the words
    of its rows, checked by one split at the row tails of the first row's
    source_id, and row by row when the split rejects them."""
    source_id = tail = None
    line_number = 0  # lines consumed so far
    for block in blocks:
        if not block:
            continue
        lines = None  # the block's lines, once split
        if source_id is None:  # the header, or the lines before a first row
            lines = block.splitlines()
            if line_number == 0:
                header = tuple(lines.pop(0).split("\t"))
                if header != TSV_COLUMNS:
                    raise ParseError(
                        f"unexpected long-table header {header!r}", 1)
                # a "\r\n"'s "\n" reads as a blank line
                block = block[len(TSV_HEADER):]
                line_number = 1
            first = next(filter(None, lines), None)
            if first is None:
                line_number += len(lines)
                continue
            source_id = first[first.rfind("\t") + 1:]
            tail = _tail_pattern(source_id)
        words = _split_words(tail, block)
        if words is None:
            if lines is None:
                lines = block.splitlines()
            words = [row[:row.index("\t")] for row in
                     _checked_rows(lines, line_number + 1, source_id)]
        if words:
            yield source_id, words, block
        # An accepted block holds no line break but "\n" and "\r\n".
        line_number += (len(lines) if lines is not None else
                        block.count("\n") + (not block.endswith("\n")))


def read_tsv(text: str) -> LongTable:
    """Parse the long-table TSV that :func:`write_tsv` writes.

    Blank lines are skipped. Raises ParseError naming the first line, in
    file order, with the wrong number of columns, a source_id other than
    the first row's, a position not in the form ``write_tsv`` writes (a
    positive integer in ASCII digits, no sign, space, underscore or leading
    zero), or a value that WordRecord rejects.
    """
    width = len(TSV_COLUMNS)
    columns: list[list] = [[] for _ in RECORD_FIELDS]
    # Per column, one object per distinct string, shared by the rows.
    interned: list[dict] = [{} for _ in RECORD_FIELDS]
    source_id = ""
    for source_id, _, block in _slices(_text_blocks(text)):
        # Every row has ``width`` fields: column j is fields[j::width].
        fields = "\t".join(_rows(block)).split("\t")
        for j, (name, column, cache) in enumerate(
                zip(RECORD_FIELDS, columns, interned)):
            part = fields[j::width]
            if name in _INT_FIELDS:
                value_of = {s: int(s) for s in set(part)}
                column.extend(map(value_of.__getitem__, part))
            else:
                column.extend(map(cache.setdefault, part, part))
    return LongTable._from_columns(columns, source_id)


def with_words(table: LongTable, words: Iterable[str]) -> LongTable:
    """Copy of ``table`` with surface forms replaced one-for-one."""
    words = tuple(words)
    if len(words) != len(table):
        raise ValueError(f"{len(words)} words for {len(table)} records")
    check_words(words)
    return LongTable._from_columns(
        (words, *table.columns[1:]), table.source_id)


def rewrite_types(
    table: LongTable,
    rewrite: Callable[[tuple[str, ...], tuple[int, ...]], Sequence[str]],
) -> LongTable:
    """The table with each word replaced by the new form of its type.

    ``rewrite(forms, freq)`` is given the table's distinct words in order
    of first occurrence and the number of tokens of each, and returns each
    one's new form. A row whose new form is empty is dropped; the others
    keep their metadata and positions."""
    words = table.words()
    freq = Counter(words)
    new = dict(zip(freq, rewrite(tuple(freq), tuple(freq.values()))))
    new_words = list(map(new.__getitem__, words))
    kept = take(table, new_words)  # an emptied word is false
    return with_words(kept, filter(None, new_words))


def tally_by_frequency(forms: Iterable[str], freq: Iterable[int],
                       keys: Callable[[list[str]], Iterable]) -> Counter:
    """Each key's count in ``freq[t]`` tokens of each ``forms[t]``: the
    forms of one frequency are grouped, and ``keys(group)`` counted once."""
    by_freq: dict[int, list[str]] = {}
    for form, n in zip(forms, freq):
        by_freq.setdefault(n, []).append(form)
    counts: Counter = Counter()
    for n, group in by_freq.items():
        for key, k in Counter(keys(group)).items():
            counts[key] += n * k
    return counts


def character_counts(forms: Iterable[str], freq: Iterable[int]) -> Counter:
    """Each character's count in ``freq[t]`` tokens of each ``forms[t]``."""
    return tally_by_frequency(forms, freq, "".join)


def from_words(words: Sequence[str], source_id: str = "") -> LongTable:
    """Build a minimal one-line-per-word table from bare words (for tests
    and synthetic corpora)."""
    words = tuple(words)
    check_words(words)
    return _table_from_lines(
        [((w,), PARAGRAPH, n, 1, *_UNCLASSIFIED_PAGE)
         for n, w in enumerate(words, start=1)], source_id)
