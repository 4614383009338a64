import ast
import contextlib
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from charentropy import ingest
from charentropy.errors import DecodeError, MetadataError, ParseError
from charentropy.ingest import (CANONICAL_SELECTIONS, HANDS, LANGUAGES,
                                LOCUS_KINDS, TSV_COLUMNS, FolioMetadataMap,
                                LongTable, WordRecord, canonical_selection,
                                character_counts, from_words,
                                parse_interlinear, parse_plaintext, read_tsv,
                                take, with_words, write_tsv)

META = FolioMetadataMap.from_tsv(
    "f1r\therbal\tA\t1\tA\n"
    "f1v\therbal\tA\t1\tA\n"
    "f26r\therbal\tB\t2\tD\n"
    "f67r\tastronomical\tunclassified\tunclassified\tI\n"
)


def parse(text, **kwargs):
    return parse_interlinear(text.encode(), META, **kwargs)


def test_line_positions():
    table = parse("<f1r.P1.1;H> daiin.ckhey.qo\n")
    assert [r.surface_form for r in table] == ["daiin", "ckhey", "qo"]
    assert [r.line_pos_fwd for r in table] == [1, 2, 3]
    assert [r.line_pos_rev for r in table] == [3, 2, 1]
    for r in table:
        assert r.folio == "f1r"
        assert r.section == "herbal"
        assert r.language == "A"
        assert r.hand == "1"
        assert r.quire == "A"
        assert r.transcriber == "H"
        assert r.line_number == 1


def test_comma_is_deleted_fusing_neighbours():
    table = parse("<f1r.P1.1;H> daiin,ckhey\n")
    assert table.words() == ["daiinckhey"]


def test_comma_breaks_flag():
    table = parse("<f1r.P1.1;H> daiin,ckhey\n", comma_breaks=True)
    assert table.words() == ["daiin", "ckhey"]


def test_paragraph_positions_across_lines():
    text = (
        "<f1r.P1.1;H> ot\n"
        "<f1r.P1.2;H> dar\n"
        "<f1r.P2.1;H> qo\n"
        "<f1r.P2.2;H> chey\n"
    )
    table = parse(text)
    assert [r.para_pos_fwd for r in table] == [1, 2, 1, 2]
    assert [r.para_pos_rev for r in table] == [2, 1, 2, 1]
    assert [r.paragraph_number for r in table] == [1, 1, 2, 2]


def test_locus_kind_and_paragraph_reset_on_locus_change():
    text = (
        "<f1r.P1.1;H> daiin.dar\n"
        "<f1r.L1.1;H> otol\n"
        "<f1r.P2.1;H> chey\n"
    )
    table = parse(text)
    kinds = [r.locus_kind for r in table]
    assert kinds == ["paragraph", "paragraph", "label_or_diagram",
                     "paragraph"]
    assert [r.paragraph_number for r in table] == [1, 1, 2, 3]
    # the label line is its own unit, so the following paragraph restarts
    assert table.records[3].para_pos_fwd == 1


def test_comments_and_blank_lines_skipped():
    text = (
        "# header comment\n"
        "\n"
        "<f1r.P1.1;H> daiin\n"
        "   # indented comment\n"
    )
    assert parse(text).words() == ["daiin"]


def test_annotations_stripped():
    table = parse("<f1r.P1.1;H> da{gap}iin.qo{&o}l\n")
    assert table.words() == ["daiin", "qol"]


def test_unterminated_annotation_is_parse_error_with_line():
    with pytest.raises(ParseError) as exc:
        parse("<f1r.P1.1;H> ok\n<f1r.P1.2;H> da{iin\n")
    assert "line 2" in str(exc.value)


def test_malformed_header_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse("<f1r.P1.1;H> daiin\nnot a header\n")
    assert "line 2" in str(exc.value)
    assert exc.value.line_number == 2


def test_a_reserved_character_is_named_with_its_word_and_line():
    text = "<f1r.P1.1;H> ok\n<f1r.P1.2;H> dar.q#o,dy.s#o\n"
    for comma_breaks, word in ((False, "q#ody"), (True, "q#o")):
        with pytest.raises(ParseError) as exc:
            parse(text, comma_breaks=comma_breaks)
        assert str(exc.value) == (
            f"line 2: word {word!r} contains reserved character(s) ['#']")
        with pytest.raises(ParseError) as old:
            oracles.split_payload_oracle("dar.q#o,dy.s#o", comma_breaks, 2)
        assert str(old.value) == str(exc.value)
    # A "#" inside an annotation goes with it.
    for comma_breaks, words in ((False, ["dardy", "qo"]),
                                (True, ["dar", "dy", "qo"])):
        assert parse("<f1r.P1.1;H> dar,{#}dy.{#note}qo\n",
                     comma_breaks=comma_breaks).words() == words


def _unicode_classes(pattern: str) -> list[str]:
    """The ``\\d``, ``\\D``, ``\\w`` and ``\\W`` escapes of a regex."""
    found, i = [], pattern.find("\\")
    while i >= 0:
        if pattern[i + 1:i + 2] in ("d", "D", "w", "W"):
            found.append(pattern[i:i + 2])
        i = pattern.find("\\", i + 2)
    return found


def test_no_pattern_in_the_package_reads_unicode_digits_or_letters():
    # Without re.ASCII, \d and \w match every Unicode digit and letter, so
    # "1" and "\u0661" would parse alike. Both the module-level compiled
    # patterns and the pattern literals of re calls are checked.
    assert _unicode_classes(r"a\d[\w]\\d\\\D") == ["\\d", "\\w", "\\D"]
    package = Path(ingest.__file__).parent
    found = []
    for info in pkgutil.iter_modules([str(package)]):
        module = importlib.import_module(f"charentropy.{info.name}")
        found += [f"{info.name}.{name}: {value.pattern!r}"
                  for name, value in vars(module).items()
                  if isinstance(value, re.Pattern)
                  and not value.flags & re.ASCII
                  and _unicode_classes(value.pattern)]
        tree = ast.parse((package / f"{info.name}.py").read_text("utf-8"))
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and call.args
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "re"):
                continue
            text = "".join(n.value for n in ast.walk(call.args[0])
                           if isinstance(n, ast.Constant)
                           and isinstance(n.value, str))
            ascii_flag = "(?a" in text or any(
                isinstance(n, ast.Attribute) and n.attr in ("A", "ASCII")
                for n in ast.walk(call))
            if _unicode_classes(text) and not ascii_flag:
                found.append(f"{info.name}.py line {call.lineno}: {text!r}")
    assert found == []


def test_missing_folio_metadata_names_folio():
    with pytest.raises(MetadataError) as exc:
        parse("<f99r.P1.1;H> daiin\n")
    assert "f99r" in str(exc.value)
    assert exc.value.folios == ["f99r"]


def test_permissive_map_defaults_unknown_folios():
    table = parse_interlinear(
        b"<f99r.P1.1;H> daiin\n", META.permissive())
    assert table.records[0].language == "unclassified"
    assert table.records[0].hand == "unclassified"


def test_words_on_a_line_numbered_0_are_a_parse_error_before_metadata():
    text = "<f1r.P1.1;H> daiin\n<f99r.P1.1;H> qol\n<f1r.P2.0;H> chol\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == "line 3: line_number must be a positive integer"
    assert exc.value.line_number == 3
    # Another transcriber's line is not read, so not checked.
    with pytest.raises(MetadataError):
        parse(text.replace("P2.0;H", "P2.0;C"), transcriber_filter="H")


def test_a_line_numbered_0_without_words_is_accepted():
    table = parse("<f1r.P1.0;H> {blank}\n<f1r.P1.1;H> daiin\n")
    assert table.words() == ["daiin"]
    assert table.column("line_number") == (1,)


def test_invalid_utf8_reports_offset():
    with pytest.raises(DecodeError) as exc:
        parse_interlinear(b"<f1r.P1.1;H> da\xffiin\n", META)
    assert exc.value.offset == 15
    assert "byte offset 15" in str(exc.value)


def test_transcriber_filter_applies_before_positions():
    text = (
        "<f1r.P1.1;H> one.two\n"
        "<f1r.P1.1;C> uno.dos.tres\n"
        "<f1r.P1.2;H> three\n"
    )
    table = parse(text, transcriber_filter="H")
    assert table.words() == ["one", "two", "three"]
    # paragraph positions are computed over H's text only
    assert [r.para_pos_fwd for r in table] == [1, 2, 3]
    assert [r.para_pos_rev for r in table] == [3, 2, 1]
    everyone = parse(text)
    assert len(everyone) == 6


def test_reconstruction_invariant():
    payloads = {1: "daiin.ckhey qo,l", 2: "sh{note}edy.dal"}
    text = "".join(f"<f1r.P1.{n};H> {p}\n" for n, p in payloads.items())
    table = parse(text)
    for n, payload in payloads.items():
        words = [r.surface_form for r in table if r.line_number == n]
        cleaned = payload
        cleaned = cleaned.replace("{note}", "").replace(",", "")
        expected = [w for w in cleaned.replace(".", " ").split() if w]
        assert words == expected


def test_parse_is_deterministic():
    text = "<f1r.P1.1;H> daiin.qo\n<f26r.P3.1;C> chedy\n"
    assert parse(text) == parse(text)


# --- plaintext ---------------------------------------------------------------

def test_plaintext_line_numbers():
    table = parse_plaintext(b"the cat\nsat", "doc")
    assert table.words() == ["the", "cat", "sat"]
    assert [r.line_number for r in table] == [1, 1, 2]
    assert table.source_id == "doc"


def test_plaintext_empty():
    assert len(parse_plaintext(b"", "doc")) == 0


def test_plaintext_paragraphs_split_on_blank_lines():
    table = parse_plaintext(b"a b\nc\n\nd e\n", "doc")
    assert [r.paragraph_number for r in table] == [1, 1, 1, 2, 2]
    assert [r.para_pos_fwd for r in table] == [1, 2, 3, 1, 2]
    assert [r.para_pos_rev for r in table] == [3, 2, 1, 2, 1]
    # physical line numbers, not paragraph-relative ones
    assert [r.line_number for r in table] == [1, 1, 2, 4, 4]


def test_plaintext_ten_thousand_words():
    text = "\n".join("w%d x%d y%d" % (i, i, i) for i in range(3334))
    table = parse_plaintext(text.encode(), "big")
    assert len(table) == 10002
    assert len(table) == len(text.split())


def test_utf8_byte_order_mark_is_not_text():
    assert parse_plaintext(b"\xef\xbb\xbfThe cat", "doc").words() == [
        "The", "cat"]
    assert parse("\ufeff<f1r.P1.1;H> daiin\n").words() == ["daiin"]


def test_plaintext_keeps_punctuation_for_cleansing():
    table = parse_plaintext(b"The cat, sat.", "doc")
    assert table.words() == ["The", "cat,", "sat."]


# --- records and selection ---------------------------------------------------

def test_word_record_validation():
    good = from_words(["ok"]).records[0]
    assert good.surface_form == "ok"
    with pytest.raises(ValueError):
        from_words([""])
    with pytest.raises(ValueError):
        from_words(["two words"])
    assert good == WordRecord("ok", 1, 1, 1, 1, "paragraph", 1, 1, "", "",
                              "", "unclassified", "unclassified", "")
    with pytest.raises(ValueError):
        WordRecord("ok", 1, 1, 1, 1, "paragraph", 1, 1, "", "", "", "C",
                   "unclassified", "")
    with pytest.raises(ValueError):
        WordRecord("ok", 1, 1, 1, 1, "paragraph", 1, 1, "", "", "",
                   "unclassified", "6", "")
    with pytest.raises(ValueError):
        WordRecord("ok", 0, 1, 1, 1, "paragraph", 1, 1, "", "", "",
                   "unclassified", "unclassified", "")
    with pytest.raises(ValueError):
        WordRecord("ok", 1, 1, 1, 1, "marginalia", 1, 1, "", "", "",
                   "unclassified", "unclassified", "")


MIXED = parse(
    "<f1r.P1.1;H> a1.a2\n"
    "<f1r.L1.1;H> lab\n"
    "<f26r.P1.1;H> b1.b2.b3\n"
    "<f67r.P1.1;H> u1\n"
)


def test_select_language():
    sub = canonical_selection(MIXED, "a")
    assert sub.words() == ["a1", "a2", "lab"]


def test_select_excludes_labels():
    sub = canonical_selection(MIXED, "full_text")
    assert "lab" not in sub.words()
    assert len(sub) == 6


def test_select_identity_and_composition():
    assert take(MIXED, [True] * len(MIXED)) == MIXED
    f = [r.language == "A" for r in MIXED]
    g = [r.locus_kind == "paragraph" for r in MIXED]
    first = take(MIXED, f)
    both = take(first, [r.locus_kind == "paragraph" for r in first])
    assert both == take(MIXED, [a and b for a, b in zip(f, g)])
    assert both == canonical_selection(
        canonical_selection(MIXED, "a"), "full_text") == canonical_selection(
        MIXED, "a_text")
    assert take(first, [True] * len(first)) == first
    assert canonical_selection(first, "a") == first


def test_select_hand_count():
    assert len(canonical_selection(MIXED, "hand2")) == 3


def test_canonical_selections_cover_expected_names():
    expected = {"full", "full_text", "a", "a_text", "b", "b_text"}
    expected |= {f"hand{i}{suffix}" for i in range(1, 6)
                 for suffix in ("", "_text")}
    assert set(CANONICAL_SELECTIONS) == expected
    assert canonical_selection(MIXED, "full") == MIXED
    assert canonical_selection(MIXED, "a_text").words() == ["a1", "a2"]
    assert canonical_selection(MIXED, "hand2").words() == ["b1", "b2", "b3"]
    assert len(canonical_selection(MIXED, "hand5")) == 0
    with pytest.raises(ValueError):
        canonical_selection(MIXED, "hand9")


def test_metadata_map_rejects_bad_rows():
    with pytest.raises(ParseError):
        FolioMetadataMap.from_tsv("f1r\therbal\tA\n")
    with pytest.raises(ParseError):
        FolioMetadataMap.from_tsv("f1r\therbal\tC\t1\tA\n")
    with pytest.raises(ParseError):
        FolioMetadataMap.from_tsv("f1r\therbal\tA\t9\tA\n")


def test_metadata_map_rejects_a_folio_listed_twice():
    with pytest.raises(ParseError) as caught:
        FolioMetadataMap.from_tsv("f1r\therbal\tA\t1\tq1\n"
                                  "# comment\n"
                                  "f1r\tstars\tB\t2\tq9\n")
    assert str(caught.value) == "line 3: folio 'f1r' is listed twice"


def test_metadata_map_skips_comments_and_header():
    m = FolioMetadataMap.from_tsv(
        "# comment\nfolio\tsection\tlanguage\thand\tquire\n"
        "f1r\therbal\tA\t1\tA\n")
    assert m.lookup("f1r") == ("herbal", "A", "1", "A")


# --- TSV round trip ----------------------------------------------------------

def test_tsv_round_trip():
    tsv = write_tsv(MIXED)
    again = read_tsv(tsv)
    assert again == LongTable(records=MIXED.records, source_id="")
    assert write_tsv(again) == tsv


def test_tsv_header_is_checked():
    with pytest.raises(ParseError):
        read_tsv("wrong\theader\n")


def test_tsv_column_count_checked():
    tsv = write_tsv(from_words(["a"]))
    broken = tsv.splitlines()[0] + "\na\tb\n"
    with pytest.raises(ParseError) as exc:
        read_tsv(broken)
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("value", ["1_0", " 2", "2 ", "\u0661", "+3", "01",
                                   "\uff13"])
def test_tsv_position_is_read_only_as_write_tsv_writes_it(value):
    # int() reads each of these as a number that write_tsv would write back
    # differently.
    lines = write_tsv(from_words(["a", "b"])).splitlines()
    fields = lines[2].split("\t")
    fields[TSV_COLUMNS.index("para_pos_fwd")] = value
    lines[2] = "\t".join(fields)
    with pytest.raises(ParseError) as exc:
        read_tsv("\n".join(lines) + "\n")
    assert exc.value.line_number == 3
    assert f"para_pos_fwd must be a positive integer, got {value!r}" in str(
        exc.value)


def test_with_words_replaces_in_order():
    swapped = with_words(MIXED, [w.upper() for w in MIXED.words()])
    assert swapped.words() == [w.upper() for w in MIXED.words()]
    assert swapped.records[0].folio == MIXED.records[0].folio
    with pytest.raises(ValueError):
        with_words(MIXED, ["only-one"])


def test_tsv_mixed_source_ids_rejected_at_first_differing_line():
    lines = write_tsv(from_words(["a", "b", "c"], source_id="one")).splitlines()
    lines[3] = lines[3].rsplit("\t", 1)[0] + "\ttwo"
    with pytest.raises(ParseError) as exc:
        read_tsv("\n".join(lines) + "\n")
    assert exc.value.line_number == 4
    assert "'two'" in str(exc.value) and "'one'" in str(exc.value)


# --- read_tsv against the row-by-row reference -------------------------------

_BAD_VALUES = {
    "surface_form": ["", "da iin", "da\x0biin", "\xa0", "a\x85b"],
    "int": ["0", "-3", "+4", " 5", "5 ", "x", "", "1_0", "\u0663", "2.0",
            "07", "\uff17", "99999999999999999999"],
    "locus_kind": ["", "marginalia", "Paragraph"],
    "language": ["", "C", "a"],
    "hand": ["", "6", "0"],
    "other": ["\x85", "f 1", "\u2028"],
}


@st.composite
def _tsv_texts(draw):
    lines = ["\t".join(TSV_COLUMNS) if draw(st.integers(0, 9))
             else draw(st.sampled_from(["", "surface_form", "a\tb"]))]
    source_id = draw(st.sampled_from(["doc", "", "d 1"]))
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        row = [draw(st.sampled_from(["daiin", "qo", "C#", "é", "x*"])),
               *(str(draw(st.integers(1, 40))) for _ in range(4)),
               draw(st.sampled_from(LOCUS_KINDS)),
               str(draw(st.integers(1, 40))), str(draw(st.integers(1, 9))),
               draw(st.sampled_from(["f1r", ""])), "", "herbal",
               draw(st.sampled_from(LANGUAGES)), draw(st.sampled_from(HANDS)),
               "H", source_id]
        if kind == 1:
            column = draw(st.integers(0, len(row) - 1))
            name = TSV_COLUMNS[column]
            if name in ("surface_form", "locus_kind", "language", "hand"):
                pool = _BAD_VALUES[name]
            elif name.endswith(("_fwd", "_rev", "_number")):
                pool = _BAD_VALUES["int"]
            else:
                pool = _BAD_VALUES["other"]
            row[column] = draw(st.sampled_from(pool))
        elif kind == 2:
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        elif kind == 3:
            row[-1] = "other"
        lines.append("\t".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@contextlib.contextmanager
def _row_by_row():
    """A row tail pattern that matches nothing, so that every block holding
    a row is checked row by row. Yields ``_checked_rows``, wrapped to count
    its calls."""
    with mock.patch.object(ingest, "_tail_pattern",
                           lambda source_id: re.compile("(?!)")), \
            mock.patch.object(ingest, "_checked_rows",
                              wraps=ingest._checked_rows) as checked:
        yield checked


def _one_row(word="daiin", position="1", source_id="doc"):
    return (f"{word}\t{position}\t1\t1\t1\tparagraph\t1\t1\tf1r\t\therbal"
            f"\tA\t1\tH\t{source_id}\n")


@settings(max_examples=400, deadline=None)
# Rows the row tail split must not accept: one of 16 fields whose last 15
# are a valid row, one that begins with a tab, and a good row ended by a
# lone "\r" before a bad one.
@example(text=ingest.TSV_HEADER + _one_row() + "x\t" + _one_row(),
         chunk_chars=1 << 18, row_by_row=False)
@example(text=ingest.TSV_HEADER + _one_row() + "\t" + _one_row(),
         chunk_chars=1 << 18, row_by_row=False)
@example(text=ingest.TSV_HEADER + _one_row().replace("\n", "\r") + "x\t1\n",
         chunk_chars=1 << 18, row_by_row=False)
@given(text=_tsv_texts(), chunk_chars=st.sampled_from([1, 9, 200, 1 << 18]),
       row_by_row=st.booleans())
def test_read_tsv_matches_row_by_row_reference(text, chunk_chars, row_by_row):
    # Small chunk sizes put chunk cuts between (and next to) every kind of
    # row, including the first one that fails.
    try:
        expected = oracles.read_tsv_rows(text)
    except ParseError as exc:
        expected = exc
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars), \
            (_row_by_row() if row_by_row
             else contextlib.nullcontext()) as checked:
        if isinstance(expected, ParseError):
            with pytest.raises(ParseError) as exc:
                read_tsv(text)
            assert exc.value.line_number == expected.line_number
            assert str(exc.value) == str(expected)
        else:
            assert read_tsv(text) == expected
    if row_by_row:  # every row, good or bad, was checked row by row
        has_rows = (expected.line_number > 1
                    if isinstance(expected, ParseError) else len(expected) > 0)
        assert checked.called == has_rows


# Characters at which str.splitlines breaks a line.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def _near_valid_blocks(draw):
    """``(source_id, block)``: rows of a long-table TSV after its header,
    mostly valid, with whitespace or a line break drawn into a field, a
    source_id other than the block's, or a position that only looks like
    write_tsv's."""
    source_id = draw(st.sampled_from(["doc", "", "a.b", "x|y", "(", "d 1"]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 19))  # 5 to 19: a valid row
        if kind == 0:
            lines.append("")
            continue
        row = [draw(st.sampled_from(["daiin", "C#", "#", "é", "x*"])),
               *(str(draw(st.integers(1, 12))) for _ in range(4)),
               draw(st.sampled_from(LOCUS_KINDS)),
               str(draw(st.integers(1, 12))), str(draw(st.integers(1, 3))),
               draw(st.sampled_from(["f1r", "", "f 1"])), "", "herbal",
               draw(st.sampled_from(LANGUAGES)), draw(st.sampled_from(HANDS)),
               "H", source_id]
        if kind in (1, 2):  # the word, or any other field
            column = 0 if kind == 1 else draw(st.integers(1, len(row) - 1))
            at = draw(st.integers(0, len(row[column])))
            row[column] = (row[column][:at] + draw(st.sampled_from(
                " \t" + _LINE_BREAKS)) + row[column][at:])
        elif kind == 3:
            row[-1] = draw(st.sampled_from(["aXb", "x", "y", "(", "", "doc",
                                            "d 1 "]))
        elif kind == 4:
            column = draw(st.sampled_from([1, 2, 3, 4, 6, 7]))
            row[column] = draw(st.sampled_from(["0", "07", "\u0663",
                                                "\uff17", "1\u0663"]))
        lines.append("\t".join(row))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    block = "".join(map(str.__add__, lines, ends))
    if block and draw(st.booleans()):
        block = block.removesuffix("\n").removesuffix("\r")
    return source_id, block


@settings(max_examples=500, deadline=None, derandomize=True)
@example(("doc", _one_row("da iin")))
@example(("doc", "\n" + _one_row(position="\u0663")))
@example(("doc", _one_row() + "\r\n" + _one_row(position="07")))
@example(("a.b", _one_row(source_id="a.b") + _one_row(source_id="aXb")))
# A row of 16 fields whose last 15 are a valid row.
@example(("doc", "x\t" + _one_row()))
# A row that begins with a tab.
@example(("doc", _one_row() + "\t" + _one_row()))
# Leading blank lines, and an unterminated last row.
@example(("doc", "\n\r\n\n" + _one_row() + _one_row().removesuffix("\n")))
# A lone "\r" line end.
@example(("doc", _one_row().replace("\n", "\r") + _one_row()))
@given(_near_valid_blocks())
def test_a_pattern_match_implies_the_row_check_accepts(drawn):
    # A block the row tail split accepts is one _checked_rows accepts, with
    # the same words and as many lines as str.splitlines makes.
    source_id, block = drawn
    words = ingest._split_words(ingest._tail_pattern(source_id), block)
    if words is None:
        return
    lines = block.splitlines()
    rows = ingest._checked_rows(lines, 2, source_id)
    assert [row.split("\t")[0] for row in rows] == words
    if block:  # _slices skips an empty block
        assert block.count("\n") + (not block.endswith("\n")) == len(lines)
    # The source_id a file's pattern is made for is its first row's.
    if rows:
        assert rows[0].split("\t")[-1] == source_id


def test_a_row_ending_in_a_valid_row_is_checked_row_by_row():
    # The split matches the tail of the valid row inside the 16 fields, but
    # the piece before it holds a tab, so the block goes row by row.
    text = ingest.TSV_HEADER + _one_row() + "x\t" + _one_row()
    with mock.patch.object(ingest, "_checked_rows",
                           wraps=ingest._checked_rows) as checked, \
            pytest.raises(ParseError) as exc:
        read_tsv(text)
    assert checked.called
    assert "expected 15 columns, got 16" in str(exc.value)
    assert exc.value.line_number == 3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.text(st.sampled_from("abé#\U00010330"),
                                  max_size=5),
                          st.integers(1, 4)), max_size=30))
def test_character_counts_equals_the_per_character_loop(types):
    want: Counter = Counter()
    for form, n in types:
        for c in form:
            want[c] += n
    got = character_counts([form for form, _ in types],
                           [n for _, n in types])
    assert dict(got) == dict(want)
