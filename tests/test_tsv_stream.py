"""The commands that read a long-table TSV in slices, against the whole-file
path; ``ingest`` of plain and interlinear text, which writes a run of
lines at a time, against word-by-word oracles; and the memory that they
and ``batch`` hold."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charentropy
import oracles
from charentropy import cli, formats, ingest
from charentropy.cli import main
from charentropy.errors import ParseError
from charentropy.ingest import (TSV_COLUMNS, canonical_selection,
                                decoded_blocks, from_words, parse_plaintext,
                                read_tsv, tsv_slices, write_tsv)
from charentropy.metrics import TypeCounts, entropy_report, to_stream
from charentropy.sampling import SamplingConfig
from test_ingest import _row_by_row, parse
from test_ingest import _tsv_texts as tsv_texts

SRC = str(Path(charentropy.__file__).resolve().parent.parent)

_WORDS = st.text(st.sampled_from("aabcdeéZ'-.,1\U00010330я"),
                 min_size=1, max_size=6)
_HEADER = "\t".join(TSV_COLUMNS) + "\n"


def _row(word: str, line: int = 1) -> str:
    return (f"{word}\t1\t1\t1\t1\tparagraph\t{line}\t1\tf1r\t\therbal\tA\t1"
            f"\tH\tdoc\n")


@st.composite
def tsv_files(draw):
    """A valid or near-valid long-table TSV as bytes, with a BOM, mixed
    line breaks, non-BMP characters and a bad UTF-8 sequence drawn in."""
    if draw(st.booleans()):
        text = draw(tsv_texts())
    else:
        words = draw(st.lists(_WORDS, max_size=40))
        if words and draw(st.integers(0, 3)) == 0:
            words[draw(st.integers(0, len(words) - 1))] += "#"
        text = write_tsv(from_words(words, source_id="doc"))
    if draw(st.booleans()):
        text = text.replace("daiin", "d\U00010330iin")
    parts = text.split("\n")
    breaks = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\x85",
                                            "\u2028"]),
                           min_size=len(parts) - 1, max_size=len(parts) - 1))
    text = parts[0] + "".join(map(str.__add__, breaks, parts[1:]))
    raw = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()
    if draw(st.integers(0, 3)) == 0:
        # Mostly in the later half, so in a later block than the first.
        at = draw(st.integers(len(raw) // 2, len(raw)))
        raw = (raw[:at] + draw(st.sampled_from([b"\xff", b"\xe2\x82",
                                                b"\xc0\xaf"])) + raw[at:])
    return raw


# Each command, its options and the oracle's; ``{out}`` is the directory
# the outputs go to, ``{tmp}`` the one holding the input and ``erase.rules``.
_COMMANDS = (
    ("stats", ["--out", "{out}/o.json"], {}),
    ("bigrams", ["--out-prefix", "{out}/o"], {}),
    ("sukhotin", ["--diagnostics", "--out", "{out}/o.json"], {}),
    ("sukhotin", ["--include-space", "--diagnostics", "--out",
                  "{out}/o.json"], {"include_space": True}),
    # Windows of 1 and 3 words: a table of one or two words is too short.
    ("sample", ["--windows", "1,3", "--n", "3", "--seed", "7", "--values",
                "--out", "{out}/o.json"],
     {"sampling": SamplingConfig(window_sizes=(1, 3), samples_per_size=3,
                                 seed=7)}),
    ("translit", ["--system", "maximal", "--out", "{out}/o.tsv"],
     {"system": "maximal"}),
    ("translit", ["--system", "minimal", "--out", "{out}/o.tsv"],
     {"system": "minimal"}),
    ("translit", ["--simplify", "--rare-min", "2", "--out", "{out}/o.tsv"],
     {"rare_min": 2}),
    ("translit", ["--rules", "{tmp}/erase.rules", "--out", "{out}/o.tsv"],
     {"rules": "{tmp}/erase.rules"}),
    ("cleanse", ["--out", "{out}/o.tsv"], {}),
    ("cleanse", ["--threshold", "0.05", "--out", "{out}/o.tsv"],
     {"threshold": 0.05}),
)

# Erases the word ``qo``, which the near-valid TSVs hold.
_ERASE_RULES = "#! alphabet: qo\nqo\t\n"



def _digest(path: str, raw: bytes) -> dict:
    return {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}


def _expected_digests(path: str, raw: bytes, options: list[str]) -> list:
    """The manifest digests of a command run on ``path``, sorted by path as
    the manifest lists them: the input's, and the rule table's when
    ``translit`` was given one."""
    digests = [_digest(path, raw)]
    if "--system" in options:
        name = options[options.index("--system") + 1] + ".rules"
        digests.append(_digest(f"builtin:{name}", resources.files(
            "charentropy.data").joinpath(name).read_bytes()))
    if "--rules" in options:
        rules = options[options.index("--rules") + 1]
        digests.append(_digest(rules, Path(rules).read_bytes()))
    return sorted(digests, key=lambda d: d["path"])

@settings(max_examples=150, deadline=None, derandomize=True)
# A word holding the boundary before a bad row: the row's error wins.
@example(raw=(_HEADER + _row("C#") + "qo\t1\n").encode(), block=1,
         row_by_row=False)
# A word holding the boundary in a table long enough for every window.
@example(raw=(_HEADER + _row("ab") + _row("C#", 2) + _row("d", 3)
              + _row("ab", 4)).encode(), block=1, row_by_row=False)
# A bad byte in a later block than a bad row: the byte's error wins.
@example(raw=(_HEADER + "qo\t1\n" + _row("a") * 3).encode() + b"\xff\n",
         block=16, row_by_row=False)
# A word the erasing rule set erases, after one it keeps.
@example(raw=(_HEADER + _row("daiin") + _row("qo", 2)).encode(), block=1,
         row_by_row=False)
# An empty table, with and without its header.
@example(raw=_HEADER.encode(), block=1, row_by_row=False)
@example(raw=b"", block=1, row_by_row=False)
# A BOM, \r\n line ends, a non-BMP word, a blank line and no final break.
@example(raw=b"\xef\xbb\xbf" + (_HEADER + _row("\U00010330a") + "\n"
                                + _row("ba", 2)).replace("\n", "\r\n")
         .encode().removesuffix(b"\r\n"), block=1, row_by_row=True)
@given(raw=tsv_files(), block=st.sampled_from([1, 2, 5, 64, 1 << 18]),
       row_by_row=st.booleans())
def test_sliced_commands_equal_the_whole_table_path(raw, block, row_by_row):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ingest, "_BLOCK_BYTES", block), \
            (_row_by_row() if row_by_row
             else contextlib.nullcontext()) as checked:
        tmp = Path(tmp)
        path = str(tmp / "in.tsv")
        Path(path).write_bytes(raw)
        (tmp / "erase.rules").write_text(_ERASE_RULES, encoding="utf-8")
        for command, options, oracle_options in _COMMANDS:
            out = tmp / "out"
            out.mkdir()
            options = [o.format(out=out, tmp=tmp) for o in options]
            oracle_options = {k: v.format(tmp=tmp) if isinstance(v, str)
                              else v for k, v in oracle_options.items()}
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, path, *options])
            expected = oracles.tsv_command_oracle(command, raw, path,
                                                  **oracle_options)
            files = {p.name: p.read_text(encoding="utf-8")
                     for p in out.iterdir()
                     if not p.name.endswith(".manifest.json")}
            assert (code, err.getvalue(), files) == expected, options
            if code == 0:
                (manifest,) = out.glob("*.manifest.json")
                digests = json.loads(manifest.read_text(encoding="utf-8"))[
                    "input_digests"]
                assert digests == _expected_digests(path, raw, options)
            else:
                assert not any(out.iterdir()), options
            for p in out.iterdir():
                p.unlink()
            out.rmdir()
    if row_by_row:  # a file with a row, good or bad, was read row by row
        try:
            has_rows = len(oracles.read_tsv_rows(raw.decode("utf-8-sig"))) > 0
        except ParseError as exc:
            has_rows = exc.line_number > 1
        except UnicodeDecodeError:
            has_rows = False
        assert checked.called or not has_rows


def _types_or_error(fold):
    """The fields of the TypeCounts ``fold()`` makes, ids as a list, or the
    message of the ParseError it raises."""
    try:
        types = fold()
    except ParseError as exc:
        return str(exc)
    assert types.ids.dtype == np.int32
    return (types.source_id, types.forms, types.freq, types.boundary_word,
            types.ids.tolist())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=tsv_texts(), block=st.sampled_from([1, 2, 5, 64, 1 << 18]))
def test_a_fold_keeping_tokens_equals_the_types_of_the_table(text, block):
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):
        sliced = _types_or_error(lambda: TypeCounts.fold(
            tsv_slices(decoded_blocks(io.BytesIO(text.encode()).read)),
            tokens=True))
    assert sliced == _types_or_error(lambda: TypeCounts.of(read_tsv(text)))


def _row_checks(raw: bytes, block: int) -> int:
    """How many blocks a fold of ``raw``, read ``block`` bytes at a time,
    checks row by row."""
    with mock.patch.object(ingest, "_BLOCK_BYTES", block), \
            mock.patch.object(ingest, "_checked_rows",
                              wraps=ingest._checked_rows) as checked:
        try:
            TypeCounts.fold(tsv_slices(decoded_blocks(io.BytesIO(raw).read)))
        except ParseError:
            pass
    return checked.call_count


def test_written_tables_take_only_the_row_pattern():
    # Checking a block row by row is several times slower than matching it:
    # a CRLF copy of a TSV, or blank lines in it, must not fall back to it.
    rng = random.Random(0)
    words = ["".join(rng.choices("abcdé#", k=rng.randint(1, 6)))
             for _ in range(3000)]
    # Every locus kind, language and hand, and a source_id the pattern
    # must escape.
    pages = parse("<f1r.P1.1;H> a1.a2\n<f1r.L1.1;H> lab\n"
                  "<f26r.P1.1;H> b1.b2.b3\n<f67r.P1.1;H> u1\n",
                  source_id="doc (1)")
    text = (write_tsv(from_words(words, source_id="doc (1)"))
            + write_tsv(pages).removeprefix(_HEADER))
    spaced = text.replace("\n", "\n\n")  # a blank line after every line
    bad = text + "qo\t1\n"
    for block in (1, 2, 5, 64, 4096, 1 << 18):
        for good in (text, text.replace("\n", "\r\n"), spaced,
                     spaced.replace("\n", "\r\n")):
            assert _row_checks(good.encode(), block) == 0, block
        assert _row_checks(bad.encode(), block) > 0, block


# Every line break of str.splitlines, and "\r\n".
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029"]
_PLAIN_LINES = st.one_of(
    st.sampled_from(["", " ", "\t", " \u3000 "]),
    st.lists(st.tuples(st.sampled_from([" ", "\t", "  ", "\xa0"]),
                       st.text(st.sampled_from("abé.,'Zя\U00010330#<"),
                               min_size=1, max_size=4)),
             min_size=1, max_size=12).map(
        lambda parts: "".join(map("".join, parts))))


@st.composite
def plain_texts(draw):
    """Plain text as bytes: lines of words, blank and whitespace-only lines,
    each ended by a drawn line break, with a BOM and no final break drawn
    in. One text in two has no blank line, so it is one paragraph."""
    lines = draw(st.lists(_PLAIN_LINES, max_size=30))
    if draw(st.booleans()):
        lines = [line for line in lines if line.split()]
    ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    if ends and draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()


@settings(max_examples=100, deadline=None, derandomize=True)
# One paragraph much longer than a run, then one much shorter.
@example(raw=b"a b c\nd e f g\nh\n\ni j\n", bad_at=None)
# A bad byte after the first run.
@example(raw=b"a b\n\nc", bad_at=4)
# No blank line: one paragraph, longer than every patched run, with CRLF
# line ends and no final line break.
@example(raw=b"a b c\r\nd e\r\nf g h\r\ni", bad_at=None)
# Paragraphs longer than two runs, between whitespace-only lines.
@example(raw=b"a b c\r\n \t\r\nd e f g h i\r\n\xe3\x80\x80\r\nj\n",
         bad_at=None)
@given(raw=plain_texts(), bad_at=st.one_of(st.none(), st.integers(0)))
def test_streamed_ingest_equals_the_plaintext_oracle(raw, bad_at):
    if bad_at is not None:
        at = bad_at % (len(raw) + 1)
        raw = raw[:at] + b"\xff" + raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.txt", Path(tmp) / "o.tsv"
        path.write_bytes(raw)
        for rows, select in itertools.product([1, 2, 5, 4096],
                                              [None, "full_text", "a"]):
            err = io.StringIO()
            with mock.patch.object(ingest, "_PIECE_ROWS", rows), \
                    contextlib.redirect_stderr(err):
                code = main(["ingest", str(path), "--kind", "plaintext",
                             "--out", str(out),
                             *(["--select", select] if select else [])])
            if bad_at is not None:
                assert code == 2
                assert err.getvalue().startswith(
                    f"charentropy: error: {path}: input is not valid UTF-8")
                assert not out.exists()
                continue
            assert code == 0, err.getvalue()
            table = oracles.plaintext_table_oracle(raw, "in.txt")
            if select:
                table = canonical_selection(table, select)
            assert out.read_bytes() == write_tsv(table).encode(), (rows,
                                                                   select)
            out.unlink()


# Two languages and two hands: folio -> (section, language, hand, quire).
_FOLIOS = {"f1r": ("herbal", "A", "1", "A"), "f2v": ("herbal", "B", "2", "B"),
           "f3r": ("stars", "A", "2", "C")}

_GLYPHS = st.text(st.sampled_from("aodeyk"), min_size=1, max_size=4)


@st.composite
def interlinear_texts(draw):
    """Interlinear text as bytes: units of one folio and locus, paragraph
    (``P``, ``p``) or label (``L``, ``R``), each of one to six lines read by
    one or both of two transcribers, with comment and blank lines between.
    Words are parted by ``.``, by an annotation and ``.``, or by ``,``."""
    lines = []
    for folio, locus in draw(st.lists(st.tuples(
            st.sampled_from(sorted(_FOLIOS)),
            st.sampled_from(["P1", "P2", "p3", "L1", "R2"])), max_size=8)):
        for number in range(1, draw(st.integers(1, 6)) + 1):
            for who in draw(st.sampled_from([("H",), ("F",), ("H", "F")])):
                words = draw(st.lists(_GLYPHS, max_size=5))
                breaks = draw(st.lists(
                    st.sampled_from([".", ".", "{c}.", ","]),
                    min_size=len(words), max_size=len(words)))
                payload = "".join(map(str.__add__, words, breaks))
                lines.append(f"<{folio}.{locus}.{number};{who}>  {payload}")
            if draw(st.integers(0, 4)) == 0:
                lines.append(draw(st.sampled_from(["", "# a comment"])))
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=60, deadline=None, derandomize=True)
# Paragraphs longer than every patched run but the last, each selection
# keeping some of them and dropping the others, and a label among them.
@example(raw=b"<f1r.P1.1;H> a.b.c\n<f1r.P1.2;H> d.e\n# between\n"
             b"<f2v.P1.1;H> f.g.h.i\n<f2v.P1.2;F> j\n<f3r.L1.1;H> k.l\n"
             b"<f3r.P1.1;H> m.n.o\n<f3r.P1.2;F> p\n<f1r.P2.1;H> q\n",
         transcriber=None)
@given(raw=interlinear_texts(), transcriber=st.sampled_from([None, "H"]))
def test_streamed_interlinear_ingest_equals_the_oracle(raw, transcriber):
    with tempfile.TemporaryDirectory() as tmp:
        path, meta, out = (Path(tmp) / n for n in ("in.txt", "meta.tsv",
                                                   "o.tsv"))
        path.write_bytes(raw)
        meta.write_text("".join(f"{folio}\t{section}\t{language}\t{hand}"
                                f"\t{quire}\n" for folio, (
                                    section, language, hand, quire)
                                in _FOLIOS.items()), encoding="utf-8")
        table = oracles.interlinear_table_oracle(raw, _FOLIOS, "in.txt",
                                                 transcriber)
        for rows, select in itertools.product([1, 2, 5, 4096],
                                              [None, "a_text", "hand2", "b"]):
            err = io.StringIO()
            with mock.patch.object(ingest, "_PIECE_ROWS", rows), \
                    contextlib.redirect_stderr(err):
                code = main(["ingest", str(path), "--kind", "interlinear",
                             "--meta", str(meta), "--out", str(out),
                             *(["--transcriber", transcriber]
                               if transcriber else []),
                             *(["--select", select] if select else [])])
            assert code == 0, err.getvalue()
            want = canonical_selection(table, select) if select else table
            assert out.read_bytes() == write_tsv(want).encode(), (rows,
                                                                  select)
            out.unlink()


def _words(n: int) -> list[str]:
    """``n`` words drawn from a fixed 500-word vocabulary."""
    rng = random.Random(0)
    vocabulary = ["".join(rng.choices("abcdefghijklmnop", k=rng.randint(2, 9)))
                  for _ in range(500)]
    return rng.choices(vocabulary, k=n)


def _tsv_file(directory: Path, n_rows: int) -> Path:
    """A TSV of ``n_rows`` words drawn from a fixed 500-word vocabulary."""
    path = directory / f"{n_rows}.tsv"
    path.write_text(write_tsv(from_words(_words(n_rows), source_id="doc")),
                    encoding="utf-8")
    return path


def _plaintext_file(directory: Path, n_words: int) -> Path:
    """Plain text of ``n_words`` words of the same vocabulary, ten to a
    line, with a blank line after one line in five."""
    words = _words(n_words)
    lines = [" ".join(words[i:i + 10]) + ("\n\n" if i % 50 == 40 else "\n")
             for i in range(0, n_words, 10)]
    path = directory / f"{n_words}.txt"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _fold(path: Path) -> TypeCounts:
    with open(path, "rb") as f:
        return TypeCounts.fold(tsv_slices(decoded_blocks(f.read)))


def test_fold_memory_is_flat_in_the_row_count(tmp_path):
    small, large = _tsv_file(tmp_path, 20_000), _tsv_file(tmp_path, 80_000)
    assert _fold(large).freq != _fold(small).freq
    fold_growth = (_traced_peak(lambda: _fold(large))
                   - _traced_peak(lambda: _fold(small)))
    assert fold_growth < 1 << 20, fold_growth
    small_text = small.read_text(encoding="utf-8")
    large_text = large.read_text(encoding="utf-8")
    read_small = _traced_peak(lambda: read_tsv(small_text))
    read_large = _traced_peak(lambda: read_tsv(large_text))
    assert read_large > 3 * read_small, (read_small, read_large)
    # Plain-text ingest holds a block of its input, one run of lines and
    # one count a paragraph, where parse_plaintext holds the whole table.
    small, large = (_plaintext_file(tmp_path, 20_000),
                    _plaintext_file(tmp_path, 80_000))

    def ingest_text(path: Path) -> None:
        assert main(["ingest", str(path), "--out",
                     str(tmp_path / "o.tsv")]) == 0

    def parse(path: Path) -> None:
        parse_plaintext(path.read_bytes(), "doc")

    ingest_text(small)
    ingest_growth = (_traced_peak(lambda: ingest_text(large))
                     - _traced_peak(lambda: ingest_text(small)))
    parse_growth = (_traced_peak(lambda: parse(large))
                    - _traced_peak(lambda: parse(small)))
    assert ingest_growth < parse_growth / 4, (ingest_growth, parse_growth)


# Runs argv and prints its exit status and peak RSS in kilobytes. Linux
# carries the resident size of the image a child replaces into its
# ru_maxrss, so a child measured straight from this large test process
# would read at least this process's size.
_PEAK = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(status, usage.ru_maxrss)
"""


def _peak_mb(argv: list[str]) -> float:
    """The peak RSS, in MB, of the command ``argv`` run in a child
    interpreter, as ``os.wait4`` reports it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", _PEAK, sys.executable, "-m", "charentropy",
         *argv], env=env, capture_output=True, text=True, check=True).stdout
    status, kilobytes = map(int, out.split())
    assert status == 0
    return kilobytes / 1024


def test_ingest_memory_is_flat_in_a_text_with_no_blank_line(tmp_path):
    # One paragraph, twenty words to a line: ingest reads it twice, and
    # holds one block of text, one run of lines and one count a paragraph.
    peaks = []
    for n_words in (20_000, 200_000):
        words = _words(n_words)
        path = tmp_path / f"{n_words}.txt"
        path.write_text("".join(" ".join(words[i:i + 20]) + "\n"
                                for i in range(0, n_words, 20)),
                        encoding="utf-8")
        peaks.append(_peak_mb(["ingest", str(path), "--out",
                               str(path.with_suffix(".tsv"))]))
    # Held as one table, the 200k words took 76 MB more than the 20k.
    assert peaks[1] - peaks[0] < 5, peaks


def test_character_rewrites_are_flat_in_the_vocabulary(tmp_path):
    # Two tables of 100k rows and about as many characters, one drawn from
    # 5k distinct words and one from 60k. cleanse and translit --simplify
    # keep one count per character, so their peaks stay level.
    rng = random.Random(0)
    paths = []
    for n_types in (5_000, 60_000):
        vocabulary = ["".join(rng.choices("abcdefghijklmnopXYZ", k=6))
                      for _ in range(n_types)]
        words = vocabulary + rng.choices(vocabulary, k=100_000 - n_types)
        path = tmp_path / f"{n_types}.tsv"
        path.write_text(_HEADER + "".join(map(_row, words)), encoding="utf-8")
        paths.append(path)
    out = str(tmp_path / "o.tsv")
    for options in (["cleanse"], ["translit", "--simplify"]):
        small, large = (_peak_mb([options[0], str(path), *options[1:],
                                  "--out", out]) for path in paths)
        # Counting word types, the 60k-type table peaked 7.9 MB (cleanse)
        # and 11.4 MB (translit --simplify) above the 5k.
        assert large - small < 1.5, (options, small, large)


def test_batch_memory_is_flat_in_the_token_count(tmp_path):
    # Two interlinear texts of the same 2,000 words, one of them 4x the
    # other's 1,500 lines. batch holds the text, decoded, and one count a
    # word type and stratum, never the parsed lines.
    rng = random.Random(0)
    vocabulary = sorted({"".join(rng.choices("acdehiklnoqrsty", k=6))
                         for _ in range(2_000)})
    folios = [f"f{i}r" for i in range(1, 9)]
    (tmp_path / "meta.tsv").write_text("".join(
        f"{folio}\therbal\t{'AB'[i % 2]}\t{i % 4 + 1}\tA\n"
        for i, folio in enumerate(folios)), encoding="utf-8")
    peaks = []
    for n_lines in (1_500, 6_000):
        words = vocabulary + rng.choices(vocabulary,
                                         k=8 * n_lines - len(vocabulary))
        path = tmp_path / f"{n_lines}.txt"
        path.write_text("".join(
            f"<{folios[i // 50 % 8]}.{'PL'[i % 7 == 0]}{i // 10}.{i % 10 + 1}"
            f";H> {'.'.join(words[8 * i:8 * i + 8])}\n"
            for i in range(n_lines)), encoding="utf-8")
        peaks.append(_peak_mb(["batch", str(path), "--meta",
                               str(tmp_path / "meta.tsv"), "--out",
                               str(tmp_path / "grid.tsv")]))
    # Holding its parsed lines, batch peaked 4.3 MB higher on the longer.
    assert peaks[1] - peaks[0] < 1.5, peaks


def test_sample_values_are_written_as_they_are_encoded(tmp_path,
                                                       monkeypatch):
    tsv = _tsv_file(tmp_path, 2_000)
    sample_h2 = cli.sample_h2

    def sampled_from_here(*args, **kwargs):
        tracemalloc.reset_peak()  # the peak from the sampling on
        return sample_h2(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_h2", sampled_from_here)

    def sample(n: int) -> None:
        assert main(["sample", str(tsv), "--windows", "5", "--n", str(n),
                     "--values", "--out", str(tmp_path / "s.json")]) == 0

    sample(2_000)
    growth = (_traced_peak(lambda: sample(16_000))
              - _traced_peak(lambda: sample(2_000)))
    # The 14,000 more values cost 32 bytes each as floats in a list. Held
    # whole, their JSON text and its encoder's chunks made the run grow by
    # 1.9 MB, three times this bound; a rounded copy beside the values
    # made it grow by 0.78 MB.
    assert growth < 14_000 * 45, growth


def test_sample_values_are_each_formatted_once(tmp_path, monkeypatch):
    tsv, out = _tsv_file(tmp_path, 200), tmp_path / "s.json"
    fmt_float, calls = formats.fmt_float, []

    def counted(x):
        calls.append(x)
        return fmt_float(x)

    monkeypatch.setattr(formats, "fmt_float", counted)
    assert main(["sample", str(tsv), "--windows", "5,9", "--n", "300",
                 "--values", "--out", str(out)]) == 0
    written = [v for d in json.loads(out.read_text(encoding="utf-8"))[
        "distributions"] for v in (*d["values"], d["mean"], d["sd"],
                                   d["min"], d["max"])]
    assert len(written) == 2 * (300 + 4)
    assert len(calls) == len(written)


def _readme_example(marker: str) -> str:
    """The one Python example of the README that holds ``marker``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    (example,) = [code for block in readme.split("```python\n")[1:]
                  if marker in (code := block.split("```", 1)[0])]
    return example


def test_readme_fold_example_runs(tmp_path, monkeypatch):
    example = _readme_example("TypeCounts.fold")
    monkeypatch.chdir(tmp_path)
    table = from_words("the cat sat on the mat".split())
    (tmp_path / "clean.tsv").write_text(write_tsv(table), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    assert float(out.getvalue()) == entropy_report(to_stream(table)).h2


def test_readme_sample_example_runs():
    example = _readme_example("TypeCounts.of")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    table = from_words("the cat sat on the mat".split())
    cfg = SamplingConfig(window_sizes=(2, 4), samples_per_size=10, seed=1)
    means = [statistics.fmean(values)
             for values in oracles.sample_h2_oracle(table, cfg)]
    assert out.getvalue() == f"{means}\n"
