import ast
import contextlib
import errno
import importlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charentropy
import oracles
from charentropy import cli, ingest, metrics
from charentropy.cli import BATCH_SYSTEMS, main
from charentropy.errors import ParseError
from charentropy.ingest import (CANONICAL_SELECTIONS, TSV_COLUMNS,
                                FolioMetadataMap, parse_interlinear, read_tsv)
from charentropy.metrics import entropy_report, to_stream
from test_ingest import _tsv_texts as tsv_texts

INTERLINEAR = """# fixture
<f1r.P1.1;H> shedy.qokeedy.daiin
<f1r.P1.2;H> chol,dy.qokal
<f1r.L1.1;H> otol.dar
<f1v.P1.1;H> shol.cthey.qotedy
<f1v.P1.1;C> shol.cthey.qody
"""

META = "f1r\therbal\tA\t1\tA\nf1v\therbal\tA\t1\tA\n"


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "page.txt").write_text(INTERLINEAR, encoding="utf-8")
    (tmp_path / "meta.tsv").write_text(META, encoding="utf-8")
    (tmp_path / "plain.txt").write_text(
        "The cat sat on the mat.\n\nThe dog sat too.\n", encoding="utf-8")
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_ingest_interlinear_and_stats_match_library(workspace):
    assert run("ingest", "page.txt", "--meta", "meta.tsv",
               "--transcriber", "H", "--out", "t.tsv") == 0
    table = read_tsv((workspace / "t.tsv").read_text(encoding="utf-8"))
    assert table.words()[0] == "shedy"
    assert len(table) == 10  # choldy fused, C's line excluded

    assert run("stats", "t.tsv", "--out", "stats.json") == 0
    doc = json.loads((workspace / "stats.json").read_text(encoding="utf-8"))
    report = entropy_report(to_stream(table))
    assert doc["schema_version"] == 1
    assert doc["entropy"]["charset_size"] == report.charset_size
    assert doc["entropy"]["h2"] == float(f"{report.h2:.12g}")
    assert doc["entropy"]["word_token_count"] == 10


def test_ingest_select(workspace):
    assert run("ingest", "page.txt", "--meta", "meta.tsv",
               "--transcriber", "H", "--select", "full_text",
               "--out", "sel.tsv") == 0
    table = read_tsv((workspace / "sel.tsv").read_text(encoding="utf-8"))
    # the two label words on the L locus are gone
    assert len(table) == 8
    assert all(r.locus_kind == "paragraph" for r in table.records)
    assert run("ingest", "page.txt", "--meta", "meta.tsv",
               "--select", "bogus") == 1


def test_ingest_sniffs_plaintext(workspace):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    table = read_tsv((workspace / "p.tsv").read_text(encoding="utf-8"))
    assert table.words()[:2] == ["The", "cat"]
    assert table.records[0].language == "unclassified"


@pytest.mark.parametrize("argv, opens", [
    (["plain.txt"], 2),
    (["plain.txt", "--kind", "plaintext"], 2),
    (["page.txt", "--meta", "meta.tsv"], 1),
    (["page.txt", "--kind", "interlinear", "--meta", "meta.tsv"], 1),
], ids=["plaintext-sniffed", "plaintext", "interlinear-sniffed",
        "interlinear"])
def test_ingest_opens_its_input_once_per_pass_and_sniffs_in_pass_1(
        workspace, monkeypatch, argv, opens):
    # The kind comes from the bytes pass 1 reads, never from a read of
    # its own; interlinear text is held, so pass 2 reads no file.
    real, opened = cli._Run.blocks, []

    def blocks(self, path):  # a generator: counts when the file is read
        opened.append(str(path))
        yield from real(self, path)

    monkeypatch.setattr(cli._Run, "blocks", blocks)
    assert run("ingest", *argv, "--out", "o.tsv") == 0
    assert opened.count(argv[0]) == opens


@pytest.mark.parametrize("block", [1, 7, 64])
def test_ingest_sniffs_the_kind_after_blocks_of_comments(
        workspace, monkeypatch, capsys, block):
    # Blank and comment lines fill the first blocks. The kind is still the
    # first content line's, and a line of interlinear text keeps its number.
    prefix = "# note\n\n \t\n" * 20
    inputs = {"i.txt": (prefix + INTERLINEAR, ["--meta", "meta.tsv"]),
              "p.txt": (prefix + "The cat\nsat\n\non it\n", []),
              "bad.txt": (prefix + INTERLINEAR + "<f1r.P1 oops\n",
                          ["--meta", "meta.tsv"])}
    for name, (text, _) in inputs.items():
        (workspace / name).write_text(text, encoding="utf-8")

    def outcomes():
        results = []
        for name, (_, argv) in inputs.items():
            code = run("ingest", name, *argv, "--out", f"{name}.tsv")
            tsv = workspace / f"{name}.tsv"
            results.append((code, capsys.readouterr().err,
                            tsv.read_bytes() if tsv.exists() else None))
        return results

    whole = outcomes()
    assert [code for code, _, _ in whole] == [0, 0, 2]
    assert whole[2][1] == ("charentropy: error: bad.txt: line 67: expected "
                           "'<folio.locus.line;transcriber>' locus header\n")
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    assert outcomes() == whole


def test_ingest_strips_utf8_byte_order_mark(workspace):
    (workspace / "bom.txt").write_bytes(
        b"\xef\xbb\xbf" + INTERLINEAR.encode("utf-8"))
    for name in ("page.txt", "bom.txt"):
        assert run("ingest", name, "--meta", "meta.tsv", "--source-id",
                   "page", "--out", f"{name}.tsv") == 0
    assert ((workspace / "bom.txt.tsv").read_bytes()
            == (workspace / "page.txt.tsv").read_bytes())


@pytest.mark.parametrize("name, argv", [
    ("plain.txt", ["--transcriber", "H"]),
    ("plain.txt", ["--comma-breaks"]),
    ("plain.txt", ["--allow-missing-meta"]),
    ("plain.txt", ["--transcriber", "H", "--comma-breaks", "--meta",
                   "/nonexistent.tsv"]),
    ("page.txt", ["--kind", "plaintext", "--meta", "meta.tsv"]),
    # An interlinear file that does not start with a locus header is
    # sniffed as plain text.
    ("late.txt", ["--meta", "meta.tsv", "--transcriber", "H"]),
])
def test_ingest_rejects_interlinear_flags_on_plain_text(workspace, capsys,
                                                         name, argv):
    (workspace / "late.txt").write_text("f1r\n" + INTERLINEAR,
                                        encoding="utf-8")
    before = sorted(workspace.iterdir())
    assert run("ingest", name, *argv, "--out", "o.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"charentropy: error: {name}: "), err
    for flag in argv:
        if flag.startswith("--") and flag != "--kind":
            assert flag in err, err
    assert sorted(workspace.iterdir()) == before  # no artifact, no manifest


def test_ingest_missing_folio_is_data_error(workspace, capsys):
    (workspace / "bad.txt").write_text(
        "<f9r.P1.1;H> daiin\n", encoding="utf-8")
    assert run("ingest", "bad.txt", "--meta", "meta.tsv") == 2
    assert "f9r" in capsys.readouterr().err
    assert run("ingest", "bad.txt", "--meta", "meta.tsv",
               "--allow-missing-meta", "--out", "ok.tsv") == 0


@pytest.mark.parametrize("name, argv, given", [
    ("plain.txt", ["--source-id", "x\ty"], "--source-id 'x\\ty'"),
    ("plain.txt", ["--source-id", "x\u2028y"], "--source-id 'x\\u2028y'"),
    ("we\nird.txt", [],
     "we\nird.txt: the file name, the default source id 'we\\nird.txt'"),
], ids=["tab-flag", "line-separator-flag", "newline-file-name"])
def test_ingest_refuses_a_source_id_its_tsv_cannot_hold(workspace, capsys,
                                                         name, argv, given):
    # The source id is the TSV's last field: a tab or a line break in it
    # would write a row that no reader of the table accepts.
    (workspace / name).write_text("The cat sat.\n", encoding="utf-8")
    before = sorted(workspace.iterdir())
    assert run("ingest", name, *argv, "--out", "o.tsv") == 2
    assert capsys.readouterr().err == (
        f"charentropy: error: {given} holds a tab or a line break, which a "
        f"TSV field cannot hold\n")
    assert sorted(workspace.iterdir()) == before  # no artifact, no manifest


def test_translit_pipeline(workspace):
    run("ingest", "page.txt", "--meta", "meta.tsv", "--transcriber", "H",
        "--out", "t.tsv")
    assert run("translit", "t.tsv", "--system", "maximal",
               "--out", "mx.tsv") == 0
    table = read_tsv((workspace / "mx.tsv").read_text(encoding="utf-8"))
    assert table.words()[0] == "c'hedy"

    assert run("translit", "t.tsv", "--system", "minimal",
               "--out", "mn.tsv") == 0
    minimal = read_tsv((workspace / "mn.tsv").read_text(encoding="utf-8"))
    assert minimal.words()[1] == "4kEdy"

    rules = workspace / "own.rules"
    rules.write_text("d\tD\n", encoding="utf-8")
    assert run("translit", "t.tsv", "--rules", str(rules),
               "--out", "own.tsv") == 0
    own = read_tsv((workspace / "own.tsv").read_text(encoding="utf-8"))
    assert own.words()[2] == "Daiin"

    assert run("translit", "t.tsv", "--simplify", "--rare-min", "3",
               "--out", "simp.tsv") == 0
    simp = read_tsv((workspace / "simp.tsv").read_text(encoding="utf-8"))
    assert len(simp) == len(table)


def test_cleanse_flags(workspace):
    run("ingest", "plain.txt", "--out", "p.tsv")
    assert run("cleanse", "p.tsv", "--out", "c.tsv") == 0
    cleaned = read_tsv((workspace / "c.tsv").read_text(encoding="utf-8"))
    assert cleaned.words()[:3] == ["the", "cat", "sat"]

    assert run("cleanse", "p.tsv", "--no-lowercase", "--out", "u.tsv") == 0
    upper = read_tsv((workspace / "u.tsv").read_text(encoding="utf-8"))
    assert upper.words()[0] == "The"

    cfgfile = workspace / "clean.cfg"
    cfgfile.write_text("lowercase = false\n", encoding="utf-8")
    assert run("cleanse", "p.tsv", "--config", str(cfgfile),
               "--out", "cfg.tsv") == 0
    assert (workspace / "cfg.tsv").read_text(encoding="utf-8") == (
        workspace / "u.tsv").read_text(encoding="utf-8")


@pytest.mark.parametrize("block", [None, 64], ids=["one-block", "blocks"])
@pytest.mark.parametrize("argv", [
    ["cleanse", "{name}"],
    ["translit", "{name}", "--system", "maximal"],
], ids=["cleanse", "translit"])
def test_output_over_its_own_input(workspace, monkeypatch, argv, block):
    # An input read in several blocks is still whole when its output
    # replaces it.
    if block is not None:
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    assert run("ingest", "page.txt", "--meta", "meta.tsv",
               "--out", "t.tsv") == 0
    (workspace / "x.tsv").write_bytes((workspace / "t.tsv").read_bytes())
    assert run(*(a.format(name="t.tsv") for a in argv),
               "--out", "fresh.tsv") == 0
    assert run(*(a.format(name="x.tsv") for a in argv),
               "--out", "x.tsv") == 0
    assert ((workspace / "x.tsv").read_bytes()
            == (workspace / "fresh.tsv").read_bytes())
    fresh = json.loads((workspace / "fresh.tsv.manifest.json").read_bytes())
    own = json.loads((workspace / "x.tsv.manifest.json").read_bytes())
    assert own == {**fresh, "input_digests": [
        {**d, "path": "x.tsv"} if d["path"] == "t.tsv" else d
        for d in fresh["input_digests"]]}


def _append_new_word(path):
    last = path.read_text(encoding="utf-8").splitlines()[-1]
    with open(path, "a", encoding="utf-8") as f:
        f.write("zzz" + last[last.index("\t"):] + "\n")


def _repeat_a_row(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text + text.splitlines()[-1] + "\n", encoding="utf-8")


def _truncate(path):
    os.truncate(path, path.stat().st_size // 2)


def _replace_a_word(path):
    """Give the first row a word of the same length that no row holds, so
    that the file keeps its size and every line its place."""
    text = path.read_text(encoding="utf-8")
    header, first, rest = text.split("\n", 2)
    word, tab, fields = first.partition("\t")
    path.write_text(f"{header}\n{'q' * len(word)}{tab}{fields}\n{rest}",
                    encoding="utf-8")


def _append_a_paragraph(path):
    with open(path, "a", encoding="utf-8") as f:
        f.write("\nzzz\n")


@pytest.mark.parametrize("edit", [_append_new_word, _repeat_a_row, _truncate,
                                  _replace_a_word, _append_a_paragraph],
                         ids=["new-word", "count", "truncate", "same-size",
                              "paragraph"])
@pytest.mark.parametrize("argv, between", [
    (["cleanse", "x.tsv"], "cleansing_table"),
    (["translit", "x.tsv", "--system", "maximal"], "transliterate_words"),
    (["translit", "x.tsv", "--simplify", "--rare-min", "2"],
     "simplifying_table"),
    # A TSV read as plain text: a paragraph of words, tabs as spaces. Both
    # passes parse with plaintext_lines; only the second writes.
    (["ingest", "x.tsv", "--kind", "plaintext"], "tsv_pieces"),
], ids=["cleanse", "translit", "simplify", "ingest"])
def test_an_input_that_changes_between_the_passes_is_data_error(
        workspace, capsys, monkeypatch, argv, between, edit):
    assert run("ingest", "page.txt", "--meta", "meta.tsv",
               "--out", "x.tsv") == 0
    (workspace / "o.tsv").write_bytes(b"earlier output\n")
    real = getattr(cli, between)

    def edit_first(*args, **kwargs):
        edit(workspace / "x.tsv")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, between, edit_first)
    names = sorted(workspace.iterdir())
    capsys.readouterr()
    assert run(*argv, "--out", "o.tsv") == 2
    assert capsys.readouterr().err == (
        "charentropy: error: x.tsv: input changed while it was read\n")
    assert (workspace / "o.tsv").read_bytes() == b"earlier output\n"
    assert sorted(workspace.iterdir()) == names  # no temporary, no manifest

    # Standard output keeps the rows written before the change was seen.
    assert run("ingest", "page.txt", "--meta", "meta.tsv",
               "--out", "x.tsv") == 0
    capsys.readouterr()
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out.startswith("\t".join(TSV_COLUMNS) + "\n")
    assert err.endswith("x.tsv: input changed while it was read\n")


@pytest.mark.parametrize("last, error", [
    ("<f9r.P1.1;H> qokeedy\n", "no metadata for folio(s): f9r"),
    ("<f1v.P1.2;H qokeedy\n",
     "line 7: expected '<folio.locus.line;transcriber>' locus header"),
    ("<f1v.P1.2;H> qo#keedy\n",
     "line 7: word 'qo#keedy' contains reserved character(s) ['#']"),
], ids=["missing-folio", "header", "reserved"])
def test_interlinear_ingest_writes_nothing_before_its_last_line_is_checked(
        workspace, capsys, last, error):
    with open(workspace / "page.txt", "a", encoding="utf-8") as f:
        f.write(last)  # line 7
    names = sorted(workspace.iterdir())
    capsys.readouterr()
    for out in ([], ["--out", "o.tsv"]):
        assert run("ingest", "page.txt", "--meta", "meta.tsv", *out) == 2
        # Not even the header reaches standard output.
        assert capsys.readouterr() == (
            "", f"charentropy: error: page.txt: {error}\n")
        assert sorted(workspace.iterdir()) == names  # no file, no manifest


def test_output_to_a_fifo_or_through_a_symlink(workspace):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    assert run("cleanse", "p.tsv", "--out", "fresh.tsv") == 0
    want = (workspace / "fresh.tsv").read_bytes()

    # A FIFO is written, not replaced by a file.
    os.mkfifo(workspace / "fifo")
    read = []
    reader = threading.Thread(
        target=lambda: read.append((workspace / "fifo").read_bytes()),
        daemon=True)
    reader.start()
    assert run("cleanse", "p.tsv", "--out", "fifo") == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert read == [want]
    assert stat.S_ISFIFO((workspace / "fifo").stat().st_mode)
    # A FIFO or a device has no "next to it": its manifest goes where
    # standard output's does, not into a new file beside it.
    assert not (workspace / "fifo.manifest.json").exists()
    doc = json.loads((workspace / "run_manifest.json").read_bytes())
    assert doc["command"] == "cleanse"

    # A symlink stays one, and its target is written, whether or not the
    # target exists yet; a new file's mode follows the umask.
    (workspace / "link.tsv").symlink_to("real.tsv")
    umask = os.umask(0o022)
    try:
        for _ in range(2):
            assert run("cleanse", "p.tsv", "--out", "link.tsv") == 0
            assert (workspace / "link.tsv").is_symlink()
            assert (workspace / "real.tsv").read_bytes() == want
            assert stat.S_IMODE((workspace / "real.tsv").stat().st_mode) == (
                0o644)
    finally:
        os.umask(umask)
    assert not [p for p in workspace.iterdir() if p.name.endswith(".tmp")]

def test_bigrams_artifacts(workspace):
    run("ingest", "plain.txt", "--out", "p.tsv")
    run("cleanse", "p.tsv", "--out", "c.tsv")
    assert run("bigrams", "c.tsv", "--out-prefix", "bg") == 0
    for suffix in ("conditional", "weighted", "entropy"):
        assert (workspace / f"bg_{suffix}.csv").exists()
    coverage = json.loads(
        (workspace / "bg_coverage.json").read_text(encoding="utf-8"))
    assert coverage["threshold"] == 0.5
    assert coverage["schema_version"] == 1
    assert coverage["total_share"] >= coverage["word_final_share"]

    table = read_tsv((workspace / "c.tsv").read_text(encoding="utf-8"))
    h2 = entropy_report(to_stream(table)).h2
    rows = (workspace / "bg_entropy.csv").read_text(
        encoding="utf-8").splitlines()
    cells = [float(v) for row in rows[1:] for v in row.split(",")[1:]]
    assert abs(sum(cells) - h2) < 1e-6


_BIGRAMS = ["bigrams", "p.tsv", "--out-prefix", "bg"]
# A missing input shows that the flag is checked before any input is read.
_CLEANSE = ["cleanse", "missing.tsv", "--out", "c.tsv"]


@pytest.mark.parametrize("argv, value, interval", [
    pytest.param(_BIGRAMS, "2", "[0, 1], got 2.0", id="2-2.0"),
    pytest.param(_BIGRAMS, "-0.1", "[0, 1], got -0.1", id="-0.1--0.1"),
    pytest.param(_BIGRAMS, "nan", "[0, 1], got nan", id="nan-nan"),
    pytest.param(_CLEANSE, "1", "[0, 1), got 1.0", id="cleanse-1"),
    pytest.param(_CLEANSE, "7", "[0, 1), got 7.0", id="cleanse-7"),
    pytest.param(_CLEANSE, "-0.1", "[0, 1), got -0.1", id="cleanse--0.1"),
    pytest.param(_CLEANSE, "nan", "[0, 1), got nan", id="cleanse-nan"),
])
def test_bigrams_threshold_outside_unit_interval_is_data_error(
        workspace, capsys, argv, value, interval):
    run("ingest", "plain.txt", "--out", "p.tsv")
    capsys.readouterr()
    before = sorted(workspace.iterdir())
    assert run(*argv, "--threshold", value) == 2
    assert capsys.readouterr().err == (
        f"charentropy: error: --threshold must lie in {interval}\n")
    assert sorted(workspace.iterdir()) == before  # no artifact, no manifest


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["translit", "p.tsv", "--simplify", "--out", "o.tsv"],
    ["batch", "page.txt", "--meta", "meta.tsv", "--out", "o.tsv"],
], ids=["translit", "batch"])
def test_rare_min_below_one_is_data_error(workspace, capsys, argv, value):
    # A cutoff below 1 would silently make no character rare.
    run("ingest", "plain.txt", "--out", "p.tsv")
    capsys.readouterr()
    before = sorted(workspace.iterdir())
    assert run(*argv, "--rare-min", value) == 2
    assert capsys.readouterr().err == (
        f"charentropy: error: --rare-min must be at least 1, got {value}\n")
    assert sorted(workspace.iterdir()) == before


@pytest.mark.parametrize("flags, message", [
    (["--windows", "5", "--n", "0"], "--n must be at least 1, got 0"),
    (["--windows", "5", "--seed", "-1"],
     "--seed must lie in [0, 2**64), got -1"),
    (["--windows", "5", "--seed", str(2 ** 64)],
     f"--seed must lie in [0, 2**64), got {2 ** 64}"),
    (["--windows=-5,10"], "--windows must be at least 1, got -5"),
    (["--windows", "5,0"], "--windows must be at least 1, got 0"),
], ids=["n", "seed-negative", "seed-too-large", "windows-negative",
        "windows-zero"])
def test_sample_flags_are_checked_before_the_input_is_read(
        workspace, capsys, flags, message):
    # The input does not exist: the flag is reported, not the file.
    before = sorted(workspace.iterdir())
    assert run("sample", "missing.tsv", *flags, "--out", "s.json") == 2
    assert capsys.readouterr().err == f"charentropy: error: {message}\n"
    assert sorted(workspace.iterdir()) == before


@pytest.mark.parametrize("windows", ["5,,7", ",5", "5,", "", "fifty"])
def test_sample_windows_with_an_empty_or_bad_item_is_usage_error(
        workspace, capsys, windows):
    # No item is dropped: "5,,7" is not windows 5 and 7.
    run("ingest", "plain.txt", "--out", "p.tsv")
    capsys.readouterr()
    assert run("sample", "p.tsv", "--windows", windows,
               "--out", "s.json") == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --windows: windows must be comma-separated "
        f"integers, got {windows!r}\n")
    assert not (workspace / "s.json").exists()



@pytest.mark.parametrize("value", ["1_0", "\u0663", " 7", "+4", "7 "])
@pytest.mark.parametrize("argv, message", [
    (["sample", "p.tsv", "--windows", "{value}"],
     "windows must be comma-separated integers, got {value!r}"),
    (["sample", "p.tsv", "--windows", "2", "--n", "{value}"],
     "invalid int value: {value!r}"),
    (["sample", "p.tsv", "--windows", "2", "--seed", "{value}"],
     "invalid int value: {value!r}"),
    (["translit", "p.tsv", "--simplify", "--rare-min", "{value}"],
     "invalid int value: {value!r}"),
    (["batch", "page.txt", "--meta", "meta.tsv", "--rare-min", "{value}"],
     "invalid int value: {value!r}"),
], ids=["windows", "n", "seed", "translit-rare-min", "batch-rare-min"])
def test_integer_flags_take_only_ascii_digits(workspace, capsys, argv,
                                              message, value):
    # int() reads each of these values as a number.
    run("ingest", "plain.txt", "--out", "p.tsv")
    capsys.readouterr()
    before = sorted(workspace.iterdir())
    assert run(*(a.format(value=value) for a in argv), "--out", "o") == 1
    assert capsys.readouterr().err.endswith(
        f"error: argument {argv[-2]}: {message.format(value=value)}\n")
    assert sorted(workspace.iterdir()) == before


@pytest.mark.parametrize("value", [
    "1_0e-4", "\u0660.\u0660\u0660\u0661", " 0.001 ", "+0.001", " 0.5",
    "\u0660.\u0665"], ids=["underscore", "arabic-indic-digits", "spaces",
                            "plus", "leading-space", "arabic-indic-half"])
@pytest.mark.parametrize("argv", [_CLEANSE, _BIGRAMS],
                         ids=["cleanse", "bigrams"])
def test_decimal_flags_take_only_plain_ascii_decimals(workspace, capsys,
                                                      argv, value):
    # float() reads each of these values as a number.
    run("ingest", "plain.txt", "--out", "p.tsv")
    capsys.readouterr()
    before = sorted(workspace.iterdir())
    assert run(*argv, "--threshold", value) == 1
    assert capsys.readouterr().err.endswith(
        f"error: argument --threshold: invalid decimal value: {value!r}\n")
    assert sorted(workspace.iterdir()) == before


def test_cleanse_threshold_minus_zero_is_recorded_as_zero(workspace):
    # One behaviour, one manifest: -0.0 and 0 cleanse alike.
    run("ingest", "plain.txt", "--out", "p.tsv")
    for value, out in (("-0.0", "neg.tsv"), ("0", "pos.tsv")):
        assert run("cleanse", "p.tsv", "--threshold", value,
                   "--out", out) == 0
    neg, pos = ((workspace / f"{out}.manifest.json").read_text(
        encoding="utf-8") for out in ("neg.tsv", "pos.tsv"))
    assert '"rare_char_threshold": 0.0,' in neg
    assert neg.replace("neg.tsv", "pos.tsv") == pos


@pytest.mark.parametrize("value", [
    "1_0e-5", "+0.001", "\u0660.\u0660\u0660\u0661"],
    ids=["underscore", "plus", "arabic-indic-digits"])
def test_config_threshold_takes_only_plain_ascii_decimals(workspace, capsys,
                                                          value):
    run("ingest", "plain.txt", "--out", "p.tsv")
    (workspace / "bad.cfg").write_text(
        f"lowercase = true\nrare_char_threshold = {value}\n",
        encoding="utf-8")
    capsys.readouterr()
    before = sorted(workspace.iterdir())
    assert run("cleanse", "p.tsv", "--config", "bad.cfg",
               "--out", "o.tsv") == 2
    assert capsys.readouterr().err == (
        f"charentropy: error: bad.cfg: line 2: bad threshold {value!r}\n")
    assert sorted(workspace.iterdir()) == before

def test_sample_json_and_csv(workspace):
    run("ingest", "plain.txt", "--out", "p.tsv")
    assert run("sample", "p.tsv", "--windows", "2,5", "--n", "6",
               "--seed", "11", "--values", "--out", "s.json") == 0
    doc = json.loads((workspace / "s.json").read_text(encoding="utf-8"))
    assert [d["window"] for d in doc["distributions"]] == [2, 5]
    assert len(doc["distributions"][0]["values"]) == 6
    assert doc["seed"] == 11

    assert run("sample", "p.tsv", "--windows", "2", "--n", "3",
               "--format", "csv", "--out", "s.csv") == 0
    lines = (workspace / "s.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "window,sample_index,h2"
    assert len(lines) == 4


def test_sample_oversized_window_is_data_error(workspace, capsys):
    run("ingest", "plain.txt", "--out", "p.tsv")
    assert run("sample", "p.tsv", "--windows", "500") == 2
    assert "500" in capsys.readouterr().err


def test_sukhotin_json(workspace):
    run("ingest", "plain.txt", "--out", "p.tsv")
    assert run("sukhotin", "p.tsv", "--diagnostics", "--out", "v.json") == 0
    doc = json.loads((workspace / "v.json").read_text(encoding="utf-8"))
    assert doc["include_space"] is False
    assert "iterations" in doc and "final_sums" in doc
    assert doc["vowels"]


def test_batch_default_grid(workspace):
    assert run("batch", "page.txt", "--meta", "meta.tsv",
               "--transcriber", "H", "--out", "table.tsv") == 0
    lines = (workspace / "table.tsv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == "doc\ttranscription\tcharset\th2\twords\tword_types"
    rows = [line.split("\t") for line in lines[1:]]
    # fixture is all language A hand 1: b/hand2..5 selections are empty
    docs = {r[0] for r in rows}
    assert docs == {"full", "full_text", "a", "a_text", "hand1",
                    "hand1_text"}
    assert all(r[1] in {"maximal", "simplified", "minimal"} for r in rows)
    assert len(rows) == 18
    full_max = next(r for r in rows if r[:2] == ["full", "maximal"])
    assert int(full_max[4]) == 10


def test_batch_has_no_source_id(workspace, capsys):
    # batch writes no table, so a document id would go nowhere
    assert run("batch", "page.txt", "--meta", "meta.tsv", "--source-id",
               "x", "--out", "grid.tsv") == 1
    assert "unrecognized arguments: --source-id x" in capsys.readouterr().err
    assert not (workspace / "grid.tsv").exists()


def test_batch_jobs_file(workspace):
    jobs = workspace / "jobs.tsv"
    jobs.write_text("everything\tfull\tnone\nmine\ta_text\tmaximal\n",
                    encoding="utf-8")
    assert run("batch", "page.txt", "--meta", "meta.tsv",
               "--transcriber", "H", "--jobs", str(jobs),
               "--out", "table.tsv") == 0
    rows = [line.split("\t") for line in (workspace / "table.tsv").read_text(
        encoding="utf-8").splitlines()[1:]]
    assert [r[0] for r in rows] == ["everything", "mine"]
    assert rows[0][1] == "none"

    jobs.write_text("x\tnot-a-selection\tnone\n", encoding="utf-8")
    assert run("batch", "page.txt", "--meta", "meta.tsv",
               "--jobs", str(jobs)) == 2


# Two languages and two hands. ``g`` occurs twice in language A (once in
# a label) and four times in B: rare inside ``a`` at --rare-min 3, not
# across ``full``.
INTERLINEAR_AB = """# two-language fixture
<f1r.P1.1;H> shedy.qokeedy.daiin.gar
<f1r.P1.2;H> chol,dy.qokal.Cheey
<f1r.L1.1;H> otol.ga
<f2r.P1.1;H> gedy.gag.shol.qotedy
<f2r.P1.2;H> chedy.qokain.dag.sheol
<f2r.P1.2;C> chedy.qokain.dag.sheor
"""

META_AB = "f1r\therbal\tA\t1\tA\nf2r\tbio\tB\t2\tB\n"


def _stats_row(*steps):
    """Run the separate-command pipeline ``steps`` (each an argv that
    reads ``{src}`` and writes ``{out}``) and return the stats numbers in
    batch's column order."""
    src = None
    for i, step in enumerate(steps):
        out = f"step{i}.tsv"
        argv = [a.format(src=src, out=out) for a in step]
        assert run(*argv) == 0, argv
        src = out
    assert run("stats", src, "--out", "step.json") == 0
    doc = json.loads(Path("step.json").read_text(encoding="utf-8"))
    e = doc["entropy"]
    return [str(e["charset_size"]), e["h2"], str(e["word_token_count"]),
            str(e["word_type_count"])]


def test_batch_rows_match_the_separate_command_pipeline(workspace):
    (workspace / "ab.txt").write_text(INTERLINEAR_AB, encoding="utf-8")
    (workspace / "ab.tsv").write_text(META_AB, encoding="utf-8")
    selections = ("full", "full_text", "a", "a_text", "b", "hand1",
                  "hand2_text")
    systems = ("maximal", "simplified", "minimal", "none")
    (workspace / "jobs.tsv").write_text("".join(
        f"{sel}\t{sel}\t{system}\n"
        for sel in selections for system in systems), encoding="utf-8")
    assert run("batch", "ab.txt", "--meta", "ab.tsv", "--transcriber", "H",
               "--jobs", "jobs.tsv", "--rare-min", "3",
               "--out", "grid.tsv") == 0
    rows = [line.split("\t") for line in (workspace / "grid.tsv").read_text(
        encoding="utf-8").splitlines()[1:]]
    assert [r[:2] for r in rows] == [
        [sel, system] for sel in selections for system in systems]

    for doc, system, *numbers in rows:
        steps = [["ingest", "ab.txt", "--meta", "ab.tsv", "--transcriber",
                  "H", "--select", doc, "--out", "{out}"]]
        if system != "none":
            steps.append(["translit", "{src}", "--system", "maximal",
                          "--out", "{out}"])
        if system == "simplified":
            steps.append(["translit", "{src}", "--simplify", "--rare-min",
                          "3", "--out", "{out}"])
        elif system == "minimal":
            steps.append(["translit", "{src}", "--system", "minimal",
                          "--out", "{out}"])
        numbers[1] = float(numbers[1])
        assert numbers == _stats_row(*steps), (doc, system)

    # The fixture tells per-selection rarity from whole-document rarity:
    # ``g`` is masked in a's simplified text and kept in full's.
    simplified = {r[0]: int(r[2]) for r in rows if r[1] == "simplified"}
    maximal = {r[0]: int(r[2]) for r in rows if r[1] == "maximal"}
    assert simplified["a"] < maximal["a"]


# Common glyphs and digraphs the rule tables rewrite (sh, ch, in, ee, qo),
# ligature capitals, rare glyphs, x (never masked) and the * mask itself.
_GLYPHS = st.sampled_from(
    ["o", "e", "d", "y", "a", "l", "k", "sh", "ch", "in", "iin", "ee", "qo",
     "C", "S", "K", "g", "v", "z", "x", "*"])
_WORDS = st.lists(_GLYPHS, min_size=1, max_size=5).map("".join)
_FOLIOS = ("f1r", "f1v", "f2r", "f2v")


@st.composite
def batch_inputs(draw):
    """(interlinear page, folio map, jobs, --rare-min) with two languages,
    two hands and two transcribers."""
    meta = "".join(
        f"{folio}\therbal\t{draw(st.sampled_from('AB'))}\t"
        f"{draw(st.sampled_from('12'))}\tA\n" for folio in _FOLIOS)
    lines = draw(st.lists(st.tuples(
        st.sampled_from(_FOLIOS), st.sampled_from(["P1", "P2", "L1"]),
        st.sampled_from("HHC"), st.lists(_WORDS, max_size=6)),
        max_size=14))
    page = "".join(f"<{folio}.{locus}.{n};{who}> {'.'.join(words)}\n"
                   for n, (folio, locus, who, words) in enumerate(lines, 1))
    jobs = draw(st.lists(st.tuples(
        st.sampled_from(sorted(CANONICAL_SELECTIONS)),
        st.sampled_from(BATCH_SYSTEMS)), min_size=1, max_size=10))
    # hand5 is never on the page, so this job is always skipped.
    jobs += [("hand5", draw(st.sampled_from(BATCH_SYSTEMS))),
             ("full", "none")]
    jobs = [(f"doc{i}", selection, system)
            for i, (selection, system) in enumerate(jobs)]
    return page, meta, jobs, draw(st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(batch_inputs())
# No line is transcriber H's, so every job is skipped.
@example(("<f1r.P1.1;C> shedy.qokeedy\n<f1v.L1.1;C> gar\n",
          "f1r\therbal\tA\t1\tA\nf1v\therbal\tB\t2\tB\n",
          [(f"doc{i}", selection, system) for i, (selection, system) in
           enumerate([("full", "none"), ("a", "simplified"),
                      ("b_text", "maximal"), ("hand1", "minimal")])], 3))
# At --rare-min 3, ``g`` and ``o`` are rare within a_text, where they merge
# into the mask, and neither is rare within full.
@example(("<f1r.P1.1;H> dar.dar.gar.dag.dor\n<f1r.L1.1;H> ga\n"
          "<f2r.P1.1;H> gag.dog.god\n",
          "f1r\therbal\tA\t1\tA\nf2r\therbal\tB\t2\tB\n",
          [("doc0", "a_text", "simplified"), ("doc1", "full", "simplified"),
           ("doc2", "a_text", "maximal")], 3))
def test_batch_equals_the_per_job_oracle(inputs):
    page, meta, jobs, rare_min = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "page.txt").write_text(page, encoding="utf-8")
        (tmp / "meta.tsv").write_text(meta, encoding="utf-8")
        (tmp / "jobs.tsv").write_text(
            "".join("\t".join(job) + "\n" for job in jobs), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["batch", str(tmp / "page.txt"), "--meta",
                         str(tmp / "meta.tsv"), "--transcriber", "H",
                         "--jobs", str(tmp / "jobs.tsv"), "--rare-min",
                         str(rare_min), "--out", str(tmp / "out.tsv")]) == 0
        table = parse_interlinear(
            page.encode("utf-8"), FolioMetadataMap.from_tsv(meta), "H",
            source_id="page.txt")
        want, warnings = oracles.batch_rows_oracle(table, jobs, rare_min)
        assert (tmp / "out.tsv").read_text(encoding="utf-8") == want
        assert err.getvalue() == warnings


# Every subcommand, reading the fuzzed file as its main input.
_FUZZ_COMMANDS = (
    ["ingest", "{dir}/in", "--out", "{dir}/o.tsv"],
    ["ingest", "{dir}/in", "--kind", "interlinear", "--allow-missing-meta",
     "--select", "a_text", "--out", "{dir}/o.tsv"],
    ["translit", "{dir}/in", "--system", "maximal", "--out", "{dir}/o.tsv"],
    ["translit", "{dir}/in", "--system", "minimal", "--out", "{dir}/o.tsv"],
    ["translit", "{dir}/in", "--simplify", "--rare-min", "2",
     "--out", "{dir}/o.tsv"],
    ["cleanse", "{dir}/in", "--out", "{dir}/o.tsv"],
    ["stats", "{dir}/in", "--out", "{dir}/o.json"],
    ["bigrams", "{dir}/in", "--out-prefix", "{dir}/o"],
    ["sample", "{dir}/in", "--windows", "1,2", "--n", "3",
     "--out", "{dir}/o.json"],
    ["sukhotin", "{dir}/in", "--include-space", "--diagnostics",
     "--out", "{dir}/o.json"],
    ["batch", "{dir}/in", "--meta", "{dir}/meta.tsv", "--transcriber", "H",
     "--rare-min", "2", "--out", "{dir}/o.tsv"],
    ["batch", "{dir}/in", "--allow-missing-meta", "--comma-breaks",
     "--out", "{dir}/o.tsv"],
    # The fuzzed file as an option file, next to a valid main input.
    ["translit", "{dir}/t.tsv", "--rules", "{dir}/in", "--out", "{dir}/o.tsv"],
    ["cleanse", "{dir}/t.tsv", "--config", "{dir}/in", "--out", "{dir}/o.tsv"],
    ["ingest", "{dir}/page.txt", "--meta", "{dir}/in", "--out", "{dir}/o.tsv"],
    ["batch", "{dir}/page.txt", "--meta", "{dir}/meta.tsv", "--jobs",
     "{dir}/in", "--out", "{dir}/o.tsv"],
)


# Reserved, bracketing, separating and odd characters.
_JUNK = ["{", "}", "{a}", ",", ".", "#", "<", ">", ";", " ", "\t", "\n",
         "\r", "\ufeff", "\x85", "\u2028", "é", "0", "-1"]


@st.composite
def near_valid_pages(draw):
    """An interlinear page with reserved and odd characters inserted."""
    page = draw(batch_inputs())[0]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(page)))
        junk = draw(st.sampled_from(_JUNK))
        page = page[:at] + junk + page[at:]
    return page


@settings(max_examples=300, deadline=None, derandomize=True)
@example(payload="da{#}r.q#o,dy{x", comma_breaks=False)
@example(payload="d{x}#a,r.q#o", comma_breaks=True)
@given(payload=st.lists(st.one_of(_GLYPHS, st.sampled_from(_JUNK)),
                        max_size=12).map("".join),
       comma_breaks=st.booleans())
def test_the_payload_check_equals_the_per_word_check(payload, comma_breaks):
    def split(splitter):  # the words, or the ParseError's message
        try:
            return tuple(splitter(payload, comma_breaks, 3))
        except ParseError as exc:
            return str(exc)

    assert (split(ingest._split_payload)
            == split(oracles.split_payload_oracle))


_FIELDS = st.sampled_from(
    ["", " ", "d", "ga", "x", "#", "A", "1", "f1r", "full", "none",
     "lowercase", "true", "2", "U+0061..U+007A", "#! alphabet: d"])


@st.composite
def near_valid_option_files(draw):
    """Lines of one to five fields, split by tabs or ``=``: near the shape
    of a rule, config, folio map or jobs file."""
    lines = draw(st.lists(st.tuples(
        st.lists(_FIELDS, min_size=1, max_size=5),
        st.sampled_from(["\t", "\t", " = "])), min_size=1, max_size=4))
    return "".join(sep.join(fields) + "\n" for fields, sep in lines)


@settings(max_examples=60, deadline=None, derandomize=True)
# Rule files whose rewrites erase a word or put whitespace into one, which
# the strategy reaches only rarely.
@example(b" \td\nga\t\n")
@example(b"d\t \n")
@given(st.one_of(st.binary(max_size=200),
                 tsv_texts().map(str.encode),
                 near_valid_pages().map(str.encode),
                 near_valid_option_files().map(str.encode)))
def test_every_subcommand_survives_fuzzed_input(raw):
    with _fuzz_workspace() as tmp:
        (tmp / "in").write_bytes(raw)
        for argv in _FUZZ_COMMANDS:
            argv = [a.format(dir=tmp) for a in argv]
            code, err = _run_fuzzed(argv)
            assert code in (0, 2), (argv, err)
            # The other inputs are valid, so an error is about the main one.
            if code == 2 and argv[1] == f"{tmp}/in":
                assert err.startswith(f"charentropy: error: {tmp}/in: "), err


@contextlib.contextmanager
def _fuzz_workspace():
    """A temporary directory holding ``page.txt``, its folio map
    ``meta.tsv`` and its long table ``t.tsv``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "meta.tsv").write_text(
            "".join(f"{folio}\therbal\tA\t1\tA\n" for folio in _FOLIOS),
            encoding="utf-8")
        (tmp / "page.txt").write_text(INTERLINEAR_AB, encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["ingest", str(tmp / "page.txt"), "--meta",
                         str(tmp / "meta.tsv"), "--out",
                         str(tmp / "t.tsv")]) == 0
        yield tmp


def _run_fuzzed(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and standard error; a data error must be
    reported as one."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code == 2:
        assert err.getvalue().startswith("charentropy: error: "), argv
    return code, err.getvalue()


# Flag values: arbitrary short text, small and odd numbers and, where a
# large number cannot make a long run, any integer or float.
_SMALL_VALUES = st.one_of(
    st.text(max_size=3), st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "-0.1", "1_0", "\u0661", "0x1",
                     "2,", ",", "3,-1", "1,99"]))
_VALUES = st.one_of(_SMALL_VALUES, st.integers().map(str),
                    st.floats().map(str),
                    st.sampled_from(["18446744073709551616", "1e-300"]))

# Each command that takes a number, with a drawn value in place of {value}.
_FLAG_COMMANDS = (
    (["bigrams", "{dir}/t.tsv", "--threshold", "{value}",
      "--out-prefix", "{dir}/o"], _VALUES),
    (["cleanse", "{dir}/t.tsv", "--threshold", "{value}",
      "--out", "{dir}/o.tsv"], _VALUES),
    (["translit", "{dir}/t.tsv", "--simplify", "--rare-min", "{value}",
      "--out", "{dir}/o.tsv"], _VALUES),
    (["batch", "{dir}/page.txt", "--meta", "{dir}/meta.tsv", "--rare-min",
      "{value}", "--out", "{dir}/o.tsv"], _VALUES),
    # A window larger than the text is an error, so any window is quick.
    (["sample", "{dir}/t.tsv", "--windows", "{value}", "--n", "2",
      "--out", "{dir}/o.json"], _VALUES),
    (["sample", "{dir}/t.tsv", "--windows", "1,3", "--n", "{value}",
      "--out", "{dir}/o.json"], _SMALL_VALUES),
    (["sample", "{dir}/t.tsv", "--windows", "2", "--n", "2", "--seed",
      "{value}", "--out", "{dir}/o.json"], _VALUES),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@example((_FLAG_COMMANDS[0][0], "2"))
@given(st.one_of([st.tuples(st.just(argv), values)
                  for argv, values in _FLAG_COMMANDS]))
def test_every_numeric_flag_survives_fuzzed_values(case):
    argv, value = case
    with _fuzz_workspace() as tmp:
        argv = [a.format(dir=tmp, value=value) for a in argv]
        code, err = _run_fuzzed(argv)
        assert code in (0, 1, 2), (argv, err)


@pytest.mark.parametrize("argv, name, good", [
    (["stats", "{name}"], "bad.tsv", None),
    (["batch", "page.txt", "--meta", "meta.tsv", "--jobs", "{name}"],
     "bad.jobs", b"everything\tfull\tnone\n"),
    (["cleanse", "p.tsv", "--config", "{name}"], "bad.cfg",
     b"lowercase = false\n"),
    (["translit", "p.tsv", "--rules", "{name}"], "bad.rules", b"d\tD\n"),
    (["batch", "page.txt", "--meta", "{name}"], "bad_meta.tsv",
     META.encode("utf-8")),
], ids=["tsv", "jobs", "config", "rules", "meta"])
def test_bad_utf8_in_any_input_is_data_error(workspace, capsys, argv, name,
                                             good):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    if good is None:
        good = (workspace / "p.tsv").read_bytes()
    offset = len(good) // 2
    (workspace / name).write_bytes(good[:offset] + b"\xff" + good[offset:])
    capsys.readouterr()
    assert run(*(a.format(name=name) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err == (f"charentropy: error: {name}: input is not valid UTF-8 "
                   f"(byte offset {offset})\n"), err


@pytest.mark.parametrize("text", [
    "U+-1..U+04FF", "0x400..0x4FF", "U+04_00..U+04FF", "U+110000..U+110001",
    "U+\u0664" "00..U+4FF"], ids=["sign", "0x", "underscore", "past-10FFFF",
                                "arabic-indic-digit"])
def test_script_range_takes_only_ascii_hex_up_to_10ffff(workspace, capsys,
                                                        text):
    # int(x, 16) reads each of these as a codepoint.
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    (workspace / "bad.cfg").write_text(f"script_ranges = {text}\n",
                                       encoding="utf-8")
    capsys.readouterr()
    before = sorted(workspace.iterdir())
    bound = text.split("..")[0]
    message = f"bad codepoint {bound!r} in script range {text!r}\n"
    assert run("cleanse", "p.tsv", "--script-range", text,
               "--out", "o.tsv") == 2
    assert capsys.readouterr().err == f"charentropy: error: {message}"
    assert run("cleanse", "p.tsv", "--config", "bad.cfg",
               "--out", "o.tsv") == 2
    assert capsys.readouterr().err == (
        f"charentropy: error: bad.cfg: line 1: {message}")
    assert sorted(workspace.iterdir()) == before


@pytest.mark.parametrize("out, reason", [
    ("nodir/x.json", "[Errno 2] No such file or directory"),
    ("p.tsv/x.json", "[Errno 20] Not a directory"),
], ids=["missing-directory", "through-a-file"])
def test_an_unwritable_out_is_named_as_given(workspace, capsys, out, reason):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    capsys.readouterr()
    before = sorted(workspace.iterdir())
    assert run("stats", "p.tsv", "--out", out) == 2
    assert capsys.readouterr().err == (
        f"charentropy: error: {reason}: {out!r}\n")
    assert sorted(workspace.iterdir()) == before


def _files(workspace):
    """Every name in ``workspace``, with a file's bytes."""
    return {p.name: p.read_bytes() if p.is_file() else None
            for p in workspace.iterdir()}


_BIGRAM_FILES = ("bg_conditional.csv", "bg_weighted.csv", "bg_entropy.csv",
                 "bg_coverage.json")

# Each command, reading the ingested ``t.tsv`` or the page itself.
_EVERY_COMMAND = {
    "ingest": ["ingest", "page.txt", "--meta", "meta.tsv", "--out", "o.tsv"],
    "translit": ["translit", "t.tsv", "--system", "maximal", "--out", "o.tsv"],
    "cleanse": ["cleanse", "t.tsv", "--out", "o.tsv"],
    "stats": ["stats", "t.tsv", "--out", "o.json"],
    "bigrams": ["bigrams", "t.tsv", "--out-prefix", "bg"],
    "sample": ["sample", "t.tsv", "--windows", "2", "--n", "3",
               "--out", "o.json"],
    "sukhotin": ["sukhotin", "t.tsv", "--out", "o.json"],
    "batch": ["batch", "page.txt", "--meta", "meta.tsv", "--out", "o.tsv"],
}


@pytest.mark.parametrize("argv", _EVERY_COMMAND.values(), ids=_EVERY_COMMAND)
def test_a_manifest_that_cannot_be_written_changes_no_file(workspace, capsys,
                                                           argv):
    # The outputs of an earlier run stay, not this run's beside no manifest.
    assert run("ingest", "page.txt", "--meta", "meta.tsv",
               "--out", "t.tsv") == 0
    for name in ("o.tsv", "o.json", *_BIGRAM_FILES):
        (workspace / name).write_bytes(b"earlier output\n")
    (workspace / "mdir").mkdir()
    before = _files(workspace)
    capsys.readouterr()
    assert run(*argv, "--manifest", "mdir") == 2
    # batch warns of the default grid's empty selections first.
    assert capsys.readouterr().err.endswith(
        "charentropy: error: [Errno 21] Is a directory: 'mdir'\n")
    assert _files(workspace) == before  # no temporary either


@pytest.mark.parametrize("name", _BIGRAM_FILES)
def test_bigrams_with_a_target_that_is_a_directory_changes_no_file(
        workspace, capsys, name):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    assert run("ingest", "page.txt", "--meta", "meta.tsv",
               "--out", "t.tsv") == 0
    assert run("bigrams", "p.tsv", "--out-prefix", "bg") == 0
    (workspace / name).unlink()
    (workspace / name).mkdir()
    before = _files(workspace)
    capsys.readouterr()
    assert run("bigrams", "t.tsv", "--out-prefix", "bg",
               "--threshold", "0.9") == 2
    assert capsys.readouterr().err == (
        f"charentropy: error: [Errno 21] Is a directory: '{name}'\n")
    assert _files(workspace) == before


def test_a_failed_rename_leaves_no_manifest_and_no_temporary(
        workspace, capsys, monkeypatch):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    assert run("bigrams", "p.tsv", "--out-prefix", "bg") == 0
    real, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.EIO, os.strerror(errno.EIO), src)
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    capsys.readouterr()
    assert run("bigrams", "p.tsv", "--out-prefix", "bg",
               "--threshold", "0.9") == 2
    assert capsys.readouterr().err == (
        "charentropy: error: [Errno 5] Input/output error: "
        "'bg_weighted.csv'\n")
    # New outputs may stand without a manifest, never beside a stale one.
    assert not (workspace / "bg.manifest.json").exists()
    assert not [p for p in workspace.iterdir() if p.name.endswith(".tmp")]


def test_a_target_that_turns_into_a_directory_keeps_the_old_manifest(
        workspace, capsys, monkeypatch):
    # Every target is checked before the old manifest is removed.
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    assert run("stats", "p.tsv", "--out", "o.json") == 0
    real = cli.json_dumps

    def dumps(obj):  # the manifest's, after the output is staged
        (workspace / "o.json").unlink()
        (workspace / "o.json").mkdir()
        return real(obj)

    monkeypatch.setattr(cli, "json_dumps", dumps)
    before = {**_files(workspace), "o.json": None}
    capsys.readouterr()
    assert run("stats", "p.tsv", "--out", "o.json") == 2
    assert capsys.readouterr().err == (
        "charentropy: error: [Errno 21] Is a directory: 'o.json'\n")
    assert _files(workspace) == before


@pytest.mark.parametrize("argv, manifest", [
    (["stats", "p.tsv", "--out", "x.json"], "x.json"),
    (["bigrams", "p.tsv", "--out-prefix", "q"], "q_coverage.json"),
    (["bigrams", "p.tsv", "--out-prefix", "q"], "./q_weighted.csv"),
], ids=["stats", "bigrams", "bigrams-by-realpath"])
def test_a_manifest_that_names_an_output_is_config_error(
        workspace, capsys, argv, manifest):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    (workspace / "x.json").write_bytes(b"earlier output\n")
    (workspace / "q_coverage.json").write_bytes(b"earlier output\n")
    before = _files(workspace)
    capsys.readouterr()
    assert run(*argv, "--manifest", manifest) == 2
    assert capsys.readouterr().err == (
        f"charentropy: error: --manifest {manifest!r} is an output of this "
        f"run\n")
    assert _files(workspace) == before


@pytest.mark.parametrize("argv, message", [
    (["stats", "p.tsv", "--out", "s.json", "--manifest", "p.tsv"],
     "--manifest 'p.tsv' is an input of this run"),
    (["ingest", "page.txt", "--meta", "meta.tsv", "--out", "t.tsv",
      "--manifest", "./meta.tsv"],
     "--manifest './meta.tsv' is an input of this run"),
    (["stats", "x.manifest.json", "--out", "x"],
     "manifest 'x.manifest.json' is an input of this run"),
], ids=["stats", "secondary-by-realpath", "default-path"])
def test_a_manifest_that_names_an_input_is_config_error(
        workspace, capsys, argv, message):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    (workspace / "x.manifest.json").write_bytes(
        (workspace / "p.tsv").read_bytes())
    before = _files(workspace)
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"charentropy: error: {message}\n"
    assert _files(workspace) == before


def test_standard_output_without_a_byte_buffer_gets_the_text(workspace):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    assert run("stats", "p.tsv", "--out", "s.json") == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run("stats", "p.tsv") == 0
    assert out.getvalue() == (workspace / "s.json").read_text(encoding="utf-8")


def test_no_command_builds_a_table_a_word_record_or_a_stream(workspace,
                                                            monkeypatch):
    def refusing(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"a command built a {name}")
        return refuse

    monkeypatch.setattr(ingest.LongTable, "__init__", refusing("LongTable"))
    monkeypatch.setattr(ingest.LongTable, "_from_columns",
                        refusing("LongTable"))
    monkeypatch.setattr(ingest.WordRecord, "__init__", refusing("WordRecord"))
    monkeypatch.setattr(metrics.CharStream, "__init__", refusing("CharStream"))
    page = ["page.txt", "--meta", "meta.tsv"]
    for argv in (["ingest", "plain.txt", "--out", "p.tsv"],
                 ["ingest", "plain.txt", "--select", "full_text"],
                 ["ingest", *page, "--out", "t.tsv"],
                 ["ingest", *page, "--select", "a_text", "--out", "a.tsv"],
                 ["translit", "t.tsv", "--system", "maximal",
                  "--out", "m.tsv"],
                 ["cleanse", "p.tsv", "--out", "c.tsv"],
                 ["stats", "m.tsv", "--out", "s.json"],
                 ["bigrams", "m.tsv", "--out-prefix", "bg"],
                 ["sukhotin", "m.tsv", "--out", "v.json"],
                 ["sample", "m.tsv", "--windows", "2", "--n", "3",
                  "--out", "w.json"],
                 ["batch", *page, "--out", "b.tsv"]):
        assert run(*argv) == 0, argv


def test_standard_output_is_utf8_whatever_the_locale(workspace):
    (workspace / "u.txt").write_text("naïve café\n\nüber\n", encoding="utf-8")
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    src = str(Path(charentropy.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    assert run("ingest", "u.txt", "--out", "u.tsv") == 0
    out = subprocess.run([sys.executable, "-m", "charentropy", "ingest",
                          "u.txt"], capture_output=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (workspace / "u.tsv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root may write in any directory")
def test_out_in_a_read_only_directory_is_named_as_given(workspace, capsys):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    (workspace / "locked").mkdir()
    (workspace / "locked").chmod(0o500)
    capsys.readouterr()
    try:
        assert run("stats", "p.tsv", "--out", "locked/x.json") == 2
        assert capsys.readouterr().err == (
            "charentropy: error: [Errno 13] Permission denied: "
            "'locked/x.json'\n")
        assert list((workspace / "locked").iterdir()) == []
    finally:
        (workspace / "locked").chmod(0o700)


_ROW = "\t".join(TSV_COLUMNS) + "\nqo\t1\t1\n"
_ROW_ERROR = "line 2: expected 15 columns, got 3"


@pytest.mark.parametrize("argv, name, text, message", [
    pytest.param(["translit", "{name}", "--system", "maximal"], "bad.tsv",
                 _ROW, _ROW_ERROR, id="tsv-translit"),
    pytest.param(["cleanse", "{name}"], "bad.tsv", _ROW, _ROW_ERROR,
                 id="tsv-cleanse"),
    pytest.param(["stats", "{name}"], "bad.tsv", "not\ta\ttable\n",
                 "line 1: unexpected long-table header ('not', 'a', 'table')",
                 id="tsv-stats"),
    pytest.param(["bigrams", "{name}"], "bad.tsv", _ROW, _ROW_ERROR,
                 id="tsv-bigrams"),
    pytest.param(["sample", "{name}", "--windows", "2"], "bad.tsv", _ROW,
                 _ROW_ERROR, id="tsv-sample"),
    pytest.param(["sukhotin", "{name}"], "bad.tsv", _ROW, _ROW_ERROR,
                 id="tsv-sukhotin"),
    pytest.param(
        ["batch", "page.txt", "--meta", "meta.tsv", "--jobs", "{name}"],
        "bad.jobs", "everything\tfull\n",
        "line 1: expected doc<TAB>selection<TAB>system", id="jobs"),
    pytest.param(["cleanse", "p.tsv", "--config", "{name}"], "bad.cfg",
                 "lowercase = maybe\n",
                 "line 1: lowercase must be true/false", id="config"),
    pytest.param(["translit", "p.tsv", "--rules", "{name}"], "bad.rules",
                 "d\n", "line 1: expected 'pattern<TAB>replacement', got 'd'",
                 id="rules"),
    pytest.param(
        ["batch", "page.txt", "--meta", "{name}"], "bad_meta.tsv",
        "f1r\therbal\tA\n",
        "line 1: folio metadata row needs 5 tab-separated fields, got 3",
        id="meta"),
])
def test_syntax_error_in_an_option_file_names_the_file(
        workspace, capsys, argv, name, text, message):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    (workspace / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(*(a.format(name=name) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err == f"charentropy: error: {name}: {message}\n", err


def test_every_input_is_read_with_a_bom_stripped(workspace):
    assert run("ingest", "plain.txt", "--out", "p.tsv") == 0
    bom = b"\xef\xbb\xbf"
    (workspace / "bom.tsv").write_bytes(bom + (workspace / "p.tsv").read_bytes())
    (workspace / "bom.cfg").write_bytes(bom + b"lowercase = false\n")
    (workspace / "bom.rules").write_bytes(bom + b"T\tD\n")
    (workspace / "bom_meta.tsv").write_bytes(bom + META.encode("utf-8"))
    (workspace / "bom.jobs").write_bytes(bom + b"x\tfull\tnone\n")
    assert run("stats", "bom.tsv", "--out", "s.json") == 0
    assert run("cleanse", "bom.tsv", "--config", "bom.cfg",
               "--out", "c.tsv") == 0
    assert read_tsv((workspace / "c.tsv").read_text(
        encoding="utf-8")).words()[0] == "The"
    assert run("translit", "p.tsv", "--rules", "bom.rules",
               "--out", "r.tsv") == 0
    assert read_tsv((workspace / "r.tsv").read_text(
        encoding="utf-8")).words()[0] == "Dhe"
    assert run("batch", "page.txt", "--meta", "bom_meta.tsv",
               "--jobs", "bom.jobs", "--out", "g.tsv") == 0
    rows = (workspace / "g.tsv").read_text(encoding="utf-8").splitlines()
    assert rows[1].startswith("x\tnone\t")


def wrap_points() -> tuple[tuple[str, str, str], ...]:
    """The benchmark tracer's ``(span, module, attribute)`` wrap points,
    read from its source, so the benchmark is neither imported nor
    touched."""
    source = (Path(__file__).resolve().parent.parent / "perfbench"
              / "tracing.py").read_text(encoding="utf-8")
    (points,) = [ast.literal_eval(node.value)
                 for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["WRAP_POINTS"]]
    return points


def test_perfbench_wrap_points_resolve():
    """Every function the benchmark's tracer wraps is still where it looks
    for it."""
    points = wrap_points()
    assert points
    for _, module_name, attr in points:
        module = importlib.import_module(f"charentropy.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)


# Defined but called by no code in the package, on purpose: the data
# diagnostics that ROADMAP.md plans for the run object will call them.
NOT_YET_CALLED = (("translit", "rule_usage"), ("translit", "lint_alphabet"))


def test_every_definition_is_used_public_or_traced():
    """No module-level function or class of the package is dead: each is
    referenced by other code of the package (as a name or an attribute;
    a docstring does not count), named in ``__all__``, wrapped by the
    benchmark's tracer, or listed in NOT_YET_CALLED."""
    package = Path(charentropy.__file__).parent
    used: set[str] = set()
    defined = []
    for path in sorted(package.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(statement)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, statement.name))
                names.discard(statement.name)  # its own body does not count
            used |= names
    exempt = {*charentropy.__all__, *(attr for _, _, attr in wrap_points())}
    assert [(module, name) for module, name in defined
            if name not in used | exempt] == list(NOT_YET_CALLED)


def test_manifest_written_and_stable(workspace):
    run("ingest", "page.txt", "--meta", "meta.tsv", "--out", "t.tsv")
    manifest_path = workspace / "t.tsv.manifest.json"
    first = manifest_path.read_text(encoding="utf-8")
    doc = json.loads(first)
    assert doc["command"] == "ingest"
    assert doc["schema_version"] == 1
    paths = [d["path"] for d in doc["input_digests"]]
    assert "page.txt" in paths and "meta.tsv" in paths
    for d in doc["input_digests"]:
        assert len(d["sha256"]) == 64
    run("ingest", "page.txt", "--meta", "meta.tsv", "--out", "t.tsv")
    assert manifest_path.read_text(encoding="utf-8") == first


def test_manifest_default_path_and_override(workspace):
    run("ingest", "plain.txt", "--out", "p.tsv")
    run("stats", "p.tsv")
    assert (workspace / "run_manifest.json").exists()
    run("stats", "p.tsv", "--manifest", "custom.json")
    doc = json.loads((workspace / "custom.json").read_text(encoding="utf-8"))
    assert doc["command"] == "stats"


def test_exit_codes(workspace, capsys):
    assert run("stats", "no-such-file.tsv") == 2
    err = capsys.readouterr().err
    assert "no-such-file.tsv" in err

    assert run("--frobnicate") == 1
    assert run("nonsense-command") == 1
    assert run("sample", "p.tsv", "--windows", "fifty") == 1
    assert run("--help") == 0
    assert run("ingest", "--help") == 0
    capsys.readouterr()


@pytest.mark.parametrize("digit", ["\u0661", "\uff11", "\u07c1"],
                         ids=["arabic-indic", "fullwidth", "nko"])
def test_a_locus_line_number_of_unicode_digits_is_a_parse_error(
        workspace, capsys, digit):
    # int() reads these digits, and an unflagged \d matches them.
    (workspace / "digits.txt").write_text(
        f"<f1r.P1.1;H> daiin\n<f1r.P1.{digit};H> shedy.qokeedy\n",
        encoding="utf-8")
    assert run("ingest", "digits.txt", "--meta", "meta.tsv",
               "--out", "d.tsv") == 2
    assert capsys.readouterr().err == (
        "charentropy: error: digits.txt: line 2: expected "
        "'<folio.locus.line;transcriber>' locus header\n")
    assert not (workspace / "d.tsv").exists()


def test_malformed_table_is_data_error(workspace, capsys):
    (workspace / "junk.tsv").write_text("not\ta\ttable\n", encoding="utf-8")
    assert run("stats", "junk.tsv") == 2
    capsys.readouterr()


def test_boundary_symbol_inside_a_word_is_data_error(workspace, capsys):
    (workspace / "hash.txt").write_text(
        "I like C# and #hashtags\n", encoding="utf-8")
    assert run("ingest", "hash.txt", "--out", "h.tsv") == 0
    for argv in (["stats", "h.tsv", "--out", "h.json"],
                 ["bigrams", "h.tsv", "--out-prefix", "h"],
                 ["sample", "h.tsv", "--windows", "2", "--out", "s.json"],
                 ["sukhotin", "h.tsv", "--out", "v.json"]):
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(
            "charentropy: error: h.tsv: line 1: word 'C#'"), err


def test_console_entry_point_subprocess(workspace):
    # The fixture has chdir'd into tmp_path, so a relative PYTHONPATH
    # names nothing there: hand the child this package's absolute parent.
    env = dict(os.environ)
    src = str(Path(charentropy.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    out = subprocess.run(
        [sys.executable, "-m", "charentropy", "--version"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout.startswith("charentropy ")
    assert out.stdout.splitlines() == [f"charentropy {charentropy.__version__}"]
