import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charentropy
from charentropy.cli import main
from charentropy.ingest import read_tsv
from charentropy.metrics import entropy_report, to_stream

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


def test_ingest_strips_utf8_byte_order_mark(workspace):
    (workspace / "bom.txt").write_bytes(
        b"\xef\xbb\xbf" + INTERLINEAR.encode("utf-8"))
    for name in ("page.txt", "bom.txt"):
        assert run("ingest", name, "--meta", "meta.tsv", "--source-id",
                   "page", "--out", f"{name}.tsv") == 0
    assert ((workspace / "bom.txt.tsv").read_bytes()
            == (workspace / "page.txt.tsv").read_bytes())


def test_ingest_missing_folio_is_data_error(workspace, capsys):
    (workspace / "bad.txt").write_text(
        "<f9r.P1.1;H> daiin\n", encoding="utf-8")
    assert run("ingest", "bad.txt", "--meta", "meta.tsv") == 2
    assert "f9r" in capsys.readouterr().err
    assert run("ingest", "bad.txt", "--meta", "meta.tsv",
               "--allow-missing-meta", "--out", "ok.tsv") == 0


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
        assert "line 1: word 'C#'" in err, err


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
