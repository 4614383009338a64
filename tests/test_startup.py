"""numpy is loaded only by ``sample``, which counts thousands of windows;
loading it lazily is safe whichever of numpy and charentropy is imported
first; and every other command, ``batch`` under each transcription system
included, runs on Python 3.10, 3.12 and 3.13 with no numpy at all.

Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charentropy
from test_cli import INTERLINEAR, META

# Imports charentropy.cli, runs each argv through cli.main and prints, for
# the import and then per run, its exit code (None for the import), the
# numpy submodules then loaded, and which of dataclasses and inspect were
# loaded since before the import. A lazy ``numpy`` entry in sys.modules is
# not a load; its submodules (``numpy._core``, ``numpy.core``, ...) are.
CHILD = """
import json, sys
before = set(sys.modules)
from charentropy.cli import main

def entry(argv, code):
    numpy = sorted(m for m in sys.modules if m.startswith("numpy."))
    return [argv, code, numpy,
            sorted((set(sys.modules) - before) & {"dataclasses", "inspect"})]

report = [entry("import charentropy.cli", None)]
for argv in json.loads(sys.argv[1]):
    report.append(entry(argv, main(argv)))
print(json.dumps(report))
"""

NUMPY_FREE = [
    ["--version"],
    ["ingest", "plain.txt", "--out", "p.tsv"],
    ["ingest", "page.txt", "--meta", "meta.tsv", "--transcriber", "H",
     "--select", "full_text", "--out", "t.tsv"],
    ["translit", "t.tsv", "--system", "maximal", "--out", "mx.tsv"],
    ["translit", "t.tsv", "--rules", "own.rules", "--out", "own.tsv"],
    ["translit", "mx.tsv", "--simplify", "--out", "simp.tsv"],
    ["cleanse", "p.tsv", "--out", "c.tsv"],
    ["ingest", "plain.txt", "--out", "self.tsv"],
    ["cleanse", "self.tsv", "--out", "self.tsv"],
    ["stats", "c.tsv", "--out", "s.json"],
    ["bigrams", "c.tsv", "--out-prefix", "bg"],
    ["bigrams", "mx.tsv", "--threshold", "0", "--out-prefix", "bgmx"],
    ["sukhotin", "c.tsv", "--out", "vowels.json"],
    ["sukhotin", "mx.tsv", "--include-space", "--diagnostics",
     "--out", "vowels_space.json"],
    ["batch", "page.txt", "--meta", "meta.tsv", "--transcriber", "H",
     "--out", "grid.tsv"],
    ["batch", "page.txt", "--meta", "meta.tsv", "--jobs", "jobs.tsv",
     "--rare-min", "2", "--out", "jobs_grid.tsv"],
]

# Every transcription system, an empty selection among them.
JOBS = ("raw\tfull\tnone\nmx\ta_text\tmaximal\nsimp\tfull\tsimplified\n"
        "min\thand1\tminimal\nnone\tb\tmaximal\n")

SRC = str(Path(charentropy.__file__).resolve().parent.parent)

# Characters that Unicode 13.0, Python 3.10's version, assigns: case,
# punctuation and scripts that cleanse reads through unicodedata.
PLAIN = ("The cat sat on the mat.\n\nThe dog sat too.\n\n"
         "\u00abNa\u00efve\u00bb caf\u00e9 \u2014 \u0401\u043b\u043a\u0430, "
         "STRASSE stra\u00dfe \u0394\u03ad\u03bb\u03c4\u03b1!\n")


def _write_inputs(directory: Path) -> list[str]:
    """Write the commands' input files; their names."""
    inputs = {"page.txt": INTERLINEAR, "meta.tsv": META, "plain.txt": PLAIN,
              "own.rules": "d\tD\n", "jobs.tsv": JOBS}
    for name, text in inputs.items():
        (directory / name).write_text(text, encoding="utf-8")
    return list(inputs)


def _python(*args, cwd=None, python=sys.executable, path=None):
    """Standard output of ``python`` run with ``args``, which must succeed.
    The child's PYTHONPATH is ``path``, or this package's parent before the
    inherited one."""
    env = dict(os.environ)
    if path is None:
        path = [SRC, *filter(None, [env.get("PYTHONPATH")])]
    env["PYTHONPATH"] = os.pathsep.join(path)
    out = subprocess.run([python, *args], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_only_the_counting_commands_load_numpy(tmp_path):
    _write_inputs(tmp_path)
    argvs = [*NUMPY_FREE, ["sample", "c.tsv", "--windows", "2", "--n", "3",
                           "--out", "sample.json"]]
    out = _python("-c", CHILD, json.dumps(argvs), cwd=tmp_path)
    _, *report = json.loads(out.splitlines()[-1])  # after the import's
    assert [argv for argv, *_ in report] == argvs
    assert all(code == 0 for _, code, *_ in report), report
    for argv, _, loaded, _ in report[:-1]:
        assert loaded == [], argv
    # the positive control: sample counts many windows, so it loads numpy
    assert report[-1][2], report[-1]


def test_start_up_loads_neither_dataclasses_nor_inspect(tmp_path):
    """Together they cost every command ~10 ms to import."""
    _write_inputs(tmp_path)
    out = _python("-c", CHILD, json.dumps(NUMPY_FREE), cwd=tmp_path)
    imported, *report = json.loads(out.splitlines()[-1])
    assert imported == ["import charentropy.cli", None, [], []]
    assert [(argv, code, heavy) for argv, code, _, heavy in report] == [
        (argv, 0, []) for argv in NUMPY_FREE]


def test_the_stream_statistics_load_no_numpy():
    """entropy_report and charset_report count through PairCells, in
    Python, as the commands do."""
    out = _python("-c", """
import json, sys
from charentropy import charset_report, entropy_report, from_words, to_stream
table = from_words("the cat sat on the mat".split())
report = entropy_report(to_stream(table))
census = charset_report(table)
print(json.dumps([report.charset_size, census[0][0],
                  sorted(m for m in sys.modules if m.startswith("numpy."))]))
""")
    assert json.loads(out) == [9, "#", []]


def test_numpy_imports_after_and_before_charentropy():
    _python("-c", """
import sys
import charentropy
import numpy.linalg
from charentropy import metrics, sampling, sukhotin
assert metrics.np is sys.modules["numpy"] is sampling.np is sukhotin.np
assert metrics.np.linalg is numpy.linalg
assert numpy.linalg.norm([3.0, 4.0]) == 5.0
""")
    _python("-c", """
import numpy
from charentropy import metrics, sampling, sukhotin
from charentropy._lazy import lazy_import
assert metrics.np is numpy and sampling.np is numpy and sukhotin.np is numpy
assert lazy_import("numpy") is numpy
""")


# Runs ingest and sample through cli.main and prints OPENBLAS_NUM_THREADS as
# it was after charentropy.cli was imported, and when numpy began to load
# (its first submodule import), and the exit codes.
BLAS_CHILD = """
import json, os, sys
at_load = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("numpy.") and not at_load:
            at_load.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Watch())
from charentropy.cli import main
imported = os.environ.get("OPENBLAS_NUM_THREADS")
codes = [main(["ingest", "plain.txt", "--out", "p.tsv"]),
         main(["sample", "p.tsv", "--windows", "2", "--n", "3",
               "--out", "s.json"])]
print(json.dumps([imported, at_load, codes]))
"""


@pytest.mark.parametrize("given, used", [(None, "1"), ("4", "4")],
                         ids=["unset", "user-set"])
def test_commands_start_no_blas_thread_pool_unless_asked(tmp_path, given,
                                                         used,
                                                         monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if given is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
    _write_inputs(tmp_path)
    out = _python("-c", BLAS_CHILD, cwd=tmp_path)
    # Importing the module as a library leaves the variable as it was.
    assert json.loads(out) == [given, [used], [0, 0]]


def _python_version(version: str) -> str | None:
    """A Python ``version`` interpreter, such as "3.12": ``python3.12``, or
    else one that pyenv installed, whichever first runs and reports it."""
    candidates = [f"python{version}"]
    try:
        root = subprocess.run(["pyenv", "root"], capture_output=True,
                              text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        root = ""
    if root:
        candidates += sorted(glob.glob(os.path.join(
            root, "versions", f"{version}*", "bin", f"python{version}")))
    for python in candidates:
        try:
            out = subprocess.run(
                [python, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if out.stdout.strip() == str(tuple(map(int, version.split(".")))):
            return python
    return None


# Run before CHILD on the other interpreter, after a line that sets
# VERSION: numpy cannot be imported, and no input holds a character this
# interpreter's Unicode leaves unassigned.
CHECK = """
import sys, unicodedata
assert sys.version_info[:2] == VERSION, sys.version
try:
    import numpy
except ImportError:
    pass
else:
    raise AssertionError(numpy.__file__)
for name in sys.argv[2:]:
    with open(name, encoding="utf-8") as f:
        unassigned = {c for c in f.read() if unicodedata.category(c) == "Cn"}
    assert not unassigned, (name, unicodedata.unidata_version,
                            sorted(unassigned))
"""


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_the_numpy_free_commands_run_on_python(tmp_path, version):
    python = _python_version(version)
    if python is None:
        pytest.skip(f"no Python {version} interpreter found")
    stub = tmp_path / "stub" / "numpy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(
        "raise ImportError('numpy is not installed here')\n",
        encoding="utf-8")
    check = f"VERSION = {tuple(map(int, version.split('.')))}\n" + CHECK
    runs = {}
    for side, args in (("host", {}),
                       (version, {"python": python,
                                  "path": [str(stub.parent), SRC]})):
        work = tmp_path / side
        work.mkdir()
        inputs = _write_inputs(work)
        child = check + CHILD if side == version else CHILD
        out = _python("-c", child, json.dumps(NUMPY_FREE), *inputs,
                      cwd=work, **args)
        files = {p.name: p.read_bytes() for p in work.iterdir()}
        runs[side] = out, files
    out, files = runs["host"]
    report = json.loads(out.splitlines()[-1])[1:]  # after the import's
    assert [code for _, code, *_ in report] == [0] * len(NUMPY_FREE)
    assert "self.tsv.manifest.json" in files and "simp.tsv" in files
    assert {"s.json", "bg_entropy.csv", "bgmx_coverage.json",
            "vowels_space.json"} <= set(files)
    assert [line.split("\t")[:2] for line in files["jobs_grid.tsv"].decode(
        "utf-8").splitlines()[1:]] == [["raw", "none"], ["mx", "maximal"],
                                       ["simp", "simplified"],
                                       ["min", "minimal"]]
    assert runs[version] == runs["host"]
