"""numpy is loaded only by the commands that count, and loading it lazily
is safe whichever of numpy and charentropy is imported first.

Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import charentropy
from test_cli import INTERLINEAR, META

# Runs each argv through cli.main and prints, per run, its exit code and
# the numpy submodules then loaded. A lazy ``numpy`` entry in sys.modules
# is not a load; its submodules (``numpy._core``, ``numpy.core``, ...) are.
CHILD = """
import json, sys
from charentropy.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
    report.append([argv, code, loaded])
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
]


def _python(*args, cwd=None):
    env = dict(os.environ)
    src = str(Path(charentropy.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    out = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_only_the_counting_commands_load_numpy(tmp_path):
    (tmp_path / "page.txt").write_text(INTERLINEAR, encoding="utf-8")
    (tmp_path / "meta.tsv").write_text(META, encoding="utf-8")
    (tmp_path / "plain.txt").write_text(
        "The cat sat on the mat.\n\nThe dog sat too.\n", encoding="utf-8")
    (tmp_path / "own.rules").write_text("d\tD\n", encoding="utf-8")
    argvs = [*NUMPY_FREE, ["stats", "c.tsv", "--out", "s.json"]]
    out = _python("-c", CHILD, json.dumps(argvs), cwd=tmp_path)
    report = json.loads(out.splitlines()[-1])  # after --version's line
    assert [argv for argv, _, _ in report] == argvs
    assert all(code == 0 for _, code, _ in report), report
    for argv, _, loaded in report[:-1]:
        assert loaded == [], argv
    # the positive control: stats counts, so it loads numpy
    assert report[-1][2], report[-1]


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
