"""The package and its tests run on Python 3.10, the oldest version
``pyproject.toml`` allows: every file parses with 3.10's grammar and uses
none of the standard-library names that 3.11 added, and the long-table row
pattern uses none of the regex syntax that 3.11 added."""

import ast
from pathlib import Path

import pytest

from charentropy import ingest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)

# (module, name) pairs new in 3.11; a name of None is the module itself.
NEW_IN_3_11 = frozenset({
    ("tomllib", None),
    ("contextlib", "chdir"),
    ("hashlib", "file_digest"),
    ("enum", "StrEnum"),
    ("typing", "Self"),
    ("datetime", "UTC"),
})


def newer_names(source: str) -> list[str]:
    """The 3.11-only standard-library names ``source`` imports or reads as
    an attribute of an imported module, as ``module.name``."""
    tree = ast.parse(source, feature_version=OLDEST)
    modules = {}  # the name a module is bound to -> the module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
                if (alias.name, None) in NEW_IN_3_11:
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if ((node.module, None) in NEW_IN_3_11
                        or (node.module, alias.name) in NEW_IN_3_11):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            module = modules.get(node.value.id)
            if (module, node.attr) in NEW_IN_3_11:
                found.append(f"{module}.{node.attr}")
    return found


def test_every_file_is_python_3_10():
    files = sorted([*(ROOT / "src").rglob("*.py"),
                    *(ROOT / "tests").rglob("*.py")])
    assert files
    problems = {}
    for path in files:
        try:
            names = newer_names(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            names = [f"not 3.10 syntax: {exc}"]
        if names:
            problems[str(path.relative_to(ROOT))] = names
    assert not problems


@pytest.mark.parametrize("source, name", [
    ("import tomllib\n", "tomllib"),
    ("from tomllib import loads\n", "tomllib.loads"),
    ("import contextlib\nwith contextlib.chdir('.'):\n    pass\n",
     "contextlib.chdir"),
    ("import hashlib as h\nh.file_digest\n", "hashlib.file_digest"),
    ("from enum import StrEnum\n", "enum.StrEnum"),
    ("from typing import Self\n", "typing.Self"),
    ("import datetime\ndatetime.UTC\n", "datetime.UTC"),
])
def test_each_3_11_name_is_caught(source, name):
    assert newer_names(source) == [name]


def test_3_11_syntax_is_caught():
    with pytest.raises(SyntaxError):
        newer_names("try:\n    pass\nexcept* ValueError:\n    pass\n")


@pytest.mark.parametrize("source_id", ["doc", "", "a.b", "x|y", "(", "+*?"])
def test_the_row_pattern_is_python_3_10_regex(source_id):
    # 3.11 added possessive quantifiers and atomic groups; 3.10's re
    # rejects them when it compiles the pattern.
    pattern = ingest._tail_pattern(source_id).pattern
    for syntax in ("*+", "++", "?+", "}+", "(?>"):
        assert syntax not in pattern, syntax
