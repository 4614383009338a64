"""``cleanse`` and ``translit --simplify`` rewrite every character through
one table built from a character census. These tests hold both, through
the CLI and through ``cleaned_forms``/``simplified_forms``, to the
token-by-token oracles on non-ASCII tables: characters that lower to two
characters (``İ``), that lower out of the ASCII range (``ẞ``), combining
marks, digits and characters outside a script range."""

from __future__ import annotations

import contextlib
import io
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from charentropy import ingest
from charentropy.cleanse import CleanseConfig, cleaned_forms
from charentropy.cli import main
from charentropy.ingest import from_words, write_tsv
from charentropy.translit import simplified_forms

# Capitals, one that lowers to two characters and one that lowers out of
# ASCII, a title-case digraph, a sigma (lowered alone, never as a final
# sigma), Cyrillic, a non-BMP letter, combining marks, digits and
# punctuation.
_CLEANSE_CHARS = ("aabcAB\u0130\u1e9e\u00df\u01c5\u03a3\u044f\u042f\U00010330"
                  "\u0301\u0308" "07.,'-#*")
# Ligature capitals, the exempt x, the mask, and characters that
# simplification neither lowers nor masks unless they are rare.
_SIMPLIFY_CHARS = "aaabcdoxxABCX*'\u0130\u044f\u0301\U00010330"

_THRESHOLDS = [0.0, 0.0001, 0.01, 0.05, 0.2, 0.6, 0.99]
_RANGES = [None, ((0x61, 0x7A),), ((0x41, 0x5A), (0x61, 0x7A)),
           ((0x30, 0x39), (0x61, 0x7A), (0x300, 0x36F))]


def _words(chars: str):
    return st.lists(st.text(st.sampled_from(chars), min_size=1, max_size=7),
                    max_size=60)


@st.composite
def cleanse_configs(draw):
    """``(flags, CleanseConfig)``, the config the flags give ``cleanse``."""
    threshold = draw(st.sampled_from(_THRESHOLDS))
    ranges = draw(st.sampled_from(_RANGES))
    keep = draw(st.text(st.sampled_from("07'#\u0130\u0301"), max_size=3))
    lowercase, strip = draw(st.booleans()), draw(st.booleans())
    flags = ["--threshold", repr(threshold)]
    for lo, hi in ranges or ():
        flags += ["--script-range", f"U+{lo:04X}..U+{hi:04X}"]
    if keep:
        flags += ["--keep", keep]
    flags += [] if lowercase else ["--no-lowercase"]
    flags += [] if strip else ["--no-strip-punctuation"]
    return flags, CleanseConfig(
        lowercase=lowercase, strip_punctuation=strip,
        rare_char_threshold=threshold, script_ranges=ranges,
        preserve_chars=frozenset(keep))


def _by_type(words, rewrite):
    """Each token's new form, from ``rewrite(forms, freq)`` over the
    tokens' types."""
    types = Counter(words)
    new = dict(zip(types, rewrite(tuple(types), tuple(types.values()))))
    return [new[w] for w in words]


def _cli_output(argv, words, block: int) -> bytes:
    """The TSV that ``argv`` writes, given a table of ``words`` as its
    input and read ``block`` bytes at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.tsv", Path(tmp) / "o.tsv"
        path.write_text(write_tsv(from_words(words, source_id="doc")),
                        encoding="utf-8")
        err = io.StringIO()
        with mock.patch.object(ingest, "_BLOCK_BYTES", block), \
                contextlib.redirect_stderr(err):
            assert main([argv[0], str(path), *argv[1:], "--out",
                         str(out)]) == 0, err.getvalue()
        return out.read_bytes()


@settings(max_examples=200, deadline=None, derandomize=True)
# İ lowers to i and a combining dot, which a script range of letters drops.
@example(words=["İa", "b"], config=(
    ["--threshold", "0.0", "--script-range", "U+0061..U+007A"],
    CleanseConfig(rare_char_threshold=0.0, script_ranges=((0x61, 0x7A),))),
         block=1)
# ẞ lowers to ß, which is rare at this threshold.
@example(words=["ẞa"] + ["ab"] * 30, config=(
    ["--threshold", "0.05"], CleanseConfig(rare_char_threshold=0.05)),
         block=1 << 16)
@given(words=_words(_CLEANSE_CHARS), config=cleanse_configs(),
       block=st.sampled_from([1, 7, 1 << 16]))
def test_cleanse_equals_the_token_oracle(words, config, block):
    flags, cfg = config
    expected = oracles.cleanse_words_oracle(words, cfg)
    assert _by_type(words, lambda f, n: cleaned_forms(f, n, cfg)) == expected
    table = from_words(words, source_id="doc")
    assert _cli_output(["cleanse", *flags], words, block) == write_tsv(
        oracles.cleanse_oracle(table, cfg)).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
# x is never masked, however rare; X lowers to it.
@example(words=["xa", "Xa", "aa"], rare_min=60, block=1)
@given(words=_words(_SIMPLIFY_CHARS), rare_min=st.integers(1, 60),
       block=st.sampled_from([1, 7, 1 << 16]))
def test_simplify_equals_the_token_oracle(words, rare_min, block):
    table = from_words(words, source_id="doc")
    expected = oracles.simplify_document_oracle(table, rare_min)
    assert _by_type(words, lambda f, n: simplified_forms(
        f, n, threshold=rare_min)) == expected.words()
    assert _cli_output(["translit", "--simplify", "--rare-min",
                        str(rare_min)], words, block) == write_tsv(
        expected).encode()
