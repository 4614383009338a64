import math
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import charentropy
from charentropy.cleanse import (CleanseConfig, charset_report, cleanse,
                                 parse_config, parse_script_range)
from charentropy.errors import ConfigError
from charentropy.ingest import from_words
from charentropy.metrics import entropy_report, to_stream

LATIN = ((0x0041, 0x005A), (0x0061, 0x007A))


def words_after(words, cfg=None):
    return cleanse(from_words(words), cfg or CleanseConfig()).words()


def test_case_and_punctuation():
    assert words_after(["The", "cat,", "sat."]) == ["the", "cat", "sat"]


def test_identity_when_everything_off():
    cfg = CleanseConfig(lowercase=False, strip_punctuation=False,
                        rare_char_threshold=0.0)
    table = from_words(["The", "cat,", "sat."])
    assert cleanse(table, cfg) == table


def test_rare_threshold_is_strict_and_per_document():
    # exactly 20000 word characters; ü and ç once each = 0.005% -> removed;
    # q twice = 0.01% -> exactly at the threshold, kept
    filler = ["ab" * 50] * 199  # 19900 chars
    words = filler + ["aüb", "aç", "qaq", "ab" * 46]  # +3 +2 +3 +92
    out = cleanse(from_words(words), CleanseConfig())
    joined = "".join(out.words())
    assert len(joined) + 2 == 20000  # only the two rare marks went
    assert "ü" not in joined and "ç" not in joined
    assert joined.count("q") == 2


def test_emptied_words_are_dropped_and_positions_survive():
    table = from_words(["ab", "...", "cd"])
    out = cleanse(table, CleanseConfig())
    assert out.words() == ["ab", "cd"]
    # the survivor keeps its original paragraph position (3rd word)
    assert out.records[1].para_pos_fwd == 3


def test_script_range_filter():
    cfg = CleanseConfig(script_ranges=LATIN, rare_char_threshold=0.0)
    assert words_after(["доброe", "utro"], cfg) == ["e", "utro"]


def test_preserve_chars_exempt_from_all_stages():
    cfg = CleanseConfig(script_ranges=LATIN, preserve_chars=frozenset("'*"),
                        rare_char_threshold=0.1)
    # c, ' and h each sit at 1/16 = 0.0625 < 0.1, and ' is punctuation-class
    # and outside the Latin ranges: the preserved apostrophe survives all
    # three filters while the unpreserved c and h are dropped as rare
    assert words_after(["c'hedy", "okedy", "okedy"], cfg) == [
        "'edy", "okedy", "okedy"]


def test_digits_removed_by_default_but_preservable():
    assert words_after(["a1b2"]) == ["ab"]
    cfg = CleanseConfig(preserve_chars=frozenset("12"))
    assert words_after(["a1b2"], cfg) == ["a1b2"]


def test_idempotent_on_fixture():
    cfg = CleanseConfig(rare_char_threshold=0.01)
    table = from_words(["The", "cat,", "sat.", "on", "the", "zmat"])
    once = cleanse(table, cfg)
    assert cleanse(once, cfg) == once


@given(st.lists(st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters=" \t\r\n\v\f"),
    min_size=1, max_size=8), min_size=1, max_size=30))
def test_idempotent_on_random_tables(words):
    cfg = CleanseConfig(rare_char_threshold=0.02)
    once = cleanse(from_words(words), cfg)
    assert cleanse(once, cfg) == once


def test_no_uppercase_survives_and_no_subthreshold_char_survives():
    cfg = CleanseConfig(rare_char_threshold=0.01)
    out = cleanse(from_words(["AAAA" * 30, "bcbcbc", "z"]), cfg)
    joined = "".join(out.words())
    assert joined == joined.lower()
    counts = {}
    for ch in joined:
        counts[ch] = counts.get(ch, 0) + 1
    for ch, n in counts.items():
        assert n / len(joined) >= cfg.rare_char_threshold


def test_rare_filter_barely_moves_h2_when_rare_mass_is_tiny():
    # a few stray marks well under 0.15% of tokens: h2 shift under 0.1%
    import random
    rng = random.Random(3)
    words = ["".join(rng.choice("etaoinshr") for _ in range(5))
             for _ in range(4000)]
    words[100] = words[100] + "ü"
    words[2000] = "ç" + words[2000]
    words[3000] = words[3000][:2] + "ü" + words[3000][2:]
    dirty = from_words(words)
    clean = cleanse(dirty, CleanseConfig())
    h2_dirty = entropy_report(to_stream(dirty)).h2
    h2_clean = entropy_report(to_stream(clean)).h2
    assert "ü" not in "".join(clean.words())
    assert abs(h2_clean - h2_dirty) / h2_dirty < 0.001


def test_config_validation():
    with pytest.raises(ConfigError):
        CleanseConfig(rare_char_threshold=1.0)
    with pytest.raises(ConfigError):
        CleanseConfig(rare_char_threshold=-0.1)
    with pytest.raises(ConfigError):
        CleanseConfig(script_ranges=((0x60, 0x40),))
    with pytest.raises(ConfigError):
        CleanseConfig(script_ranges=((0x40, 0x60), (0x50, 0x70)))


def test_parse_script_range():
    assert parse_script_range("U+0400..U+04FF") == (0x400, 0x4FF)
    assert parse_script_range("41..5a") == (0x41, 0x5A)
    with pytest.raises(ConfigError):
        parse_script_range("U+0400")
    with pytest.raises(ConfigError):
        parse_script_range("U+GGGG..U+04FF")


def test_parse_config_file():
    cfg = parse_config(
        "# corpus defaults\n"
        "lowercase = true\n"
        "strip_punctuation = false\n"
        "rare_char_threshold = 0.001\n"
        "script_ranges = U+0041..U+005A,U+0061..U+007A\n"
        "preserve_chars = '*\n")
    assert cfg.lowercase is True
    assert cfg.strip_punctuation is False
    assert cfg.rare_char_threshold == 0.001
    assert cfg.script_ranges == LATIN
    assert cfg.preserve_chars == frozenset("'*")
    with pytest.raises(ConfigError):
        parse_config("nonsense\n")
    with pytest.raises(ConfigError):
        parse_config("lowercase = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("frobnicate = 1\n")


# --- charset report ----------------------------------------------------------

def test_charset_report_counts_boundary_once_per_word():
    report = charset_report(from_words(["aab"]))
    assert report == [("a", 2, 0.5), ("#", 1, 0.25), ("b", 1, 0.25)]


def test_charset_report_empty():
    assert charset_report(from_words([])) == []


def test_charset_report_ordering_and_normalization():
    report = charset_report(from_words(["abc", "bc", "c", "ddd"]))
    counts = {c: n for c, n, _ in report}
    assert counts == {"a": 1, "b": 2, "c": 3, "d": 3, "#": 4}
    # descending count, ties by codepoint
    assert [c for c, _, _ in report] == ["#", "c", "d", "b", "a"]
    assert math.isclose(sum(p for _, _, p in report), 1.0, abs_tol=1e-12)


def test_charset_report_matches_stream_successor_distribution():
    table = from_words(["okeey", "daiin", "ol"])
    report = {c: n for c, n, _ in charset_report(table)}
    stream = to_stream(table).symbols
    successors = {}
    for ch in stream[1:]:
        successors[ch] = successors.get(ch, 0) + 1
    assert report == successors


def test_package_cleanse_is_the_function_and_the_docs_say_so():
    assert charentropy.cleanse is cleanse
    assert sys.modules["charentropy.cleanse"].charset_report is charset_report
    assert not hasattr(charentropy.cleanse, "charset_report")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    for doc in (charentropy.__doc__, readme):
        plain = doc.replace("`", "")
        assert "charentropy.cleanse is the" in plain
        assert "from charentropy.cleanse import …" in plain
    # The README's library example runs as written.
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
