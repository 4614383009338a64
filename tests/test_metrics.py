import csv
import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from charentropy.errors import DataError, EmptyStreamError
from charentropy.ingest import from_words, tsv_slices, write_tsv
from charentropy.formats import json_dumps
from charentropy.metrics import (BOUNDARY, HEATMAP_MODES, CharStream,
                                 PairCells, TypeCounts, bigram_matrix,
                                 coverage_report, entropy_report,
                                 h2_from_cells, heatmap_export,
                                 stream_from_words, to_stream)
from charentropy.sampling import WindowCounts
from charentropy.sukhotin import (adjacency_matrix, detect_from_adjacency,
                                  detect_from_cells)

words_strategy = st.lists(
    st.text(alphabet="abcde", min_size=1, max_size=8),
    min_size=1, max_size=40)


def random_words(rng, alphabet, n_words, max_len=8):
    return ["".join(rng.choice(alphabet)
                    for _ in range(rng.randint(1, max_len)))
            for _ in range(n_words)]


# --- stream construction -----------------------------------------------------

def test_to_stream_examples():
    assert stream_from_words(["ab", "c"]).symbols == "#ab#c#"
    assert stream_from_words(["a"]).symbols == "#a#"


def test_to_stream_length_formula():
    words = ["abc", "de", "f", "ghij"]
    stream = stream_from_words(words)
    assert len(stream.symbols) == sum(map(len, words)) + len(words) + 1


def test_to_stream_empty_table_errors():
    with pytest.raises(EmptyStreamError) as caught:
        to_stream(from_words([], source_id="s"))
    types = TypeCounts.of(from_words([], source_id="s"))
    for count in (lambda: WindowCounts(types), types.cells):
        with pytest.raises(EmptyStreamError) as again:
            count()
        assert str(again.value) == str(caught.value)


def test_charstream_validation():
    with pytest.raises(ValueError):
        CharStream("ab#", frozenset("ab"))  # no leading boundary
    with pytest.raises(ValueError):
        CharStream("#ab", frozenset("ab"))  # no trailing boundary
    with pytest.raises(ValueError):
        CharStream("#a##b#", frozenset("ab"))  # double boundary
    with pytest.raises(ValueError):
        CharStream("#ab#", frozenset("a"))  # b missing from alphabet
    with pytest.raises(ValueError):
        CharStream("#ab#", frozenset("ab#"))  # boundary in alphabet
    with pytest.raises(ValueError):
        CharStream("#", frozenset())  # no words


# --- bigram counts -----------------------------------------------------------

def test_counts_match_spec_example():
    m = bigram_matrix(stream_from_words(["ab", "ab"]))
    assert m.counts[m.index("a"), m.index("b")] == 2
    i, j = m.index("a"), m.index("b")
    assert m.conditional[i, j] == 1.0


def test_boundary_boundary_cell_is_structurally_zero():
    rng = random.Random(1)
    for _ in range(20):
        words = random_words(rng, "abc", rng.randint(1, 30))
        m = bigram_matrix(stream_from_words(words))
        b = m.index(BOUNDARY)
        assert m.counts[b, b] == 0


def test_forced_successor_has_conditional_one():
    # q always precedes u
    m = bigram_matrix(stream_from_words(["quick", "quit", "aqua"]))
    assert m.conditional[m.index("q"), m.index("u")] == 1.0


def test_counts_match_oracle_on_random_streams():
    rng = random.Random(42)
    for _ in range(50):
        words = random_words(rng, "abcde", rng.randint(1, 40))
        stream = stream_from_words(words)
        m = bigram_matrix(stream)
        tally = oracles.pair_tally(stream.symbols)
        for i, x in enumerate(m.symbols):
            for j, y in enumerate(m.symbols):
                assert m.counts[i, j] == tally.get((x, y), 0)
        assert m.total == len(stream.symbols) - 1


@given(words_strategy)
def test_matrix_invariants(words):
    m = bigram_matrix(stream_from_words(words))
    assert abs(m.joint.sum() - 1.0) < 1e-12
    row_sums = m.counts.sum(axis=1)
    for i in range(len(m.symbols)):
        if row_sums[i]:
            assert abs(m.conditional[i].sum() - 1.0) < 1e-12
        else:
            assert m.conditional[i].sum() == 0.0
    assert np.array_equal(m.weighted, m.joint * m.conditional)
    assert m.counts.sum() == sum(map(len, words)) + len(words)


def test_symbols_are_codepoint_sorted_with_boundary_first():
    m = bigram_matrix(stream_from_words(["ba", "cab"]))
    assert m.symbols == ("#", "a", "b", "c")


def test_a_declared_symbol_that_never_occurs_keeps_its_place():
    # The stream's symbols are its alphabet and the boundary, not the
    # characters it holds: c and z count in the charset and in h0, and
    # keep a zero row and column; only the adjacency drops them.
    stream = stream_from_words(["ab", "ba", "aab"], alphabet="abcz")
    m = bigram_matrix(stream)
    assert m.symbols == ("#", "a", "b", "c", "z")
    assert m.counts.dtype == np.int64
    assert m.counts.tolist() == [[0, 2, 1, 0, 0], [1, 1, 2, 0, 0],
                                 [2, 1, 0, 0, 0], [0] * 5, [0] * 5]
    for view in (m.joint, m.conditional, m.weighted):
        assert not view[3:].any() and not view[:, 3:].any()
    report = entropy_report(stream)
    assert report.charset_size == 4
    assert report.h0 == math.log2(5)
    assert PairCells.of_stream(stream).symbols == m.symbols
    for include_space in (False, True):
        adjacency = adjacency_matrix(stream, include_space)
        assert adjacency.symbols == ("#", "a", "b")[not include_space:]
        assert adjacency.counts.dtype == np.int64


# --- word-type counts --------------------------------------------------------

@given(words_strategy)
def test_type_counts_equal_stream_counts(words):
    types = TypeCounts.of(from_words(words))
    assert list(types.forms) == list(dict.fromkeys(words))
    assert [types.forms[i] for i in types.ids] == words
    want = oracles.pair_tally(oracles.stream_of(words))
    assert types.cells().cells == want
    assert types.cells().symbols == tuple(sorted({a for a, _ in want}))
    # The windows number the stream's pairs in sorted order, each once.
    numbered = WindowCounts(types)._pairs
    tally = np.bincount(numbered).tolist()
    assert dict(zip(sorted(want), tally)) == want
    assert len(tally) == len(want)


def test_boundary_inside_a_form_names_the_first_such_word():
    table = from_words(["ab", "c#", "d#e", "c#"])
    with pytest.raises(DataError) as caught:
        to_stream(table)
    types = TypeCounts.of(table)
    with pytest.raises(DataError) as own:
        WindowCounts(types)
    with pytest.raises(DataError) as cells:
        types.cells()
    assert str(own.value) == str(caught.value) == str(cells.value) == (
        "line 2: word 'c#' contains the word boundary symbol '#'")


# Letters from three planes, a combining accent (U+0301) alone and after a
# letter, and a precomposed one.
CELL_ALPHABET = ["a", "b", "\u0301", "\u00e9", "\U00010400", "\U0001f600"]

cell_texts = st.one_of(
    st.lists(st.text(st.sampled_from(CELL_ALPHABET), min_size=1, max_size=6),
             min_size=1, max_size=30),
    # texts of one symbol
    st.builds(lambda c, sizes: [c * n for n in sizes],
              st.sampled_from(CELL_ALPHABET),
              st.lists(st.integers(1, 4), min_size=1, max_size=8)))


@settings(max_examples=150, deadline=None)
@given(cell_texts)
@example(["\U0001f600"])
@example(["ab"] * 44 + ["a\u0301"] * 5)  # log2(49 / 44), and 49 / 5
def test_the_cells_of_the_types_give_the_stream_routes_statistics(words):
    # What stats, bigrams and sukhotin compute from a fold of the TSV, and
    # the token-by-token numpy reference, compared exactly and as bytes.
    table = from_words(words)
    types = TypeCounts.fold(tsv_slices([write_tsv(table)]))
    cells = types.cells()
    stream = to_stream(table)
    matrix = bigram_matrix(stream)
    counts = matrix.counts
    assert cells == PairCells.of_stream(stream) == PairCells.of(
        matrix.symbols, counts)
    assert cells.cells == oracles.pair_tally(stream.symbols)
    rows, cols = np.nonzero(counts)
    assert cells.h2() == h2_from_cells(
        counts[rows, cols], counts.sum(axis=1)[rows], matrix.total) == (
        oracles.h2_generator_oracle(counts))

    report, want = cells.entropy_report(len(types.forms)), entropy_report(
        stream)
    assert report == want
    charset = cells.charset()
    assert charset == oracles.charset_oracle(words)
    assert json_dumps([report.as_dict(), charset]) == json_dumps(
        [want.as_dict(), oracles.charset_oracle(words)])
    for mode in HEATMAP_MODES:
        assert cells.heatmap(mode) == heatmap_export(matrix, mode)
    tally, row_sums = oracles.pair_tally(stream.symbols), counts.sum(axis=1)
    assert cells.grid("entropy_contribution") == [
        [(n / matrix.total) * -math.log2(n / int(row_sums[i]))
         if (n := tally.get((a, b))) else 0.0 for b in matrix.symbols]
        for i, a in enumerate(matrix.symbols)]
    assert [cells.grid(v) for v in ("conditional", "weighted")] == [
        matrix.conditional.tolist(), matrix.weighted.tolist()]
    for threshold in (0.0, 0.5, 1.0):
        coverage = cells.coverage(threshold)
        assert coverage == coverage_report(matrix, threshold)
        assert json_dumps(coverage.as_dict()) == json_dumps(
            coverage_report(matrix, threshold).as_dict())
    for include_space in (False, True):
        got = detect_from_cells(cells, BOUNDARY + "".join(types.forms),
                                include_space)
        want = detect_from_adjacency(adjacency_matrix(stream, include_space),
                                     include_space)
        assert got == want
        assert json_dumps(got.as_dict(diagnostics=True)) == json_dumps(
            want.as_dict(diagnostics=True))
        assert list(got.vowels) == oracles.sukhotin_oracle(stream.symbols,
                                                           include_space)


# --- entropies ---------------------------------------------------------------

def test_alternating_stream_closed_form():
    # #abababab#: 9 transitions; a rows: 4x a->b; b rows: 3x b->a, 1x b->#;
    # hand-derived h2 = (4/9) * (2 - (3/4) * log2 3)
    report = entropy_report(stream_from_words(["abababab"]))
    expected = (4 / 9) * (2 - (3 / 4) * math.log2(3))
    assert math.isclose(report.h2, expected, abs_tol=1e-15)
    assert report.charset_size == 2
    assert report.token_count == 9


def test_single_word_single_char():
    report = entropy_report(stream_from_words(["a"]))
    assert report.h2 == 0.0
    assert report.h1 == 1.0  # successors: one a, one # -> uniform over 2
    assert report.h0 == 1.0
    assert report.word_token_count == 1
    assert report.word_type_count == 1


def test_word_counts():
    report = entropy_report(stream_from_words(["ab", "ab", "ba"]))
    assert report.word_token_count == 3
    assert report.word_type_count == 2


def test_entropies_match_oracle_on_random_streams():
    rng = random.Random(99)
    for _ in range(60):
        words = random_words(rng, "abcdefg", rng.randint(1, 60))
        stream = stream_from_words(words)
        report = entropy_report(stream)
        assert math.isclose(
            report.h1, oracles.h1_oracle(stream.symbols), abs_tol=1e-12)
        assert math.isclose(
            report.h2, oracles.h2_oracle(stream.symbols), abs_tol=1e-12)


@given(words_strategy)
def test_entropy_ladder_ordering(words):
    report = entropy_report(stream_from_words(words))
    assert 0.0 <= report.h2 <= report.h1 + 1e-12
    assert report.h1 <= report.h0 + 1e-12
    assert report.h0 == math.log2(report.charset_size + 1)


@settings(max_examples=40)
@given(words_strategy, st.randoms(use_true_random=False))
def test_exact_relabeling_invariance(words, rng):
    stream = stream_from_words(words)
    base = entropy_report(stream)
    base_cov = coverage_report(bigram_matrix(stream))
    alphabet = sorted(stream.alphabet)
    target = list("vwxyz12345"[:len(alphabet)])
    rng.shuffle(target)
    mapping = dict(zip(alphabet, target))
    mapping[BOUNDARY] = BOUNDARY
    relabeled = CharStream(
        "".join(mapping[c] for c in stream.symbols),
        frozenset(target))
    again = entropy_report(relabeled)
    cov = coverage_report(bigram_matrix(relabeled))
    assert again.h1 == base.h1  # exact, not approximate
    assert again.h2 == base.h2
    assert again.charset_size == base.charset_size
    assert cov.total_share == base_cov.total_share


# --- coverage ----------------------------------------------------------------

def test_coverage_deterministic_toy():
    # in #ab#ab#ab#: p(b|a)=1 share 3/9; p(#|b)=1 share 3/9; p(a|#)=1 share
    # 3/9 -- all three qualify at threshold 0.5
    report = coverage_report(bigram_matrix(stream_from_words(["ab"] * 3)))
    assert len(report.qualifying_bigrams) == 3
    assert math.isclose(report.total_share, 1.0, abs_tol=1e-12)
    assert math.isclose(report.word_final_share, 3 / 9, abs_tol=1e-12)


def test_coverage_threshold_one_is_empty():
    report = coverage_report(
        bigram_matrix(stream_from_words(["ab"] * 3)), threshold=1.0)
    assert report.qualifying_bigrams == ()
    assert report.total_share == 0.0


def test_coverage_matches_oracle():
    rng = random.Random(5)
    for _ in range(40):
        words = random_words(rng, "abcd", rng.randint(1, 50))
        stream = stream_from_words(words)
        got = coverage_report(bigram_matrix(stream), threshold=0.5)
        hits, share, final = oracles.coverage_oracle(stream.symbols, 0.5)
        assert {(x, y) for x, y, _, _ in got.qualifying_bigrams} == {
            (x, y) for x, y, _, _ in hits}
        assert math.isclose(got.total_share, share, abs_tol=1e-12)
        assert math.isclose(got.word_final_share, final, abs_tol=1e-12)
        assert got.word_final_share <= got.total_share + 1e-15


def test_coverage_sorted_by_descending_conditional():
    report = coverage_report(
        bigram_matrix(stream_from_words(["ab", "ab", "ac", "de"] * 5)))
    conds = [c for _, _, c, _ in report.qualifying_bigrams]
    assert conds == sorted(conds, reverse=True)


def test_coverage_rejects_bad_threshold():
    m = bigram_matrix(stream_from_words(["ab"]))
    with pytest.raises(ValueError):
        coverage_report(m, threshold=1.5)


# --- heatmap export ----------------------------------------------------------

def test_heatmap_shape_and_headers():
    m = bigram_matrix(stream_from_words(["ab", "ba"]))
    text = heatmap_export(m, "conditional")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 4  # header + 3 symbols (#, a, b)
    assert rows[0] == ["", "#", "a", "b"]
    assert [r[0] for r in rows[1:]] == ["#", "a", "b"]
    assert all(len(r) == 4 for r in rows)


def test_heatmap_values_round_trip():
    m = bigram_matrix(stream_from_words(["aab", "ab"]))
    rows = list(csv.reader(io.StringIO(heatmap_export(m, "weighted"))))
    for i in range(len(m.symbols)):
        for j in range(len(m.symbols)):
            assert float(rows[i + 1][j + 1]) == float(
                f"{m.weighted[i, j]:.12g}")


def test_entropy_contribution_sums_to_h2():
    rng = random.Random(11)
    for _ in range(20):
        words = random_words(rng, "abcdef", rng.randint(1, 50))
        stream = stream_from_words(words)
        m = bigram_matrix(stream)
        contrib = np.array(
            PairCells.of_stream(stream).grid("entropy_contribution"))
        assert abs(contrib.sum() - entropy_report(stream).h2) < 1e-9
        text = heatmap_export(m, "entropy_contribution")
        rows = list(csv.reader(io.StringIO(text)))
        total = sum(float(v) for row in rows[1:] for v in row[1:])
        assert abs(total - entropy_report(stream).h2) < 1e-6


def test_heatmap_unknown_mode():
    m = bigram_matrix(stream_from_words(["ab"]))
    with pytest.raises(ValueError):
        heatmap_export(m, "rainbow")


def test_weighted_cells_sum_at_most_one():
    m = bigram_matrix(stream_from_words(["abcabc", "cab"]))
    assert m.weighted.sum() <= 1.0 + 1e-12
