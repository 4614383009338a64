import random

import numpy as np
import pytest

import oracles
from charentropy.errors import EmptyStreamError
from charentropy.ingest import from_words
from charentropy.metrics import (BOUNDARY, TypeCounts, stream_from_words,
                                 to_stream)
from charentropy.sukhotin import (AdjacencyMatrix, adjacency_matrix,
                                  detect_from_adjacency, detect_from_cells)


def detect_vowels(stream, include_space=False):
    return detect_from_adjacency(adjacency_matrix(stream, include_space),
                                 include_space)


def make_cv_words(rng, consonants, vowels, n_words,
                  v_weights=(0.5, 0.3, 0.2)):
    words = []
    for _ in range(n_words):
        syllables = rng.randint(1, 3)
        word = ""
        for _ in range(syllables):
            word += rng.choice(consonants)
            word += rng.choices(vowels, weights=v_weights)[0]
        words.append(word)
    return words


def test_three_word_golden():
    result = detect_vowels(stream_from_words(["ta", "to", "tu"]))
    assert result.vowels == ("t",)
    assert result.final_sums == {"t": 3, "a": -1, "o": -1, "u": -1}
    assert result.include_space is False


def test_single_symbol_text_has_no_vowels():
    result = detect_vowels(stream_from_words(["aaaa"]))
    assert result.vowels == ()


def test_adjacency_matrix_properties():
    stream = stream_from_words(["taa", "ot"])
    m = adjacency_matrix(stream, include_space=False)
    assert m.symbols == ("t", "a", "o")  # first occurrence order
    assert np.array_equal(m.counts, m.counts.T)
    assert (np.diag(m.counts) == 0).all()  # the aa pair left no trace
    t, a, o = (m.symbols.index(s) for s in "tao")
    assert m.counts[t, a] == 1
    assert m.counts[o, t] == 1
    assert m.counts[t, o] == 1


def test_adjacency_with_space_keeps_boundary_pairs():
    stream = stream_from_words(["ta", "ot"])
    with_space = adjacency_matrix(stream, include_space=True)
    assert with_space.symbols[0] == "#"
    b = 0
    assert with_space.counts[b].sum() == 4  # #t, a#, #o, t#
    without = adjacency_matrix(stream, include_space=False)
    assert "#" not in without.symbols


def test_adjacency_validation():
    with pytest.raises(ValueError):
        AdjacencyMatrix(("a", "b"), np.array([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        AdjacencyMatrix(("a", "b"), np.array([[0, 2], [1, 0]]))


def test_strict_cv_language_recovered_exactly():
    rng = random.Random(20)
    words = make_cv_words(rng, list("ptkrs"), list("aiu"), 3000)
    result = detect_vowels(stream_from_words(words))
    assert set(result.vowels) == {"a", "i", "u"}
    # selection follows frequency: 0.5 > 0.3 > 0.2
    assert result.vowels == ("a", "i", "u")


def test_include_space_detects_boundary_first_on_cv_text():
    # short words keep the boundary's adjacency mass (2 per word) ahead of
    # any single vowel's
    rng = random.Random(21)
    words = []
    for _ in range(2000):
        word = ""
        for _ in range(rng.randint(1, 2)):
            word += rng.choice("ptkrs")
            word += rng.choices("aiu", weights=(0.5, 0.3, 0.2))[0]
        words.append(word)
    result = detect_vowels(stream_from_words(words), include_space=True)
    assert result.vowels[0] == "#"
    assert {"a", "i", "u"} <= set(result.vowels)


def test_equivariance_under_relabeling():
    rng = random.Random(22)
    words = make_cv_words(rng, list("ptkrs"), list("aiu"), 500)
    base = detect_vowels(stream_from_words(words))
    mapping = dict(zip("ptkrsaiu", "12345678"))
    relabeled = ["".join(mapping[c] for c in w) for w in words]
    image = detect_vowels(stream_from_words(relabeled))
    assert image.vowels == tuple(mapping[v] for v in base.vowels)


def test_matches_independent_oracle_on_random_text():
    rng = random.Random(23)
    for _ in range(60):
        words = ["".join(rng.choice("abcdef")
                         for _ in range(rng.randint(1, 7)))
                 for _ in range(rng.randint(1, 60))]
        stream = stream_from_words(words)
        for include_space in (False, True):
            got = detect_vowels(stream, include_space)
            assert list(got.vowels) == oracles.sukhotin_oracle(
                stream.symbols, include_space)
            symbols, adj = oracles.adjacency_oracle(
                stream.symbols, include_space)
            matrix = adjacency_matrix(stream, include_space)
            assert list(matrix.symbols) == symbols
            assert matrix.counts.tolist() == [[adj[a][b] for b in symbols]
                                              for a in symbols]


def test_termination_within_alphabet_size():
    rng = random.Random(24)
    for _ in range(30):
        words = ["".join(rng.choice("abcdefgh")
                         for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 40))]
        stream = stream_from_words(words)
        result = detect_vowels(stream, include_space=True)
        n_symbols = len(set(stream.symbols))
        assert result.iterations <= n_symbols
        assert len(result.vowels) == len(set(result.vowels))


def test_tie_breaks_by_first_occurrence():
    # all four symbols start with working sum 1; the earliest occurrence
    # wins each round
    result = detect_vowels(stream_from_words(["ab", "cd"]))
    assert result.vowels == ("a", "c")


def test_detect_on_document_matches_stream_route():
    table = from_words(["ta", "to", "tu"])
    via_doc = detect_vowels(to_stream(table))
    via_stream = detect_vowels(stream_from_words(table.words()))
    types = TypeCounts.of(table)
    via_cells = detect_from_cells(types.cells(),
                                  BOUNDARY + "".join(types.forms))
    assert via_doc == via_stream == via_cells
    with pytest.raises(EmptyStreamError):
        to_stream(from_words([]))


def test_selected_sums_are_positive_and_frozen():
    rng = random.Random(25)
    words = make_cv_words(rng, list("dgm"), list("eo"), 400,
                          v_weights=(0.6, 0.4))
    result = detect_vowels(stream_from_words(words))
    for v in result.vowels:
        assert result.final_sums[v] > 0


def test_as_dict_diagnostics_flag():
    result = detect_vowels(stream_from_words(["ta", "to"]))
    plain = result.as_dict()
    assert set(plain) == {"include_space", "vowels"}
    rich = result.as_dict(diagnostics=True)
    assert set(rich) == {"include_space", "vowels", "iterations",
                         "final_sums"}
