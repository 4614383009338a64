"""Sukhotin's algorithm: split an alphabet into vowels and consonants.

The premise: in ordinary writing, vowels and consonants alternate far more
often than they cluster, so the symbol most often adjacent to others is
probably a vowel, and symbols frequently adjacent to *it* are probably not.

The classical procedure, run on a symmetric adjacency matrix with a forced
zero diagonal:

1. start each symbol's working sum at its adjacency row sum;
2. pick the symbol with the largest working sum, provided it is positive
   (ties break by first occurrence in the text) — call it a vowel;
3. for every remaining symbol c, subtract twice its adjacency count with
   the new vowel from c's working sum;
4. repeat until the largest remaining sum is not positive.

The boundary symbol can participate as an ordinary symbol
(``include_space=True``) — on alphabetic text it then tends to be picked
first, being adjacent to nearly everything — or be excluded, which drops
every word-edge adjacency.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .ingest import LongTable
from .metrics import BOUNDARY, CharStream, pair_counts, to_stream


@dataclass(frozen=True, slots=True)
class AdjacencyMatrix:
    """Symmetric neighbour counts; symbols in first-occurrence order."""

    symbols: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        c = self.counts
        if c.shape != (len(self.symbols), len(self.symbols)):
            raise ValueError("counts shape does not match symbols")
        if (np.diag(c) != 0).any():
            raise ValueError("adjacency diagonal must be zero")
        if (c != c.T).any():
            raise ValueError("adjacency matrix must be symmetric")


@dataclass(frozen=True, slots=True)
class SukhotinResult:
    vowels: tuple[str, ...]
    include_space: bool
    iterations: int
    final_sums: dict[str, int]

    def as_dict(self, *, diagnostics: bool = False) -> dict:
        out = {"include_space": self.include_space,
               "vowels": list(self.vowels)}
        if diagnostics:
            out["iterations"] = self.iterations
            out["final_sums"] = dict(self.final_sums)
        return out


def adjacency_matrix(stream: CharStream, include_space: bool) -> AdjacencyMatrix:
    """Count neighbour pairs; identical neighbours never hit the diagonal.

    The adjacency is the bigram count matrix plus its transpose with the
    diagonal zeroed. With ``include_space=False``, pairs touching the
    boundary are dropped entirely, though letters appearing only at word
    edges keep a (zero) row so the symbol inventory still reflects the text.
    """
    return adjacency_from_counts(*pair_counts(stream), stream.symbols,
                                 include_space)


def adjacency_from_counts(
    sorted_symbols: Sequence[str], counts: np.ndarray, text: Iterable[str],
    include_space: bool,
) -> AdjacencyMatrix:
    """:func:`adjacency_matrix` of a stream whose pair-count matrix over
    ``sorted_symbols`` is ``counts``. The symbols are ordered by their
    first occurrence in ``text``: the stream, or any text in which the
    stream's symbols first occur in the same order, such as the boundary
    followed by the word types in order of first occurrence."""
    adjacency = counts + counts.T
    np.fill_diagonal(adjacency, 0)
    symbols = tuple(s for s in dict.fromkeys(text)
                    if include_space or s != BOUNDARY)
    index = {s: i for i, s in enumerate(sorted_symbols)}
    order = [index[s] for s in symbols]
    return AdjacencyMatrix(symbols=symbols,
                           counts=adjacency[np.ix_(order, order)])


def detect_from_adjacency(
    matrix: AdjacencyMatrix, include_space: bool) -> SukhotinResult:
    n = len(matrix.symbols)
    sums = matrix.counts.sum(axis=1).tolist()
    remaining = list(range(n))
    vowels: list[int] = []
    final: dict[int, int] = {}
    iterations = 0
    while remaining:
        iterations += 1
        best = max(remaining, key=lambda i: (sums[i], -i))
        if sums[best] <= 0:
            break
        vowels.append(best)
        remaining.remove(best)
        final[best] = sums[best]
        for i in remaining:
            sums[i] -= 2 * int(matrix.counts[best, i])
    for i in remaining:
        final[i] = sums[i]
    return SukhotinResult(
        vowels=tuple(matrix.symbols[i] for i in vowels),
        include_space=include_space,
        iterations=iterations,
        final_sums={matrix.symbols[i]: final[i] for i in range(n)},
    )


def detect_vowels(stream: CharStream, include_space: bool = False) -> SukhotinResult:
    return detect_from_adjacency(
        adjacency_matrix(stream, include_space), include_space)


def detect_from_counts(
    sorted_symbols: Sequence[str], counts: np.ndarray, text: Iterable[str],
    include_space: bool = False,
) -> SukhotinResult:
    """:func:`detect_vowels` from pair counts, as in
    :func:`adjacency_from_counts`."""
    return detect_from_adjacency(
        adjacency_from_counts(sorted_symbols, counts, text, include_space),
        include_space)


def detect_on_document(
    table: LongTable, include_space: bool = False) -> SukhotinResult:
    return detect_vowels(to_stream(table), include_space)
