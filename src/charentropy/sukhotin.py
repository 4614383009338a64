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

from collections.abc import Iterable

from ._lazy import lazy_import
from ._record import record
from .metrics import BOUNDARY, CharStream, PairCells
from .metrics import to_stream  # noqa: F401  (a perfbench trace point)

np = lazy_import("numpy")


@record
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


@record
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
    symbols, rows = _adjacency(PairCells.of_stream(stream), stream.symbols,
                               include_space)
    k = len(symbols)
    return AdjacencyMatrix(symbols, np.array(rows, np.int64).reshape(k, k))


def _adjacency(cells: PairCells, text: Iterable[str], include_space: bool,
               ) -> tuple[tuple[str, ...], list[list[int]]]:
    """The symbols and rows of the adjacency of ``cells``. The symbols are
    in order of first occurrence in ``text``: the stream, or a text where
    its symbols first occur in the same order, such as the boundary and
    then the word types in order of first occurrence."""
    symbols = tuple(s for s in dict.fromkeys(text)
                    if include_space or s != BOUNDARY)
    index = {s: i for i, s in enumerate(symbols)}
    rows = [[0] * len(symbols) for _ in symbols]
    for (a, b), n in cells.cells.items():
        if a != b and a in index and b in index:
            rows[index[a]][index[b]] += n
            rows[index[b]][index[a]] += n
    return symbols, rows


def detect_from_adjacency(
    matrix: AdjacencyMatrix, include_space: bool) -> SukhotinResult:
    return _detect(matrix.symbols, matrix.counts.tolist(), include_space)


def detect_from_cells(cells: PairCells, text: Iterable[str],
                      include_space: bool = False) -> SukhotinResult:
    """:func:`detect_from_adjacency` of the adjacency of ``cells``; see
    :func:`_adjacency`."""
    return _detect(*_adjacency(cells, text, include_space), include_space)


def _detect(symbols: tuple[str, ...], adjacency: list[list[int]],
            include_space: bool) -> SukhotinResult:
    n = len(symbols)
    sums = [sum(row) for row in adjacency]
    remaining = list(range(n))
    vowels: list[int] = []
    iterations = 0
    while remaining:
        iterations += 1
        best = max(remaining, key=lambda i: (sums[i], -i))
        if sums[best] <= 0:
            break
        vowels.append(best)
        remaining.remove(best)
        # A vowel's sum is final: only the remaining symbols' sums change.
        for i in remaining:
            sums[i] -= 2 * adjacency[best][i]
    return SukhotinResult(
        vowels=tuple(symbols[i] for i in vowels),
        include_space=include_space,
        iterations=iterations,
        final_sums=dict(zip(symbols, sums)),
    )
