"""Character-level statistics: entropy ladder, bigram matrices, coverage.

All statistics are computed over a :class:`CharStream`: the document's words
joined by the boundary symbol ``#``, with one leading and one trailing ``#``.
That construction counts every word-initial bigram (``#x``) and word-final
bigram (``x#``) exactly once, and makes ``##`` structurally impossible.

Conventions, applied uniformly and worth stating once:

* Character tokens are counted with one boundary per word, i.e. over the
  ``len(stream) - 1`` adjacent-pair observations. Concretely this is the
  distribution of *successor* positions: every character of the stream
  except the leading ``#``. For ``#aab#`` that gives ``a:2 b:1 #:1``.
* ``h1`` is the entropy of that distribution (boundary included) and ``h2``
  is the entropy of the successor conditioned on the current character, so
  ``h2 <= h1`` holds exactly, not just asymptotically.
* ``charset_size`` counts the alphabet without the boundary; ``h0`` is the
  log2 of the alphabet size *plus one* for the boundary, so that
  ``h1 <= h0`` is likewise exact.
* Logs are base 2; empty cells contribute zero.
* Sums use ``math.fsum``, which is order-independent, so statistics are
  bit-for-bit invariant under any relabeling of the alphabet.

Every statistic here is a function of the pair-count matrix, and that
matrix is ``sum over types t of freq(t) * pairs("#" + t + "#")``, so it can
be counted from word types instead of tokens. :class:`TypeCounts` holds
a document's distinct words in first-occurrence order and their
frequencies, folded from a long table's rows slice by slice, and on
request each token's type id. Every statistic is a method of the matrix's
occupied cells, a :class:`PairCells`, the one counting primitive. Its cells
are counted in Python from word types (:meth:`TypeCounts.cells`) or from a
stream (:meth:`PairCells.of_stream`, which the stream functions use), and
the cells of a text's disjoint parts sum to the text's
(:meth:`PairCells.summed`). Only ``sample``'s windows, counted from the
types' pair codes (:meth:`TypeCounts.pairs`), count in numpy, and their h2
divides in numpy.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from ._lazy import lazy_import
from ._record import asdict, record, replace
from .errors import DataError, EmptyStreamError
from .ingest import LongTable, tally_by_frequency

np = lazy_import("numpy")

BOUNDARY = "#"

HEATMAP_MODES = ("conditional", "weighted", "entropy_contribution")


@record
class CharStream:
    """A boundary-delimited character sequence plus its letter alphabet."""

    symbols: str
    alphabet: frozenset[str]

    def __post_init__(self) -> None:
        s = self.symbols
        if len(s) < 2:
            raise ValueError("stream must hold at least one word")
        if s[0] != BOUNDARY or s[-1] != BOUNDARY:
            raise ValueError("stream must begin and end with the boundary")
        if BOUNDARY * 2 in s:
            raise ValueError("stream contains consecutive boundaries")
        if BOUNDARY in self.alphabet:
            raise ValueError("alphabet must not contain the boundary symbol")
        stray = set(s) - self.alphabet - {BOUNDARY}
        if stray:
            raise ValueError(
                f"stream symbols {sorted(stray)!r} missing from alphabet")

    def words(self) -> list[str]:
        return [w for w in self.symbols.split(BOUNDARY) if w]


def stream_from_words(words, alphabet=None) -> CharStream:
    """``[ab, c] -> '#ab#c#'``. Alphabet defaults to the characters seen."""
    words = list(words)
    if not words:
        raise EmptyStreamError("no words to stream")
    joined = BOUNDARY + BOUNDARY.join(words) + BOUNDARY
    if alphabet is None:
        alphabet = frozenset("".join(words))
    return CharStream(symbols=joined, alphabet=frozenset(alphabet))


def to_stream(table: LongTable) -> CharStream:
    """The table's words as a stream.

    Raises DataError naming the first word, and its line, that contains the
    boundary symbol: streamed, it would split into two words, or begin or
    end with an empty one.
    """
    if not len(table):
        raise EmptyStreamError(
            f"document {table.source_id!r} has no words")
    words = table.words()
    if any(BOUNDARY in w for w in set(words)):
        i = next(i for i, w in enumerate(words) if BOUNDARY in w)
        raise _boundary_error(table.column("line_number")[i], words[i])
    return stream_from_words(words)


def _boundary_error(line: int, word: str) -> DataError:
    return DataError(f"line {line}: word {word!r} contains the word "
                     f"boundary symbol {BOUNDARY!r}")


@record
class BigramMatrix:
    """Adjacent-pair statistics over a stream.

    ``symbols`` is the row/column order (codepoint-sorted; the boundary
    sorts first). ``counts[i, j]`` is the number of times symbol j follows
    symbol i. ``joint`` is counts normalized by the total pair count;
    ``conditional`` rows are counts normalized by row sums (all-zero rows
    stay zero); ``weighted`` is the elementwise product of the two.
    """

    symbols: tuple[str, ...]
    counts: np.ndarray
    joint: np.ndarray
    conditional: np.ndarray
    weighted: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


def symbol_codes(stream: CharStream) -> tuple[tuple[str, ...], np.ndarray]:
    """Codepoint-sorted symbols (boundary included) and the stream as
    indices into them."""
    symbols = tuple(sorted(stream.alphabet | {BOUNDARY}))
    points = np.frombuffer(
        stream.symbols.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    order = np.array([ord(c) for c in symbols], dtype="<u4")
    return symbols, np.searchsorted(order, points).astype(np.int64)


@record
class TypePairs:
    """The adjacent-pair codes of each word type's ``#form#``, as CSR arrays.

    ``symbols`` are the forms' characters and the boundary in codepoint
    order, as in :meth:`PairCells.of_stream`; pair (a, b) has the code
    ``a * len(symbols) + b``. Type t's ``len(forms[t]) + 1`` codes are
    ``codes[offsets[t]:offsets[t + 1]]``.
    """

    forms: tuple[str, ...]
    symbols: tuple[str, ...]
    offsets: np.ndarray
    codes: np.ndarray


@record
class TypeCounts:
    """The words of a long table as word types.

    ``forms`` are the distinct words in first-occurrence order and
    ``freq[t]`` is the number of tokens of type t. ``boundary_word`` is the
    ``(line_number, word)`` of the first token that contains the boundary
    symbol, or None. With the tokens kept (else None), token i is
    ``forms[ids[i]]``.
    """

    source_id: str
    forms: tuple[str, ...]
    freq: tuple[int, ...]
    boundary_word: tuple[int, str] | None
    ids: np.ndarray | None = None

    @classmethod
    def fold(cls, slices: Iterable[tuple[str, Sequence[str], Callable]], *,
             tokens: bool = False) -> "TypeCounts":
        """Count the words of ``ingest.tsv_slices``, holding one slice's
        words and the counts so far, and if ``tokens``, the int32 type ids.
        Only the first word holding the boundary asks ``line_of`` its line."""
        counts: Counter = Counter()  # the types, unless tokens are kept
        index: dict[str, int] = {}  # type ids, when tokens are kept
        ids: list[np.ndarray] = [np.zeros(0, np.int32)] if tokens else []
        source_id, boundary_word = "", None
        for source_id, words, line_of in slices:
            if not tokens:
                counts.update(words)
            else:
                for w in dict.fromkeys(words):
                    index.setdefault(w, len(index))
                ids.append(np.fromiter(map(index.__getitem__, words),
                                       np.int32, len(words)))
            if boundary_word is None and BOUNDARY in "".join(words):
                i = next(i for i, w in enumerate(words) if BOUNDARY in w)
                boundary_word = (line_of(i), words[i])
        token_ids = np.concatenate(ids) if tokens else None
        if tokens:  # type ids number the forms in first-occurrence order
            counts = dict(zip(index, np.bincount(token_ids).tolist()))
        return cls(source_id=source_id, forms=tuple(counts),
                   freq=tuple(counts.values()), boundary_word=boundary_word,
                   ids=token_ids)

    @classmethod
    def of(cls, table: LongTable) -> "TypeCounts":
        """The table's word types and tokens, folded as one slice."""
        return cls.fold([(table.source_id, table.columns[0],
                          table.column("line_number").__getitem__)],
                        tokens=True)

    def pairs(self) -> TypePairs:
        """The pair codes of the types' forms."""
        forms = self.checked()
        symbols, codes = symbol_codes(stream_from_words(forms))
        offsets = np.zeros(len(forms) + 1, dtype=np.intp)
        np.cumsum([len(form) + 1 for form in forms], out=offsets[1:])
        return TypePairs(forms=forms, symbols=symbols, offsets=offsets,
                         codes=codes[:-1] * len(symbols) + codes[1:])

    def cells(self) -> PairCells:
        """The pair counts of the types' forms, counted in Python: the forms
        of one frequency, joined, are a stream whose pairs are theirs."""
        def pairs(forms: list[str]) -> Iterator[tuple[str, str]]:
            s = BOUNDARY + BOUNDARY.join(forms) + BOUNDARY
            return zip(s, s[1:])
        cells = tally_by_frequency(self.checked(), self.freq, pairs)
        return PairCells(tuple(sorted({a for a, _ in cells})), cells)

    def checked(self) -> tuple[str, ...]:
        """The types' forms. Raises what :func:`to_stream` does on them:
        EmptyStreamError, or DataError."""
        if not self.forms:
            raise EmptyStreamError(
                f"document {self.source_id!r} has no words")
        if self.boundary_word is not None:
            raise _boundary_error(*self.boundary_word)
        return self.forms


@record
class PairCells:
    """A pair-count matrix over ``symbols`` (codepoint order, so the
    boundary first) by its occupied cells: symbol b follows symbol a
    ``cells[a, b]`` times, never 0. Every statistic is computed from it.
    Python divides its counts, exactly as numpy below 2**53."""

    symbols: tuple[str, ...]
    cells: dict[tuple[str, str], int]

    @classmethod
    def summed(cls, cells: Iterable[tuple[tuple, int]]) -> "PairCells":
        """The matrix of ``(pair, count)`` items, each pair's counts summed."""
        total: dict[tuple[str, str], int] = {}
        for pair, n in cells:
            total[pair] = total.get(pair, 0) + n
        # Every symbol, the boundary too, is followed by another.
        return cls(tuple(sorted({a for a, _ in total})), total)

    @classmethod
    def of_stream(cls, stream: CharStream) -> "PairCells":
        """The stream's pairs over its alphabet and the boundary."""
        s = stream.symbols
        return cls(tuple(sorted(stream.alphabet | {BOUNDARY})),
                   dict(Counter(zip(s, s[1:]))))

    @classmethod
    def of(cls, symbols: Sequence[str], counts: np.ndarray) -> "PairCells":
        rows, cols = np.nonzero(counts)
        cells = zip(rows.tolist(), cols.tolist(), counts[rows, cols].tolist())
        return cls(tuple(symbols),
                   {(symbols[i], symbols[j]): n for i, j, n in cells})

    def sums(self, side: int) -> dict[str, int]:
        """The sum of each occupied row (``side`` 0) or column (1)."""
        out: dict[str, int] = {}
        for pair, n in self.cells.items():
            out[pair[side]] = out.get(pair[side], 0) + n
        return out

    def h2(self) -> float:
        """Conditional entropy of the successor given the current symbol:
        each cell adds ``(c/T) * log2(rowsum/c)``."""
        total, rows = sum(self.cells.values()), self.sums(0)
        if total <= 0:
            raise ValueError("empty count matrix")
        return entropy_from_terms(
            [n / total for n in self.cells.values()],
            [rows[a] / n for (a, _), n in self.cells.items()])

    def entropy_report(self, word_type_count: int) -> "EntropyReport":
        """h1 is h2 of the column sums as one row, and the boundary's column
        sum is the number of words, as every word ends with it."""
        columns = self.sums(1)
        one_row = {(BOUNDARY, b): n for b, n in columns.items()}
        return EntropyReport(
            charset_size=len(self.symbols) - 1,
            h0=math.log2(len(self.symbols)),
            h1=replace(self, cells=one_row).h2(), h2=self.h2(),
            token_count=sum(columns.values()), word_type_count=word_type_count,
            word_token_count=columns.get(BOUNDARY, 0))

    def charset(self) -> list[tuple[str, int, float]]:
        """``(symbol, count, proportion)`` of the successor positions (the
        column sums), by descending count, ties by codepoint."""
        columns = self.sums(1)
        total = sum(columns.values())
        ranked = sorted(columns.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(c, n, n / total) for c, n in ranked]

    def grid(self, view: str) -> list[list[float]]:
        """The rows of a view, empty cells 0.0: "joint" p(xy), "conditional"
        p(y|x), "weighted" p(xy) p(y|x), or "entropy_contribution"
        p(xy) * -log2 p(y|x), the cell's share of h2."""
        of, total, rows = _VIEWS[view], sum(self.cells.values()), self.sums(0)
        return [[of(n / total, n / rows[a]) if (n := self.cells.get((a, b)))
                 else 0.0 for b in self.symbols] for a in self.symbols]

    def heatmap(self, mode: str) -> str:
        """One view as CSV with symbol headers on both axes."""
        if mode not in HEATMAP_MODES:
            raise ValueError(f"unknown heatmap mode {mode!r}; expected one "
                             f"of {HEATMAP_MODES}")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["", *self.symbols])
        for sym, row in zip(self.symbols, self.grid(mode)):
            writer.writerow([sym] + [f"{v:.12g}" for v in row])
        return out.getvalue()

    def coverage(self, threshold: float = 0.5) -> "CoverageReport":
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"threshold must be within [0, 1], got {threshold}")
        total, rows = sum(self.cells.values()), self.sums(0)
        found = sorted(((a, b, n / rows[a], n / total)
                        for (a, b), n in self.cells.items()
                        if n / rows[a] > threshold),
                       key=lambda t: (-t[2], t[0], t[1]))
        return CoverageReport(
            threshold=threshold, qualifying_bigrams=tuple(found),
            total_share=math.fsum(s for _, _, _, s in found),
            word_final_share=math.fsum(
                s for _, y, _, s in found if y == BOUNDARY))


_VIEWS = {"joint": lambda p, c: p, "conditional": lambda p, c: c,
          "weighted": operator.mul,
          "entropy_contribution": lambda p, c: p * -math.log2(c)}


def bigram_matrix(stream: CharStream) -> BigramMatrix:
    """The stream's pair counts as int64 arrays, its views those of
    :meth:`PairCells.grid`."""
    cells = PairCells.of_stream(stream)
    symbols, k = cells.symbols, len(cells.symbols)
    counts = np.array([[cells.cells.get((a, b), 0) for b in symbols]
                       for a in symbols], dtype=np.int64).reshape(k, k)
    joint, conditional, weighted = (
        np.array(cells.grid(view), dtype=float).reshape(k, k)
        for view in ("joint", "conditional", "weighted"))
    for arr in (counts, joint, conditional, weighted):
        arr.setflags(write=False)
    return BigramMatrix(symbols=symbols, counts=counts, joint=joint,
                        conditional=conditional, weighted=weighted)


def h2_from_cells(cells: np.ndarray, row_sums: np.ndarray, total) -> float:
    """:meth:`PairCells.h2` from the occupied cells alone, in any order:
    ``cells`` are the nonzero counts, ``row_sums[i]`` is the sum of the row
    holding ``cells[i]``, and ``total`` is the sum of all counts.

    The divisions run in numpy, faster than Python's on a few hundred
    cells, and are the same IEEE operations as on Python numbers."""
    return entropy_from_terms((cells / float(total)).tolist(),
                              (row_sums / cells).tolist())


def entropy_from_terms(joint: list[float], ratios: list[float]) -> float:
    """``fsum(joint[i] * log2(ratios[i]))`` by ``math.log2``, which can
    differ from ``np.log2`` in the last bit: every entropy ends here."""
    return math.fsum(map(operator.mul, joint, map(math.log2, ratios)))


@record
class EntropyReport:
    """The entropy ladder and size census for one document."""

    charset_size: int
    h0: float
    h1: float
    h2: float
    token_count: int
    word_token_count: int
    word_type_count: int

    def as_dict(self) -> dict:
        return asdict(self)


def entropy_report(stream: CharStream) -> EntropyReport:
    return PairCells.of_stream(stream).entropy_report(
        len(set(stream.words())))


@record
class CoverageReport:
    """Bigrams whose successor is near-forced, and how much text they cover.

    ``qualifying_bigrams`` lists ``(x, y, conditional_prob, token_share)``
    for every bigram type with conditional probability strictly above the
    threshold, ordered by descending conditional probability (ties by the
    pair's codepoints). ``token_share`` is the bigram's joint probability;
    ``word_final_share`` sums the shares of qualifying bigrams that end a
    word.
    """

    threshold: float
    qualifying_bigrams: tuple[tuple[str, str, float, float], ...]
    total_share: float
    word_final_share: float

    def as_dict(self) -> dict:
        return {**asdict(self), "qualifying_bigrams": [
            {"x": x, "y": y, "conditional": c, "token_share": s}
            for x, y, c, s in self.qualifying_bigrams]}


def coverage_report(matrix: BigramMatrix, threshold: float = 0.5) -> CoverageReport:
    return PairCells.of(matrix.symbols, matrix.counts).coverage(threshold)


def heatmap_export(matrix: BigramMatrix, mode: str) -> str:
    """Render one matrix view as CSV with symbol headers on both axes."""
    return PairCells.of(matrix.symbols, matrix.counts).heatmap(mode)
