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
request each token's type id, so that a selection of the tokens is a
frequency vector over the types, ``np.bincount(ids[mask])``.
:meth:`TypeCounts.pairs` lays out the pair codes of each type's ``#form#``
as CSR arrays (one offset per type into one code array), for the types'
forms or a rewrite of them, and :meth:`TypePairs.counts` turns a
frequency vector into the count matrix with one weighted
``np.bincount``. Each statistic is computed from a count matrix
(``*_from_counts``); :func:`to_stream` and :func:`pair_counts` count token
by token, stay as the reference, and feed the stream functions.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import islice

from ._lazy import lazy_import
from .errors import DataError, EmptyStreamError
from .ingest import RECORD_FIELDS, LongTable

np = lazy_import("numpy")

BOUNDARY = "#"

HEATMAP_MODES = ("conditional", "weighted", "entropy_contribution")


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

    def pair_count(self, x: str, y: str) -> int:
        return int(self.counts[self.index(x), self.index(y)])


def symbol_codes(stream: CharStream) -> tuple[tuple[str, ...], np.ndarray]:
    """Codepoint-sorted symbols (boundary included) and the stream as
    indices into them."""
    symbols = tuple(sorted(stream.alphabet | {BOUNDARY}))
    points = np.frombuffer(
        stream.symbols.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    order = np.array([ord(c) for c in symbols], dtype="<u4")
    return symbols, np.searchsorted(order, points).astype(np.int64)


def _pair_codes(stream: CharStream) -> tuple[tuple[str, ...], np.ndarray]:
    """Codepoint-sorted symbols and the code ``a * len(symbols) + b`` of
    each adjacent pair (a, b) of the stream."""
    symbols, codes = symbol_codes(stream)
    return symbols, codes[:-1] * len(symbols) + codes[1:]


def pair_counts(stream: CharStream) -> tuple[tuple[str, ...], np.ndarray]:
    """Count matrix over codepoint-sorted symbols (boundary included)."""
    symbols, codes = _pair_codes(stream)
    k = len(symbols)
    return symbols, np.bincount(codes, minlength=k * k).reshape(k, k)


@dataclass(frozen=True, slots=True)
class TypePairs:
    """The adjacent-pair codes of each word type's ``#form#``, as CSR arrays.

    ``symbols`` are the forms' characters and the boundary in codepoint
    order, as in :func:`pair_counts`; pair (a, b) has the code
    ``a * len(symbols) + b``. Type t's ``len(forms[t]) + 1`` codes are
    ``codes[offsets[t]:offsets[t + 1]]``.
    """

    forms: tuple[str, ...]
    symbols: tuple[str, ...]
    offsets: np.ndarray
    codes: np.ndarray

    def counts(self, freq: np.ndarray) -> np.ndarray:
        """The pair-count matrix of a text holding ``freq[t]`` tokens of
        each type t: the ``pair_counts`` matrix of those tokens' stream,
        with a zero row and column for each symbol they lack."""
        k = len(self.symbols)
        weights = np.repeat(freq, np.diff(self.offsets))
        flat = np.bincount(self.codes, weights=weights, minlength=k * k)
        return flat.astype(np.int64).reshape(k, k)


_LINE_NUMBER = RECORD_FIELDS.index("line_number")


@dataclass(frozen=True, slots=True)
class TypeCounts:
    """The words of a long table as word types.

    ``forms`` are the distinct words in first-occurrence order and
    ``freq[t]`` is the number of tokens of type t. ``boundary_word`` is the
    ``(line_number, word)`` of the first token that contains the boundary
    symbol, or None. With the tokens kept (else None), token i is
    ``forms[ids[i]]``; :meth:`of` also keeps ``lines[t]``, the line of type
    t's first token.
    """

    source_id: str
    forms: tuple[str, ...]
    freq: tuple[int, ...]
    boundary_word: tuple[int, str] | None
    ids: np.ndarray | None = None
    lines: tuple[int, ...] | None = None

    @classmethod
    def fold(cls, slices: Iterable[tuple[str, list]], *,
             tokens: bool = False) -> "TypeCounts":
        """Count the rows of ``ingest.tsv_slices``, holding one slice's words
        and the counts so far, and if ``tokens``, the int32 type ids."""
        counts: Counter = Counter()  # the types, unless tokens are kept
        index: dict[str, int] = {}  # type ids, when tokens are kept
        ids: list[np.ndarray] = [np.zeros(0, np.int32)] if tokens else []
        source_id, boundary_word = "", None
        for source_id, columns in slices:
            words = list(columns[0])
            if not tokens:
                counts.update(words)
            else:
                for w in dict.fromkeys(words):
                    index.setdefault(w, len(index))
                ids.append(np.fromiter(map(index.__getitem__, words),
                                       np.int32, len(words)))
            if boundary_word is None and BOUNDARY in "".join(words):
                i = next(i for i, w in enumerate(words) if BOUNDARY in w)
                boundary_word = (next(islice(columns[_LINE_NUMBER], i, None)),
                                 words[i])
        token_ids = np.concatenate(ids) if tokens else None
        if tokens:  # type ids number the forms in first-occurrence order
            counts = dict(zip(index, np.bincount(token_ids).tolist()))
        return cls(source_id=source_id, forms=tuple(counts),
                   freq=tuple(counts.values()), boundary_word=boundary_word,
                   ids=token_ids)

    @classmethod
    def of(cls, table: LongTable) -> "TypeCounts":
        """The table's word types and tokens, folded as one slice, and each
        type's first line."""
        types = cls.fold([(table.source_id, table.columns)], tokens=True)
        first = np.unique(types.ids, return_index=True)[1].tolist()
        lines = table.columns[_LINE_NUMBER]
        return replace(types, lines=tuple(lines[i] for i in first))

    def frequencies(self, mask: bytes | np.ndarray) -> np.ndarray:
        """Tokens of each type that ``mask`` (bools or 0/1 bytes) keeps."""
        keep = np.frombuffer(mask, bool)
        return np.bincount(self.ids[keep], minlength=len(self.forms))

    def pairs(self, forms: Sequence[str] | None = None) -> TypePairs:
        """Pair codes of the types' forms or of ``forms``, a rewrite of them
        one for one (which needs :meth:`of`'s lines). Raises what
        :func:`to_stream` raises on the (rewritten) table: EmptyStreamError,
        or DataError naming the first word that holds the boundary."""
        if not self.forms:
            raise EmptyStreamError(
                f"document {self.source_id!r} has no words")
        if forms is None:
            if self.boundary_word is not None:
                raise _boundary_error(*self.boundary_word)
            forms = self.forms
        elif len(forms := tuple(forms)) != len(self.forms):
            raise ValueError(f"{len(forms)} forms for {len(self.forms)} types")
        elif any(BOUNDARY in form for form in forms):
            t = next(t for t, form in enumerate(forms) if BOUNDARY in form)
            raise _boundary_error(self.lines[t], forms[t])
        symbols, codes = _pair_codes(stream_from_words(forms))
        offsets = np.zeros(len(forms) + 1, dtype=np.intp)
        np.cumsum([len(form) + 1 for form in forms], out=offsets[1:])
        return TypePairs(forms=forms, symbols=symbols, offsets=offsets,
                         codes=codes)


def merge_symbols(
    symbols: Sequence[str], counts: np.ndarray, targets: Sequence[str],
) -> tuple[tuple[str, ...], np.ndarray]:
    """The count matrix after renaming each symbol to its entry in
    ``targets``: symbols given the same name are merged and their rows and
    columns summed. The new symbols are in codepoint order."""
    merged = tuple(sorted(set(targets)))
    index = {s: i for i, s in enumerate(merged)}
    to = np.array([index[t] for t in targets], dtype=np.intp)
    out = np.zeros((len(merged), len(merged)), dtype=counts.dtype)
    np.add.at(out, (to[:, None], to[None, :]), counts)
    return merged, out


def bigram_matrix(stream: CharStream) -> BigramMatrix:
    return bigram_matrix_from_counts(*pair_counts(stream))


def bigram_matrix_from_counts(symbols: tuple[str, ...],
                              counts: np.ndarray) -> BigramMatrix:
    """The bigram matrix over ``symbols`` of the pair-count matrix
    ``counts``."""
    total = counts.sum()
    joint = counts / total
    row_sums = counts.sum(axis=1, keepdims=True)
    conditional = np.divide(
        counts, row_sums, out=np.zeros_like(joint), where=row_sums > 0)
    for arr in (counts, joint, conditional):
        arr.setflags(write=False)
    weighted = joint * conditional
    weighted.setflags(write=False)
    return BigramMatrix(symbols=symbols, counts=counts, joint=joint,
                        conditional=conditional, weighted=weighted)


def h2_from_counts(counts: np.ndarray) -> float:
    """Conditional entropy of the successor given the current symbol.

    Each occupied cell contributes ``(c/T) * log2(rowsum/c)``; the terms
    depend only on the count values, never on which symbol owns them, and
    fsum is order-independent, so any bijective relabeling reproduces the
    result exactly.
    """
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty count matrix")
    rows, cols = np.nonzero(counts)
    return h2_from_cells(counts[rows, cols], counts.sum(axis=1)[rows], total)


def h2_from_cells(cells: np.ndarray, row_sums: np.ndarray, total) -> float:
    """:func:`h2_from_counts` from the occupied cells alone, in any order:
    ``cells`` are the nonzero counts, ``row_sums[i]`` is the sum of the row
    holding ``cells[i]``, and ``total`` is the sum of all counts.

    The two divisions run in numpy and are the same IEEE operations as on
    Python numbers; the logarithm stays ``math.log2``, which can differ
    from ``np.log2`` in the last bit.
    """
    joint = (cells / float(total)).tolist()
    ratios = (row_sums / cells).tolist()
    return math.fsum(map(operator.mul, joint, map(math.log2, ratios)))


def h1_from_counts(counts: np.ndarray) -> float:
    """Entropy of the successor marginal (column sums / total)."""
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty count matrix")
    t = float(total)
    col_sums = counts.sum(axis=0)
    return math.fsum(
        (c / t) * math.log2(t / c)
        for c in col_sums[col_sums > 0].tolist())


@dataclass(frozen=True, slots=True)
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
        return {
            "charset_size": self.charset_size,
            "h0": self.h0,
            "h1": self.h1,
            "h2": self.h2,
            "token_count": self.token_count,
            "word_token_count": self.word_token_count,
            "word_type_count": self.word_type_count,
        }


def entropy_report(stream: CharStream) -> EntropyReport:
    symbols, counts = pair_counts(stream)
    return entropy_report_from_counts(symbols, counts,
                                      len(set(stream.words())))


def entropy_report_from_counts(symbols: Sequence[str], counts: np.ndarray,
                               word_type_count: int) -> EntropyReport:
    """The report of a text whose pair-count matrix over ``symbols`` (the
    boundary and the alphabet) is ``counts`` and which holds
    ``word_type_count`` distinct words. Every word ends with the boundary,
    so the boundary's column sum is the number of words."""
    charset = len(symbols) - 1
    return EntropyReport(
        charset_size=charset,
        h0=math.log2(charset + 1),
        h1=h1_from_counts(counts),
        h2=h2_from_counts(counts),
        token_count=int(counts.sum()),
        word_token_count=int(counts[:, symbols.index(BOUNDARY)].sum()),
        word_type_count=word_type_count,
    )


def charset_from_counts(
    symbols: Sequence[str], counts: np.ndarray,
) -> list[tuple[str, int, float]]:
    """Ranked census of the successor positions, ``(symbol, count,
    proportion)``: the column sums of ``counts``, which count each
    character of each word once and the boundary once per word. Symbols
    that occur nowhere are left out; sorted by descending count, ties by
    codepoint."""
    column_sums = counts.sum(axis=0).tolist()
    total = sum(column_sums)
    ranked = sorted(((s, n) for s, n in zip(symbols, column_sums) if n),
                    key=lambda kv: (-kv[1], kv[0]))
    return [(c, n, n / total) for c, n in ranked]


@dataclass(frozen=True, slots=True)
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
        return {
            "threshold": self.threshold,
            "qualifying_bigrams": [
                {"x": x, "y": y, "conditional": c, "token_share": s}
                for x, y, c, s in self.qualifying_bigrams
            ],
            "total_share": self.total_share,
            "word_final_share": self.word_final_share,
        }


def coverage_report(matrix: BigramMatrix, threshold: float = 0.5) -> CoverageReport:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be within [0, 1], got {threshold}")
    found = []
    rows, cols = np.nonzero(matrix.conditional > threshold)
    for i, j in zip(rows.tolist(), cols.tolist()):
        found.append((
            matrix.symbols[i], matrix.symbols[j],
            float(matrix.conditional[i, j]), float(matrix.joint[i, j]),
        ))
    found.sort(key=lambda t: (-t[2], t[0], t[1]))
    return CoverageReport(
        threshold=threshold,
        qualifying_bigrams=tuple(found),
        total_share=math.fsum(s for _, _, _, s in found),
        word_final_share=math.fsum(
            s for _, y, _, s in found if y == BOUNDARY),
    )


def entropy_contribution(matrix: BigramMatrix) -> np.ndarray:
    """Per-cell share of h2: ``p(xy) * -log2 p(y|x)``; the cells sum to h2."""
    out = np.zeros_like(matrix.joint)
    rows, cols = np.nonzero(matrix.counts)
    for i, j in zip(rows.tolist(), cols.tolist()):
        out[i, j] = matrix.joint[i, j] * -math.log2(matrix.conditional[i, j])
    return out


def heatmap_export(matrix: BigramMatrix, mode: str) -> str:
    """Render one matrix view as CSV with symbol headers on both axes."""
    if mode == "conditional":
        grid = matrix.conditional
    elif mode == "weighted":
        grid = matrix.weighted
    elif mode == "entropy_contribution":
        grid = entropy_contribution(matrix)
    else:
        raise ValueError(
            f"unknown heatmap mode {mode!r}; expected one of {HEATMAP_MODES}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(matrix.symbols))
    for i, sym in enumerate(matrix.symbols):
        writer.writerow([sym] + [f"{v:.12g}" for v in grid[i]])
    return out.getvalue()
