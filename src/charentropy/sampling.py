"""Bootstrap estimation of h2 variance over random word windows.

How stable is a conditional-entropy estimate at a given sample size? This
module answers by resampling: draw many windows of W consecutive words
(start position uniform, with replacement — windows may overlap), compute
h2 on each window as if it were a standalone document, and report the
spread per window size.

Windows are word-aligned and ignore line/paragraph structure. Each window
is measured with its own leading and trailing boundary; because the full
document stream already separates words with single boundary symbols, a
window's stream is literally a contiguous slice of the document stream,
whose pairs are those of its tokens' word types (``metrics.TypeCounts``).

Counting a window costs the same whatever its length. Only the m distinct
adjacent pairs that occur in the document are counted, renumbered 0..m-1
in pair-code order. A table holds the cumulative count of each of them at
a checkpoint every s words, so a window's counts are the difference
between the first and the last checkpoint inside it, plus one short
count over the words before the first and one over the words after the
last. The spacing s is derived from the document, with no setting: it is
the smallest that keeps the table (checkpoints x m) no larger than the
document's array of pairs. h2 then takes the window's occupied pairs and
the sums of their rows (see ``metrics.h2_from_cells``), so its cost grows
with the distinct pairs in the window, at most m.

Reproducibility: the generator is numpy's default PCG64, and every
(window-size, sample-index) pair gets its own child generator derived from
the master seed via ``SeedSequence(entropy=seed, spawn_key=(size_index,
sample_index))``. Results are therefore bit-identical for a given seed
whether samples run serially or in parallel, and appending more samples
never disturbs earlier ones.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import LongTable
from .metrics import TypeCounts, h2_from_cells
from .metrics import to_stream  # noqa: F401  (a perfbench trace point)

DEFAULT_SAMPLES_PER_SIZE = 1000


@dataclass(frozen=True, slots=True)
class SamplingConfig:
    window_sizes: tuple[int, ...]
    samples_per_size: int = DEFAULT_SAMPLES_PER_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "window_sizes", tuple(self.window_sizes))
        if not self.window_sizes:
            raise ConfigError("window_sizes must be non-empty")
        for w in self.window_sizes:
            if w < 1:
                raise ConfigError(f"window size must be positive, got {w}")
        if self.samples_per_size < 1:
            raise ConfigError(
                f"samples_per_size must be >= 1, got {self.samples_per_size}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True, slots=True)
class SampleDistribution:
    window_size: int
    values: tuple[float, ...]
    mean: float
    sd: float
    min: float
    max: float

    @classmethod
    def from_values(cls, window_size: int, values) -> "SampleDistribution":
        values = tuple(values)
        return cls(
            window_size=window_size,
            values=values,
            mean=statistics.fmean(values),
            sd=statistics.stdev(values) if len(values) > 1 else 0.0,
            min=min(values),
            max=max(values),
        )


class WindowCounts:
    """A document's adjacent pairs, ready to count any window of words.

    ``spacing`` is the number of words between checkpoints; window
    ``[start, start + w)`` of the ``n_words`` words is measured by
    :meth:`h2`.
    """

    def __init__(self, types: TypeCounts) -> None:
        if types.ids is None:
            raise ValueError("WindowCounts needs the tokens' type ids")
        pairs = types.pairs()
        k = len(pairs.symbols)
        # Renumber the pairs (a, b) that occur (the types') in the order of
        # a * k + b, so that the pairs of one row are adjacent. Counts, and
        # so pair numbers, fit 32 bits unless the text has 2**31 characters.
        occurring, pair_of_code = np.unique(pairs.codes, return_inverse=True)
        m = len(occurring)
        # The text's pairs are those of its tokens' types, in token order.
        sizes = np.diff(pairs.offsets)[types.ids]
        ends = np.cumsum(sizes)
        n_pairs = int(ends[-1])
        small = np.int32 if n_pairs < 2 ** 31 else np.int64
        self._pairs = pair_of_code[np.arange(n_pairs) + np.repeat(
            pairs.offsets[types.ids] - ends + sizes, sizes)].astype(small)
        self._m = m
        # The pairs of row i of the count matrix are pairs
        # row_starts[i]:row_starts[i + 1] of the m; _row_of[j] is the row of
        # pair j, numbered over the rows that occur.
        rows = occurring // k
        row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
        self._row_starts = row_starts
        self._row_of = np.repeat(np.arange(len(row_starts)),
                                 np.diff(row_starts, append=m))
        # The window of words [i, i+w) spans pair indices [boundaries[i],
        # boundaries[i+w]).
        self._boundaries = np.concatenate(([0], ends))
        self.n_words = len(sizes)
        # The smallest spacing at which the table, one row of m counts per
        # checkpoint at words 0, spacing, 2 * spacing, ... <= n_words,
        # holds no more numbers than the text has pairs.
        self.spacing = self.n_words // (n_pairs // m) + 1
        # _cumulative[j] counts the pairs before checkpoint j, the boundary
        # before word j * spacing.
        self._checkpoints = self._boundaries[::self.spacing]
        self._cumulative = np.zeros((len(self._checkpoints), m), dtype=small)
        for j in range(1, len(self._checkpoints)):
            self._cumulative[j] = self._cumulative[j - 1] + np.bincount(
                self._pairs[self._checkpoints[j - 1]:self._checkpoints[j]],
                minlength=m)

    def h2(self, start: int, w: int) -> float:
        """h2 of the window of words ``[start, start + w)``."""
        end = start + w
        first, last = -(-start // self.spacing), end // self.spacing
        lo, hi = self._boundaries[start], self._boundaries[end]
        if first > last:  # no checkpoint inside the window
            counts = np.bincount(self._pairs[lo:hi], minlength=self._m)
        else:
            counts = (self._cumulative[last] - self._cumulative[first]
                      + np.bincount(self._pairs[lo:self._checkpoints[first]],
                                    minlength=self._m)
                      + np.bincount(self._pairs[self._checkpoints[last]:hi],
                                    minlength=self._m))
        row_sums = np.add.reduceat(counts, self._row_starts)[self._row_of]
        occupied = np.flatnonzero(counts)
        return h2_from_cells(counts[occupied], row_sums[occupied], hi - lo)


def sample_h2(document: LongTable | TypeCounts,
              cfg: SamplingConfig) -> list[SampleDistribution]:
    """Resample h2 at each configured window size, over a table or its
    TypeCounts with the tokens kept. Raises ConfigError naming the
    offending size if any window exceeds the document's word count."""
    if isinstance(document, LongTable):
        document = TypeCounts.of(document)
    windows = WindowCounts(document)
    n_words = windows.n_words
    too_big = [w for w in cfg.window_sizes if w > n_words]
    if too_big:
        raise ConfigError(
            f"window size {too_big[0]} exceeds document word count {n_words}")

    results = []
    for size_index, w in enumerate(cfg.window_sizes):
        values = []
        for sample_index in range(cfg.samples_per_size):
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=cfg.seed, spawn_key=(size_index, sample_index)))
            start = int(rng.integers(0, n_words - w + 1))
            values.append(windows.h2(start, w))
        results.append(SampleDistribution.from_values(w, values))
    return results


def distributions_to_dict(
    distributions, *, include_values: bool = False) -> list[dict]:
    out = []
    for d in distributions:
        entry = {
            "window": d.window_size,
            "n": len(d.values),
            "mean": d.mean,
            "sd": d.sd,
            "min": d.min,
            "max": d.max,
        }
        if include_values:
            entry["values"] = list(d.values)
        out.append(entry)
    return out


def distributions_to_csv(distributions) -> str:
    """Long-form CSV (window, sample_index, h2), one row per sample —
    the shape density/violin plotting tools want."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["window", "sample_index", "h2"])
    for d in distributions:
        for i, v in enumerate(d.values):
            writer.writerow([d.window_size, i, f"{v:.12g}"])
    return out.getvalue()
