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
which keeps resampling cheap.

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
from .metrics import BOUNDARY, h2_from_counts, symbol_codes, to_stream

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


def sample_h2(table: LongTable, cfg: SamplingConfig) -> list[SampleDistribution]:
    """Resample h2 at each configured window size.

    Raises ConfigError naming the offending size if any window exceeds the
    document's word count.
    """
    symbols, codes = symbol_codes(to_stream(table))
    k = len(symbols)
    pair_codes = codes[:-1] * k + codes[1:]
    # boundaries[i] is the char index of the boundary before word i; the
    # window of words [i, i+w) spans pair indices [boundaries[i],
    # boundaries[i+w]).
    boundaries = np.flatnonzero(codes == symbols.index(BOUNDARY))
    n_words = len(boundaries) - 1
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
            window = pair_codes[boundaries[start]:boundaries[start + w]]
            counts = np.bincount(window, minlength=k * k).reshape(k, k)
            values.append(h2_from_counts(counts))
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
