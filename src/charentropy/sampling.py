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
whose pairs are those of its tokens' word types (``metrics.TypeCounts``),
as ``metrics.stream_pairs`` makes them for ``TypeCounts.cells``.

Counting a window costs the same whatever its length. Only the m distinct
adjacent pairs that occur in the document are counted, numbered 0..m-1 in
sorted (a, b) order, so that the pairs of one row are adjacent. A table
holds the cumulative count of each of them at a checkpoint every s words, so
a window's counts are the difference between the first and the last
checkpoint inside it, plus one short count over the words before the first
and one over the words after the last. The spacing s is derived from the
document, with no setting: it is the smallest that keeps the table
(checkpoints x m) no larger than the document's array of pairs. h2 then
takes the window's occupied pairs and the sums of their rows (see
``metrics.h2_from_cells``), so its cost grows with the distinct pairs in the
window, at most m.

Reproducibility: the generator is numpy's default PCG64, and every
(window-size, sample-index) pair gets its own child generator derived from
the master seed via ``SeedSequence(entropy=seed, spawn_key=(size_index,
sample_index))``. Results are therefore bit-identical for a given seed
whether samples run serially or in parallel, and appending more samples
never disturbs earlier ones. The starts of a window size's samples come
from one numpy pass over a block of sample indices, which reproduces each
child generator's first draw bit for bit: SeedSequence's hashing, PCG64's
seeding and first output (O'Neill 2014), and Lemire's bounded integer. A
draw that Lemire's method rejects is drawn again from the same PCG64
stream in Python ints. Only indices or ranges beyond 32 bits take the
per-sample generator itself, so ``sample`` loads no ``numpy.random``.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._lazy import lazy_import
from ._record import record
from .errors import ConfigError
from .ingest import _PIECE_ROWS, LongTable
from .metrics import TypeCounts, h2_from_cells, stream_pairs
from .metrics import to_stream  # noqa: F401  (a perfbench trace point)

np = lazy_import("numpy")
statistics = lazy_import("statistics")

DEFAULT_SAMPLES_PER_SIZE = 1000

_SAMPLE_BLOCK = 1 << 10  # sample indices per call of _starts


@record
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


@record
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
        forms = types.checked()
        # Number the pairs (a, b) that occur (the types') in sorted order,
        # so that the pairs of one row are adjacent; type t's are the
        # len(forms[t]) + 1 from type_pairs[offsets[t]]. Counts, and so pair
        # numbers, fit 32 bits unless the text has 2**31 characters.
        sizes = np.fromiter(map(len, forms), np.intp, len(forms)) + 1
        offsets = np.cumsum(sizes) - sizes
        occurring = sorted(set(stream_pairs(forms)))
        number = dict(zip(occurring, range(len(occurring))))
        type_pairs = np.fromiter(map(number.__getitem__, stream_pairs(forms)),
                                 np.intp, int(sizes.sum()))
        m = len(occurring)
        sizes = sizes[types.ids]
        ends = np.cumsum(sizes)
        n_pairs = int(ends[-1])
        small = np.int32 if n_pairs < 2 ** 31 else np.int64
        # The window of words [i, i+w) spans pair indices [boundaries[i],
        # boundaries[i+w]).
        self._boundaries = np.concatenate(([0], ends))
        self.n_words = len(sizes)
        # The text's pairs are those of its tokens' types, in token order,
        # gathered a block of tokens at a time so that no temporary is as
        # long as the text.
        type_pairs = type_pairs.astype(small)
        offsets = offsets.astype(small)
        self._pairs = np.empty(n_pairs, dtype=small)
        for first in range(0, self.n_words, _PIECE_ROWS):
            ids = types.ids[first:first + _PIECE_ROWS]
            edges = self._boundaries[first:first + len(ids) + 1]
            lo, hi = edges[0], edges[-1]
            self._pairs[lo:hi] = type_pairs[
                np.arange(hi - lo, dtype=small) + np.repeat(
                    offsets[ids] - (edges[:-1] - lo).astype(small),
                    sizes[first:first + len(ids)])]
        self._m = m
        # The pairs of row i of the count matrix are pairs
        # row_starts[i]:row_starts[i + 1] of the m; _row_of[j] is the row of
        # pair j, numbered over the rows that occur.
        row_starts = np.flatnonzero(np.diff([ord(a) for a, _ in occurring],
                                            prepend=-1))
        self._row_starts = row_starts
        self._row_of = np.repeat(np.arange(len(row_starts)),
                                 np.diff(row_starts, append=m))
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
        # Blocks keep the arrays of _starts small: ~146 bytes an index.
        for first in range(0, cfg.samples_per_size, _SAMPLE_BLOCK):
            indices = np.arange(
                first, min(first + _SAMPLE_BLOCK, cfg.samples_per_size),
                dtype=np.uint64)
            values += [windows.h2(start, w) for start in _starts(
                cfg.seed, size_index, indices, n_words - w + 1)]
        results.append(SampleDistribution.from_values(w, values))
    return results


def _sample_start(seed: int, size_index: int, sample_index: int,
                  n: int) -> int:
    """The start in [0, n) that the child generator of (size_index,
    sample_index) draws: the seed schedule, one sample at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(size_index, sample_index)))
    return int(rng.integers(0, n))


# SeedSequence's hash constants, and PCG64's 128-bit multiplier as its
# high and low 64 bits. Every constant is a Python int and every operand
# it meets a uint64 array, which wraps silently and promotes alike under
# numpy 1 and 2 (a uint64 scalar with a Python int is a float in numpy 1).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (
    0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_M32, _M64 = 0xFFFFFFFF, (1 << 64) - 1


def _hashmix(value: int, step: int) -> int:
    """SeedSequence's entropy hash step ``step`` (from 0) of ``value``."""
    h = _INIT_A * pow(_MULT_A, step, 1 << 32) % (1 << 32)
    value = (value ^ h) * (h * _MULT_A) & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of pool word ``x`` and hashed word ``y``."""
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ result >> 16


def _pool(seed: int, size_index: int) -> list[int]:
    """``SeedSequence(entropy=seed, spawn_key=(size_index,)).pool``, for a
    seed below 2**64 and a size index below 2**32: the seed's two words,
    zero-padded to the pool's 4, hashed in and mixed together, then the
    size index mixed into each word, hash steps 16..19."""
    pool = [_hashmix(word, k)
            for k, word in enumerate((seed & _M32, seed >> 32, 0, 0))]
    step = 4
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = _mix(pool[target],
                                    _hashmix(pool[source], step))
                step += 1
    return [_mix(word, _hashmix(size_index, step + k))
            for k, word in enumerate(pool)]


def _redrawn(state: int, increment: int, n: int) -> int:
    """The start in [0, n), for n <= 2**32, that Lemire's method draws
    once it has rejected the low half of the output of PCG64 at 128-bit
    ``state``: numpy takes 32 bits at a time, the high half of an output
    after its low half, then steps to the next output."""
    threshold = (1 << 32) % n
    multiplier = _PCG_HI << 64 | _PCG_LO
    high = True
    while True:
        if not high:
            state = (state * multiplier + increment) & (1 << 128) - 1
        mixed, turn = (state >> 64 ^ state) & _M64, state >> 122
        out = (mixed >> turn | mixed << (64 - turn)) & _M64
        scaled = (out >> 32 if high else out & _M32) * n
        if scaled & _M32 >= threshold:
            return scaled >> 32
        high = not high


def _hash(values, init: int, mult: int, skip: int, count: int):
    """SeedSequence's hash steps skip..skip+count-1, one per row, applied
    to ``values`` (count rows, or one row broadcast)."""
    h = [init * pow(mult, skip + k, 1 << 32) % (1 << 32)
         for k in range(count + 1)]
    xor = np.array(h[:-1], dtype=np.uint64)[:, None]
    factor = np.array(h[1:], dtype=np.uint64)[:, None]
    values = values ^ xor  # a new array, then worked on in place
    values *= factor
    values &= _M32
    values ^= values >> 16
    return values


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + increment on PCG64's 128-bit state held as
    uint64 halves; the high half of lo * _PCG_LO comes from 32-bit limbs."""
    lo0, lo1 = lo & _M32, lo >> 32
    b0, b1 = _PCG_LO & _M32, _PCG_LO >> 32
    cross0, cross1 = lo0 * b1, lo1 * b0
    carry = ((lo0 * b0 >> 32) + (cross0 & _M32) + (cross1 & _M32)) >> 32
    hi = (hi * _PCG_LO + lo * _PCG_HI + lo1 * b1 + (cross0 >> 32)
          + (cross1 >> 32) + carry)
    lo = lo * _PCG_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _starts(seed: int, size_index: int, sample_indices, n: int) -> list:
    """``_sample_start(seed, size_index, j, n)`` for each j of
    ``sample_indices``, the first draws computed in one numpy pass; the
    seed is below 2**64, as SamplingConfig requires."""
    js = np.asarray(sample_indices, dtype=np.uint64)
    if size_index > _M32 or n > 1 << 32:
        return [_sample_start(seed, size_index, j, n) for j in js.tolist()]
    # SeedSequence mixes each entropy word past its pool of 4 into the pool
    # in turn, so the pool after the seed (zero-padded to 4 words) and the
    # size index is that of the one-word spawn key; the sample index then
    # takes hash steps 20..23 (16 for the pool, 4 for the size index).
    pool = np.array(_pool(seed, size_index), dtype=np.uint64)[:, None]
    pool = (_MIX_L * pool
            - _MIX_R * _hash(js & _M32, _INIT_A, _MULT_A, 20, 4)) & _M32
    pool ^= pool >> 16
    # generate_state(4, uint64): 8 hashed pool words, paired little-endian,
    # hashed four at a time, and the pool let go before the steps below.
    low, high = (_hash(pool, _INIT_B, _MULT_B, skip, 4) for skip in (0, 4))
    del pool
    w0, w1 = low[0::2] | low[1::2] << 32
    w2, w3 = high[0::2] | high[1::2] << 32
    del low, high
    # PCG64's seeding: state 0 and increment 2 * (w2, w3) + 1, a step, the
    # state plus (w0, w1), a step; then the first draw's step.
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    lo = inc_lo + w1
    hi = inc_hi + w0 + (lo < w1)
    for _ in range(2):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    # The XSL-RR output's low 32 bits, scaled to [0, n) by Lemire's method;
    # it rejects a draw whose low product is below 2**32 % n.
    out, turn = hi ^ lo, hi >> 58
    scaled = ((out >> turn | out << (64 - turn & 63)) & _M32) * n
    starts = (scaled >> 32).tolist()
    for k in np.flatnonzero((scaled & _M32) < (1 << 32) % n).tolist():
        starts[k] = _redrawn(int(hi[k]) << 64 | int(lo[k]),
                             int(inc_hi[k]) << 64 | int(inc_lo[k]), n)
    for k in np.flatnonzero(js > _M32).tolist():
        starts[k] = _sample_start(seed, size_index, int(js[k]), n)
    return starts


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


def distributions_csv_rows(distributions) -> Iterator[str]:
    """Long-form CSV (window, sample_index, h2), one line per sample, the
    shape density/violin plotting tools want; no field needs quotes."""
    yield "window,sample_index,h2\n"
    for d in distributions:
        for i, v in enumerate(d.values):
            yield f"{d.window_size},{i},{v:.12g}\n"
