import csv
import io
import json
import math
import random
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from charentropy import sampling
from charentropy.errors import ConfigError
from charentropy.ingest import from_words
from charentropy.metrics import (TypeCounts, entropy_report, h2_from_cells,
                                 stream_from_words, to_stream)
from charentropy.sampling import (SampleDistribution, SamplingConfig,
                                  WindowCounts, distributions_csv_rows,
                                  distributions_to_dict, sample_h2)


def make_corpus(n_words, seed=0, alphabet="abcdefgh", max_len=6):
    rng = random.Random(seed)
    return from_words([
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        for _ in range(n_words)])


CORPUS = make_corpus(400)


def test_full_document_window_collapses_to_point():
    full_h2 = entropy_report(to_stream(CORPUS)).h2
    [dist] = sample_h2(CORPUS, SamplingConfig(
        window_sizes=(400,), samples_per_size=5, seed=3))
    assert dist.sd == 0.0
    assert dist.mean == full_h2
    assert dist.min == dist.max == full_h2


def test_same_seed_is_bit_identical_and_seeds_differ():
    cfg = SamplingConfig(window_sizes=(20, 50), samples_per_size=30, seed=7)
    a = sample_h2(CORPUS, cfg)
    b = sample_h2(CORPUS, cfg)
    assert a == b
    c = sample_h2(CORPUS, SamplingConfig(
        window_sizes=(20, 50), samples_per_size=30, seed=8))
    assert a != c


def test_each_sample_reproducible_in_isolation():
    # the seed schedule hands one child generator to each (size, sample)
    # pair, so any single sample can be recomputed independently -- and a
    # freshly built window stream must agree with the library's slicing
    cfg = SamplingConfig(window_sizes=(10, 25), samples_per_size=8, seed=123)
    dists = sample_h2(CORPUS, cfg)
    words = CORPUS.words()
    for size_index, dist in enumerate(dists):
        w = dist.window_size
        for sample_index in (0, 3, 7):
            start = oracles.sample_start_oracle(
                123, size_index, sample_index, len(words) - w + 1)
            window_stream = stream_from_words(words[start:start + w])
            expected = entropy_report(window_stream).h2
            assert dist.values[sample_index] == expected


# Two small alphabets, and one of 72 symbols, 48 of them beyond the BMP.
_ALPHABETS = st.sampled_from([
    "ab", "abcdefgh",
    "".join(map(chr, range(0x3B1, 0x3C9)))
    + "".join(map(chr, range(0x1D400, 0x1D430)))])


@st.composite
def _corpora(draw):
    """Tokens drawn from a small vocabulary, so that few distinct pairs
    recur often and checkpoints fall a few words apart, or from a large
    one, where they may fall beyond the last word."""
    alphabet = draw(_ALPHABETS)
    vocabulary = draw(st.lists(st.text(alphabet, min_size=1, max_size=6),
                               min_size=1, max_size=12))
    return from_words(draw(st.lists(st.sampled_from(vocabulary),
                                    min_size=1, max_size=300)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=_corpora(), seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_sample_h2_equals_the_dense_count_oracle(table, seed, data):
    windows = WindowCounts(TypeCounts.of(table))
    n, s = windows.n_words, windows.spacing
    assert windows._cumulative.size <= len(windows._pairs)
    sizes = sorted({w for w in (1, n, s - 1, s, s + 1,
                                data.draw(st.integers(1, n)))
                    if 1 <= w <= n})
    cfg = SamplingConfig(window_sizes=tuple(sizes), samples_per_size=4,
                         seed=seed)
    assert ([list(d.values) for d in sample_h2(table, cfg)]
            == oracles.sample_h2_oracle(table, cfg))
    # Windows that start on the first two and last two checkpoints, and
    # one that ends on the last word.
    pinned = []
    for w in sizes:
        on_checkpoints = list(range(0, n - w + 1, s))
        pinned += [(start, w) for start in {*on_checkpoints[:2],
                                            *on_checkpoints[-2:], n - w}]
    assert ([windows.h2(start, w) for start, w in pinned]
            == oracles.window_h2_oracle(table, pinned))


# A block of sample indices from 0, and one across 2**32, where a sample
# index takes a second 32-bit word of entropy.
_SAMPLE_INDICES = np.concatenate((np.arange(500, dtype=np.uint64),
                                  np.arange(2 ** 32 - 250, 2 ** 32 + 250,
                                            dtype=np.uint64)))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
def test_starts_equal_the_per_sample_generators(seed):
    # 105,000 draws over the five seeds. About half the draws from
    # [0, 2**31 + 12345) are rejected by Lemire's method and drawn again;
    # [0, 2**32] takes numpy's 64-bit path, as does size index 2**32.
    for size_index in (0, 2 ** 32 - 1, 2 ** 32):
        for n in (1, 2, 3, 39_976, 2 ** 31 + 12_345, 2 ** 32, 2 ** 32 + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                starts = sampling._starts(seed, size_index,
                                          _SAMPLE_INDICES, n)
            assert starts == [
                oracles.sample_start_oracle(seed, size_index, j, n)
                for j in _SAMPLE_INDICES.tolist()], (size_index, n)


def test_rejected_draws_are_redrawn_as_the_generator_redraws_them(
        monkeypatch):
    # Lemire's method rejects about half the first draws from [0, 2**31
    # + 1), and half of their redraws, which take the generator's next
    # step; seeds, size indices and sample indices span 32 and 64 bits.
    redrawn = []
    redraw = sampling._redrawn

    def counted(*args):
        redrawn.append(args)
        return redraw(*args)

    monkeypatch.setattr(sampling, "_redrawn", counted)
    rng = random.Random(0)
    while len(redrawn) < 3_000:
        seed = rng.choice([rng.randrange(2 ** 32), rng.randrange(2 ** 64)])
        size_index = rng.choice([0, rng.randrange(2 ** 32)])
        n = rng.choice([2 ** 31 + 1, rng.randrange(2, 2 ** 32 + 1)])
        js = [rng.randrange(2 ** 32) for _ in range(20)]
        assert sampling._starts(seed, size_index, js, n) == [
            oracles.sample_start_oracle(seed, size_index, j, n) for j in js]


@pytest.mark.parametrize("block", [1, 3, sampling._SAMPLE_BLOCK])
def test_blocks_of_sample_indices_do_not_change_values(monkeypatch, block):
    monkeypatch.setattr(sampling, "_SAMPLE_BLOCK", block)
    # Two blocks, the second of them short, except for blocks of 1.
    cfg = SamplingConfig(window_sizes=(1, 7, 60), seed=5,
                         samples_per_size=block + 2)
    table = make_corpus(60, seed=4)
    assert ([list(d.values) for d in sample_h2(table, cfg)]
            == oracles.sample_h2_oracle(table, cfg))


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_pairs_are_the_same_gathered_in_any_block_of_tokens(monkeypatch,
                                                            block):
    # sampling's _PIECE_ROWS is ingest's, imported by name. 5,000 words
    # make two blocks of 4,096 tokens, the second of them short.
    monkeypatch.setattr(sampling, "_PIECE_ROWS", block)
    for table in (make_corpus(1), CORPUS, make_corpus(5000, seed=3)):
        types = TypeCounts.of(table)
        pairs = WindowCounts(types)._pairs
        expected = oracles.window_pairs_oracle(types)
        assert pairs.dtype == expected.dtype
        assert np.array_equal(pairs, expected)


def test_sample_h2_raises_no_warning():
    cfg = SamplingConfig(window_sizes=(1, 25, 400), samples_per_size=300,
                         seed=2 ** 64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_h2(CORPUS, cfg)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.01, 1.0),
       scale=st.sampled_from([1, 9, 1000, 2 ** 40]))
def test_h2_from_cells_equals_the_generator_form(k, seed, density, scale):
    rng = np.random.default_rng(seed)
    counts = (rng.integers(0, scale + 1, (k, k))
              * (rng.random((k, k)) < density))
    counts[rng.integers(k), rng.integers(k)] += 1
    assert h2_of_matrix(counts) == oracles.h2_generator_oracle(counts)


def test_h2_from_cells_takes_log2_as_the_generator_form_does():
    # With two terms of about half of h2 each, a last-bit change in one
    # term's log2 moves h2. np.log2 and math.log2 disagree in the last bit
    # on a few ratios, and on some hosts on 49 / 5 or 49 / 44.
    counts = np.array([[5, 44]])
    assert h2_of_matrix(counts) == oracles.h2_generator_oracle(counts)


def h2_of_matrix(counts):
    """h2 of a count matrix, as ``sample`` takes it of a window: its
    occupied cells, their rows' sums and the total, in numpy arrays."""
    rows, cols = np.nonzero(counts)
    return h2_from_cells(counts[rows, cols], counts.sum(axis=1)[rows],
                         counts.sum())


def test_oversized_window_names_the_size():
    with pytest.raises(ConfigError) as exc:
        sample_h2(CORPUS, SamplingConfig(window_sizes=(50, 401)))
    assert "401" in str(exc.value)


def test_samples_respect_entropy_ceiling():
    report = entropy_report(to_stream(CORPUS))
    dists = sample_h2(CORPUS, SamplingConfig(
        window_sizes=(5, 60), samples_per_size=50, seed=1))
    for dist in dists:
        for v in dist.values:
            assert 0.0 <= v <= report.h0


def test_distribution_stats_consistent_with_values():
    [dist] = sample_h2(CORPUS, SamplingConfig(
        window_sizes=(30,), samples_per_size=40, seed=2))
    assert math.isclose(dist.mean, statistics.fmean(dist.values),
                        abs_tol=1e-12)
    assert math.isclose(dist.sd, statistics.stdev(dist.values),
                        abs_tol=1e-12)
    assert dist.min == min(dist.values)
    assert dist.max == max(dist.values)


def test_sd_uses_n_minus_one():
    dist = SampleDistribution.from_values(2, [1.0, 3.0])
    assert dist.mean == 2.0
    assert math.isclose(dist.sd, math.sqrt(2.0), abs_tol=1e-12)
    single = SampleDistribution.from_values(2, [1.5])
    assert single.sd == 0.0


def test_small_windows_spread_wider():
    corpus = make_corpus(3000, seed=5)
    wins = 0
    for seed in range(10):
        small, big = sample_h2(corpus, SamplingConfig(
            window_sizes=(20, 500), samples_per_size=25, seed=seed))
        wins += small.sd > big.sd
    assert wins == 10


def test_mean_converges_toward_full_h2_across_seed_ensemble():
    corpus = make_corpus(3000, seed=6)
    full = entropy_report(to_stream(corpus)).h2
    small_err, big_err = [], []
    for seed in range(12):
        small, big = sample_h2(corpus, SamplingConfig(
            window_sizes=(20, 1000), samples_per_size=20, seed=seed))
        small_err.append(abs(small.mean - full))
        big_err.append(abs(big.mean - full))
    assert statistics.fmean(big_err) < statistics.fmean(small_err)


def test_config_validation():
    with pytest.raises(ConfigError):
        SamplingConfig(window_sizes=())
    with pytest.raises(ConfigError):
        SamplingConfig(window_sizes=(0,))
    with pytest.raises(ConfigError):
        SamplingConfig(window_sizes=(5,), samples_per_size=0)
    with pytest.raises(ConfigError):
        SamplingConfig(window_sizes=(5,), seed=-1)


def test_serialization_shapes():
    dists = sample_h2(CORPUS, SamplingConfig(
        window_sizes=(10, 20), samples_per_size=4, seed=9))
    plain = distributions_to_dict(dists)
    assert [d["window"] for d in plain] == [10, 20]
    assert all(d["n"] == 4 and "values" not in d for d in plain)
    full = distributions_to_dict(dists, include_values=True)
    assert full[0]["values"] == list(dists[0].values)
    json.dumps(full)  # serializable as-is

    text = "".join(distributions_csv_rows(dists))
    lines = text.splitlines()
    assert lines[0] == "window,sample_index,h2"
    assert len(lines) == 1 + 2 * 4
    window, idx, h2 = lines[1].split(",")
    assert (int(window), int(idx)) == (10, 0)
    assert float(h2) == float(f"{dists[0].values[0]:.12g}")
    # The rows are those the csv module writes.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["window", "sample_index", "h2"])
    writer.writerows([d.window_size, i, f"{v:.12g}"]
                     for d in dists for i, v in enumerate(d.values))
    assert text == out.getvalue()
