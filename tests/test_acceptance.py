"""Release gates for the whole toolkit, one test per criterion.

Each test runs inside the `criterion` context manager, which records a
PASS/FAIL/SKIP verdict; conftest.py prints one summary line per criterion
at the end of the pytest run.  Criterion 7 needs an externally supplied
transcription file (see the environment variables below) and is skipped,
not failed, when the file is absent.
"""

import math
import os
import random
import string
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from charentropy.cli import main
from charentropy.ingest import from_words
from charentropy.metrics import (
    bigram_matrix,
    coverage_report,
    entropy_report,
    stream_from_words,
    to_stream,
)
from charentropy.sampling import SamplingConfig, sample_h2
from charentropy.sukhotin import adjacency_matrix, detect_from_adjacency

TRANSCRIPTION_ENV = "CHARENTROPY_INTERLINEAR"
META_ENV = "CHARENTROPY_FOLIO_META"
TRANSCRIBER_ENV = "CHARENTROPY_TRANSCRIBER"

RESULTS: dict[int, tuple[str, str, float]] = {}


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        status = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        RESULTS[number] = (title, status, time.perf_counter() - start)
        raise
    RESULTS[number] = (title, "PASS", time.perf_counter() - start)


def _random_words(rng, alphabet, max_words, max_len=8):
    return ["".join(rng.choices(alphabet, k=rng.randint(1, max_len)))
            for _ in range(rng.randint(1, max_words))]


# --------------------------------------------------------------- criterion 1

def test_entropy_matches_brute_force_oracle():
    with criterion(1, "h1/h2/joint agree with a brute-force tally oracle "
                      "on 1000 random documents"):
        rng = random.Random(173)
        start = time.perf_counter()
        for _ in range(1000):
            alphabet = "abcdefgh"[:rng.randint(1, 8)]
            words = _random_words(rng, alphabet, max_words=500)
            stream = stream_from_words(words)
            report = entropy_report(stream)
            assert abs(report.h1 - oracles.h1_oracle(stream.symbols)) < 1e-12
            assert abs(report.h2 - oracles.h2_oracle(stream.symbols)) < 1e-12
            matrix = bigram_matrix(stream)
            expected = oracles.joint_probs(stream.symbols)
            for i, x in enumerate(matrix.symbols):
                for j, y in enumerate(matrix.symbols):
                    want = expected.get((x, y), 0.0)
                    assert abs(matrix.joint[i, j] - want) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 2

def test_entropy_bounds_and_exact_relabeling_invariance():
    with criterion(2, "entropy ordering holds and h1/h2/coverage are "
                      "bit-identical under alphabet bijections"):
        rng = random.Random(811)
        pool = (string.ascii_letters + string.digits
                + "αβγδεζηθικλμνξοπρστυφχψω"
                + "бвгджзиклмнптфшю")
        assert len(set(pool)) == len(pool) and "#" not in pool

        for _ in range(200):
            alphabet = rng.sample(pool, rng.randint(1, 12))
            words = _random_words(rng, alphabet, max_words=80)
            rep = entropy_report(stream_from_words(words))
            assert 0.0 <= rep.h2 <= rep.h1 <= rep.h0
            assert rep.h0 == math.log2(rep.charset_size + 1)

        for _ in range(20):
            words = _random_words(rng, "abcdefgh", max_words=60)
            stream = stream_from_words(words)
            base = entropy_report(stream)
            base_share = coverage_report(bigram_matrix(stream)).total_share
            chars = sorted(stream.alphabet)
            for _ in range(100):
                mapping = dict(zip(chars, rng.sample(pool, len(chars))))
                relabeled = ["".join(mapping[c] for c in w) for w in words]
                rstream = stream_from_words(relabeled)
                rep = entropy_report(rstream)
                assert rep.h1 == base.h1
                assert rep.h2 == base.h2
                share = coverage_report(bigram_matrix(rstream)).total_share
                assert share == base_share


# --------------------------------------------------------------- criterion 3

def test_uniform_sixteen_symbol_stream_sits_at_the_ceiling():
    with criterion(3, "uniform i.i.d. 16-symbol stream of 1e6 chars lands "
                      "within 0.05 bits of 4.0"):
        start = time.perf_counter()
        codes = np.random.default_rng(20260823).integers(
            97, 113, size=1_000_000, dtype=np.uint8)
        word = codes.tobytes().decode("ascii")
        report = entropy_report(stream_from_words([word]))
        elapsed = time.perf_counter() - start
        assert report.charset_size == 16
        assert abs(report.h2 - 4.0) < 0.05, f"h2 = {report.h2:.4f}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 4

def _coverage_corpus():
    """Corpus with exactly four high-confidence bigrams.

    qu/q = 96/100, y#/y = 1200/1600, ve/v = 590/1000, d#/d = 1404/2600;
    every other successor distribution is spread over ten filler letters,
    so nothing else can cross the 0.5 line.  Filler words pad the stream
    to ~100k tokens so the qualifying mass sits near 3.3%.
    """
    rng = random.Random(404)
    filler = "fghijklmno"

    def tail(lo=2, hi=4):
        return "".join(rng.choices(filler, k=rng.randint(lo, hi)))

    words = []
    words += ["qu" + tail() for _ in range(96)]
    words += ["qa" + tail() for _ in range(4)]
    words += [tail() + "y" for _ in range(1200)]
    words += [tail() + "ya" + tail() for _ in range(400)]
    words += [tail() + "ve" + tail() for _ in range(590)]
    words += [tail() + "va" + tail() for _ in range(410)]
    words += [tail() + "d" for _ in range(1404)]
    words += [tail() + "da" + tail() for _ in range(1196)]
    padded = sum(len(w) + 1 for w in words)
    while padded < 99_500:
        w = tail(3, 7)
        words.append(w)
        padded += len(w) + 1
    return words


def test_high_confidence_bigram_coverage_fixture():
    with criterion(4, "constructed corpus reports exactly 4 bigrams above "
                      "0.5 with ~3.3% token share"):
        stream = stream_from_words(_coverage_corpus())
        token_count = len(stream.symbols) - 1
        assert 98_000 <= token_count <= 102_000
        cov = coverage_report(bigram_matrix(stream))

        got = {(x, y): cond for x, y, cond, _ in cov.qualifying_bigrams}
        assert set(got) == {("q", "u"), ("y", "#"), ("v", "e"), ("d", "#")}
        assert abs(got[("q", "u")] - 0.96) < 1e-12
        assert abs(got[("y", "#")] - 0.75) < 1e-12
        assert abs(got[("v", "e")] - 0.59) < 1e-12
        assert abs(got[("d", "#")] - 0.54) < 1e-12
        assert abs(cov.total_share - 0.033) <= 0.002
        assert abs(cov.total_share - 3290 / token_count) < 1e-12
        assert abs(cov.word_final_share - 2604 / token_count) < 1e-12

        hits, share, final = oracles.coverage_oracle(stream.symbols, 0.5)
        assert len(hits) == 4
        assert abs(cov.total_share - share) < 1e-12
        assert abs(cov.word_final_share - final) < 1e-12


# --------------------------------------------------------------- criterion 5

def _zipf_corpus(n_tokens=160_000, n_types=3000):
    rng = random.Random(555)
    letters = "abcdefghiklmnoprstu"
    types: list[str] = []
    seen = set()
    while len(types) < n_types:
        w = "".join(rng.choices(letters, k=rng.randint(2, 9)))
        if w not in seen:
            seen.add(w)
            types.append(w)
    weights = [1.0 / rank for rank in range(1, n_types + 1)]
    return rng.choices(types, weights=weights, k=n_tokens)


def test_bootstrap_spread_shrinks_and_mean_converges():
    with criterion(5, "window-50 sd beats window-5000 sd for 20/20 seeds; "
                      "window-10000 mean within 0.05 bits of full h2"):
        start = time.perf_counter()
        table = from_words(_zipf_corpus(), source_id="zipf")
        full_h2 = entropy_report(to_stream(table)).h2
        for seed in range(20):
            dists = sample_h2(table, SamplingConfig(
                (50, 5000), samples_per_size=40, seed=seed))
            by_window = {d.window_size: d for d in dists}
            assert by_window[50].sd > by_window[5000].sd, f"seed {seed}"
        big = sample_h2(table, SamplingConfig(
            (10_000,), samples_per_size=50, seed=99))[0]
        assert abs(big.mean - full_h2) < 0.05, (
            f"window-10000 mean {big.mean:.4f} vs full {full_h2:.4f}")
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 6

def detect_vowels(stream):
    return detect_from_adjacency(adjacency_matrix(stream, False), False)


def test_vowel_detection_on_synthetic_cv_corpora():
    with criterion(6, "exact vowel recovery on 10 random CV phonologies, "
                      "with relabeling equivariance and termination"):
        start = time.perf_counter()
        rng = random.Random(66)
        for _ in range(10):
            vowels = rng.sample("aeiouy", 3)
            consonants = rng.sample("bcdfghjklmnpqrstvwxz",
                                    rng.randint(5, 8))
            cons_w = [1.0 + 0.1 * i for i in range(len(consonants))]
            words = []
            for _ in range(3000):
                word = "".join(
                    rng.choices(consonants, cons_w)[0]
                    + rng.choices(vowels, (5, 3, 2))[0]
                    for _ in range(rng.randint(1, 4)))
                words.append(word)
            stream = stream_from_words(words)
            result = detect_vowels(stream)
            assert set(result.vowels) == set(vowels)
            assert result.iterations <= len(result.final_sums)

            alphabet = sorted(stream.alphabet)
            mapping = dict(zip(alphabet, rng.sample(
                "αβγδεζηθικλμνξοπρστυφ", len(alphabet))))
            relabeled = ["".join(mapping[c] for c in w) for w in words]
            again = detect_vowels(stream_from_words(relabeled))
            assert set(again.vowels) == {mapping[v] for v in result.vowels}

        lone = detect_vowels(stream_from_words(["aaa", "aa", "a"]))
        assert lone.vowels == ()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 7

def test_reference_corpus_numbers(tmp_path, monkeypatch):
    with criterion(7, "reference transcription reproduces published-table "
                      "numbers (needs external input file)"):
        source = os.environ.get(TRANSCRIPTION_ENV)
        if not source:
            pytest.skip(
                f"set {TRANSCRIPTION_ENV} to an interlinear transcription "
                f"file to enable this check")
        source = os.path.abspath(source)
        meta = os.environ.get(META_ENV)
        meta = os.path.abspath(meta) if meta else None
        transcriber = os.environ.get(TRANSCRIBER_ENV, "H")

        monkeypatch.chdir(tmp_path)
        jobs = tmp_path / "jobs.tsv"
        jobs.write_text(
            "full-maximal\tfull\tmaximal\n"
            "full-simplified\tfull\tsimplified\n"
            "full-minimal\tfull\tminimal\n"
            "text-maximal\tfull_text\tmaximal\n",
            encoding="utf-8")
        argv = ["batch", source, "--jobs", str(jobs),
                "--transcriber", transcriber, "--allow-missing-meta",
                "--out", "table.tsv"]
        if meta:
            argv += ["--meta", meta]
        assert main(argv) == 0

        rows = {}
        lines = (tmp_path / "table.tsv").read_text(
            encoding="utf-8").splitlines()
        for line in lines[1:]:
            doc, _system, charset, h2, n_words, _types = line.split("\t")
            rows[doc] = (int(charset), float(h2), int(n_words))

        assert rows["full-maximal"][0] == 45
        assert abs(rows["full-maximal"][1] - 2.114) <= 0.01
        assert rows["full-simplified"][0] == 23
        assert abs(rows["full-simplified"][1] - 2.112) <= 0.01
        assert abs(rows["full-minimal"][1] - 2.475) <= 0.05
        assert rows["text-maximal"][2] == 37_940


# --------------------------------------------------------------- criterion 8

_PAGE = """# determinism fixture
<f1r.P1.1;H> shedy.qokeedy.daiin
<f1r.P1.2;H> chol,dy.qokal
<f1r.L1.1;H> otol.dar
<f1v.P1.1;H> shol.cthey.qotedy
"""

_PLAIN = "The cat sat on the mat.\n\nThe dog sat too, again.\n"

_META = "f1r\therbal\tA\t1\tA\nf1v\therbal\tA\t1\tA\n"


# Every subcommand, batch included, over the fixture files above.  The
# golden-output test runs the same list and pins each artifact's digest.
DETERMINISM_COMMANDS = [
    ["ingest", "page.txt", "--meta", "meta.tsv",
     "--transcriber", "H", "--out", "t.tsv"],
    ["ingest", "plain.txt", "--out", "p.tsv"],
    ["translit", "t.tsv", "--system", "maximal", "--out", "mx.tsv"],
    ["translit", "t.tsv", "--system", "minimal", "--out", "mn.tsv"],
    ["translit", "t.tsv", "--simplify", "--rare-min", "3",
     "--out", "sp.tsv"],
    ["cleanse", "p.tsv", "--out", "c.tsv"],
    ["stats", "c.tsv", "--out", "stats.json"],
    ["bigrams", "c.tsv", "--out-prefix", "bg"],
    ["sample", "p.tsv", "--windows", "2,3", "--n", "5",
     "--seed", "7", "--values", "--out", "s.json"],
    ["sample", "p.tsv", "--windows", "2", "--n", "4", "--seed", "7",
     "--format", "csv", "--out", "s.csv"],
    ["sukhotin", "c.tsv", "--diagnostics", "--out", "v.json"],
    ["batch", "page.txt", "--meta", "meta.tsv",
     "--transcriber", "H", "--out", "grid.tsv"],
]


def write_determinism_fixture(directory):
    (directory / "page.txt").write_text(_PAGE, encoding="utf-8")
    (directory / "plain.txt").write_text(_PLAIN, encoding="utf-8")
    (directory / "meta.tsv").write_text(_META, encoding="utf-8")


def run_determinism_commands():
    for argv in DETERMINISM_COMMANDS:
        assert main(list(argv)) == 0, argv


def test_cli_reruns_are_byte_identical(tmp_path, monkeypatch):
    with criterion(8, "every CLI command rerun with identical inputs and "
                      "seed writes byte-identical artifacts"):
        monkeypatch.chdir(tmp_path)
        write_determinism_fixture(tmp_path)
        run_determinism_commands()
        first = {p.name: p.read_bytes()
                 for p in tmp_path.iterdir() if p.is_file()}
        assert any(name.endswith(".manifest.json") for name in first)
        run_determinism_commands()
        second = {p.name: p.read_bytes()
                  for p in tmp_path.iterdir() if p.is_file()}
        assert second == first
