"""The benchmark's workloads: inputs, command sequences and output checks.

Every command is a list of ``charentropy`` arguments run from the run's data
directory, with paths relative to it, so manifests (which record input
paths) are byte-identical across passes, runs and checkouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import corpora

META = ["--meta", "folios.tsv", "--transcriber", "H"]
INGEST_MANUSCRIPT = ["ingest", "manuscript.txt", *META, "--out", "words.tsv"]
TRANSLIT_MAXIMAL = ["translit", "words.tsv", "--system", "maximal",
                    "--out", "maximal.tsv"]
BATCH_JOBS = 48  # 16 canonical selections x 3 transcription systems
WINDOWS = (25, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000)
SAMPLES_PER_WINDOW = 4000


def maximal_words(words):
    """The built-in maximal table has one rule, ``sh`` -> ``c'h``; a single
    left-to-right pass with one rule is exactly ``str.replace``."""
    return [w.replace("sh", "c'h") for w in words]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], corpora.Generated]
    prepare: list[list[str]]              # untimed, run once before timing
    commands: list[list[str]]             # one pass, in order
    check: Callable[[Path, corpora.Generated, int], None]


def _check_manuscript(data: Path, gen: corpora.Generated, seed: int) -> None:
    checks.check_stats(data / "stats.json", maximal_words(gen.words))
    checks.check_batch(data / "batch.tsv", data / "stats.json", BATCH_JOBS)


def _check_corpus(data: Path, gen: corpora.Generated, seed: int) -> None:
    checks.check_stats(data / "stats.json", gen.words)


def _check_bootstrap(data: Path, gen: corpora.Generated, seed: int) -> None:
    checks.check_sample(data / "sample.json", maximal_words(gen.words),
                        WINDOWS, SAMPLES_PER_WINDOW, seed)


def _sample_command(seed: int) -> list[str]:
    return ["sample", "maximal.tsv",
            "--windows", ",".join(map(str, WINDOWS)),
            "--n", str(SAMPLES_PER_WINDOW), "--seed", str(seed),
            "--values", "--out", "sample.json"]


def workloads(seed: int) -> dict[str, Workload]:
    """Workload definitions; the bootstrap sweep takes the seed as well."""
    return {w.name: w for w in (
        Workload(
            name="manuscript",
            why=("40k-word interlinear text: ingest, translit x3, stats, "
                 "bigrams, sukhotin, batch of 48 jobs; translit and per-job "
                 "plumbing dominate"),
            generate=corpora.manuscript,
            prepare=[],
            commands=[
                INGEST_MANUSCRIPT,
                TRANSLIT_MAXIMAL,
                ["translit", "maximal.tsv", "--simplify",
                 "--out", "simplified.tsv"],
                ["translit", "maximal.tsv", "--system", "minimal",
                 "--out", "minimal.tsv"],
                ["stats", "maximal.tsv", "--out", "stats.json"],
                ["bigrams", "maximal.tsv", "--out-prefix", "bigrams"],
                ["sukhotin", "maximal.tsv", "--include-space",
                 "--out", "sukhotin.json"],
                ["batch", "manuscript.txt", *META, "--out", "batch.tsv"],
            ],
            check=_check_manuscript),
        Workload(
            name="corpus-400k",
            why=("400k-word Zipf plain text: ingest, cleanse, stats, bigrams, "
                 "sukhotin; per-word table plumbing and memory dominate, "
                 "translit and batch never run"),
            generate=corpora.plaintext,
            prepare=[],
            commands=[
                ["ingest", "corpus.txt", "--out", "corpus.tsv"],
                ["cleanse", "corpus.tsv", "--out", "clean.tsv"],
                ["stats", "clean.tsv", "--out", "stats.json"],
                ["bigrams", "clean.tsv", "--out-prefix", "bigrams"],
                ["sukhotin", "clean.tsv", "--out", "sukhotin.json"],
            ],
            check=_check_corpus),
        Workload(
            name="bootstrap",
            why=("sample sweep of 10 window sizes (25 to 20000 words, 40k "
                 "samples) on the manuscript's maximal table: h2 on many "
                 "small windows"),
            generate=corpora.manuscript,
            prepare=[INGEST_MANUSCRIPT, TRANSLIT_MAXIMAL],
            commands=[_sample_command(seed)],
            check=_check_bootstrap),
    )}
