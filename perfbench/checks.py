"""Output checks that do not go through the program under test.

The reference numbers here come from plain dictionaries over the words the
generator produced, following the conventions the program documents:
words framed by ``#`` as ``#w1#w2#...#``; h1 over the successor marginal
(every symbol but the leading ``#``); h2 the successor entropy given the
current symbol; charset the letters without the boundary.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

BOUNDARY = "#"
TOLERANCE = 1e-12


class CheckFailed(Exception):
    """An output differs from what the benchmark expects."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tally(words) -> tuple[Counter, Counter]:
    """Bigram and successor counts over the ``#``-framed stream."""
    stream = BOUNDARY + BOUNDARY.join(words) + BOUNDARY
    return Counter(zip(stream, stream[1:])), Counter(stream[1:])


def entropy_ladder(words) -> dict:
    pairs, successors = tally(words)
    total = sum(successors.values())
    rows: Counter = Counter()
    for (a, _), n in pairs.items():
        rows[a] += n
    h1 = math.fsum((n / total) * math.log2(total / n)
                   for n in successors.values())
    h2 = math.fsum((n / total) * math.log2(rows[a] / n)
                   for (a, _), n in pairs.items())
    census = sorted(successors.items(), key=lambda kv: (-kv[1], kv[0]))
    return {"h1": h1, "h2": h2,
            "charset_size": len(successors) - (BOUNDARY in successors),
            "census": [[c, n] for c, n in census]}


def close(reported: float, expected: float, what: str) -> None:
    """Equal within 1e-12 beyond the 12-significant-digit output rounding."""
    if expected == 0.0:
        slack = 0.0
    else:
        slack = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - 11)
    if abs(reported - expected) > TOLERANCE + slack:
        raise CheckFailed(f"{what}: reported {reported!r}, "
                          f"expected {expected!r}")


def check_stats(path: Path, words) -> None:
    """``stats`` JSON against the brute-force ladder over ``words``."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    want = entropy_ladder(words)
    got = doc["entropy"]
    close(got["h1"], want["h1"], f"{path.name} h1")
    close(got["h2"], want["h2"], f"{path.name} h2")
    if got["charset_size"] != want["charset_size"]:
        raise CheckFailed(f"{path.name}: charset_size {got['charset_size']} "
                          f"!= {want['charset_size']}")
    census = [[e["char"], e["count"]] for e in doc["charset"]]
    if census != want["census"]:
        raise CheckFailed(f"{path.name}: character census differs")
    if got["word_token_count"] != len(words):
        raise CheckFailed(f"{path.name}: {got['word_token_count']} words, "
                          f"expected {len(words)}")


def check_batch(path: Path, stats_path: Path, n_jobs: int) -> None:
    """All jobs ran, and the full/maximal row repeats the stats numbers."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != n_jobs:
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {n_jobs}")
    full = next((r for r in rows if r[:2] == ["full", "maximal"]), None)
    if full is None:
        raise CheckFailed(f"{path.name}: no full/maximal row")
    entropy = json.loads(stats_path.read_text(encoding="utf-8"))["entropy"]
    if (int(full[2]), float(full[3]), int(full[4])) != (
            entropy["charset_size"], entropy["h2"],
            entropy["word_token_count"]):
        raise CheckFailed(f"{path.name}: full/maximal row {full} disagrees "
                          f"with {stats_path.name}")


def check_sample(path: Path, words, windows, n: int, seed: int,
                 recompute: int = 3) -> None:
    """Bootstrap report: sizes, summaries, and the first samples recomputed.

    The sampling scheme is the documented one: sample ``j`` of window size
    index ``i`` draws its start from ``default_rng(SeedSequence(seed,
    spawn_key=(i, j)))``.
    """
    doc = json.loads(path.read_text(encoding="utf-8"))
    dists = doc["distributions"]
    if [d["window"] for d in dists] != list(windows):
        raise CheckFailed(f"{path.name}: window sizes differ")
    for i, d in enumerate(dists):
        values = d["values"]
        if d["n"] != n or len(values) != n:
            raise CheckFailed(f"{path.name}: window {d['window']} has "
                              f"{len(values)} samples, expected {n}")
        close(d["min"], min(values), f"{path.name} min")
        close(d["max"], max(values), f"{path.name} max")
        # The mean of the rounded values can differ from the rounded mean
        # by one rounding step more than close() allows.
        if abs(d["mean"] - math.fsum(values) / n) > 1e-10:
            raise CheckFailed(f"{path.name}: window {d['window']} mean "
                              f"{d['mean']!r} disagrees with its values")
        for j in range(recompute):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i, j)))
            start = int(rng.integers(0, len(words) - d["window"] + 1))
            window = words[start:start + d["window"]]
            close(values[j], entropy_ladder(window)["h2"],
                  f"{path.name} window {d['window']} sample {j}")
