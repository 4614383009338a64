"""Self-test of the benchmark's own checks.

Shows that the generator is deterministic, that the output checks the
benchmark relies on catch a corrupted artifact (one flipped byte) and a
command that exits non-zero, and that the traced run's span check catches
a span whose times were shifted. Runs a 5,000-word manuscript pass, as
subprocesses and traced in-process, in a few seconds:

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import checks
import corpora
import measure
import run
import tracing
from workloads import maximal_words, workloads


def expect(condition: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def flip_byte(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def main() -> int:
    failures: list[str] = []

    a, b = corpora.manuscript(7, 5000), corpora.manuscript(7, 5000)
    expect(a.files == b.files and a.words == b.words,
           "manuscript generator: same seed, identical bytes", failures)
    expect(corpora.manuscript(8, 5000).files != a.files,
           "manuscript generator: another seed, other bytes", failures)
    a, b = corpora.plaintext(7, 20000), corpora.plaintext(7, 20000)
    expect(a.files == b.files and a.words == b.words,
           "plain-text generator: same seed, identical bytes", failures)
    expect(corpora.plaintext(8, 20000).files != a.files,
           "plain-text generator: another seed, other bytes", failures)

    work = run.WORK / f"selftest-{os.getpid()}"
    data, logs = work / "data", work / "logs"
    launcher = measure.Launcher(run.ROOT)
    try:
        for d in (data, logs):
            d.mkdir(parents=True)
        gen = corpora.manuscript(7, 5000)
        for name, content in gen.files.items():
            (data / name).write_bytes(content)
        outcome = run.Outcome()
        commands = workloads(7)["manuscript"].commands
        run.run_pass(launcher, commands, data, logs, "good", outcome)
        expect(outcome.correct and outcome.failed == 0,
               "genuine pass: every command exits 0", failures)
        stats = data / "stats.json"
        try:
            checks.check_stats(stats, maximal_words(gen.words))
            checks.check_batch(data / "batch.tsv", stats, 48)
            genuine_ok = True
        except checks.CheckFailed as exc:
            print(f"     {exc}")
            genuine_ok = False
        expect(genuine_ok, "genuine pass: stats match the brute-force tally "
               "and batch ran all 48 jobs", failures)

        before = run.artifact_digests(data)
        package = run.import_package()
        tracer = tracing.Tracer()
        with tracing.installed(tracer, package):
            tracing.replay(package, commands, data, tracer)
        for p in tracer.problems():
            print(f"     {p}")
        expect(not tracer.problems() and not tracer.missing
               and run.artifact_digests(data) == before,
               "traced replay: same artifacts, every span nests in its "
               "parent, self times add up to each command's time", failures)
        genuine = copy.deepcopy(tracer.spans)
        child = next(i for i, span in enumerate(genuine)
                     if span[3] is not None)
        tracer.spans[child][1] += 10.0
        tracer.spans[child][2] += 10.0
        expect(any("leaves its parent" in p for p in tracer.problems()),
               "a child span shifted 10 s later fails the nesting check",
               failures)
        tracer.spans = copy.deepcopy(genuine)
        tracer.spans[0][1] -= 0.01
        expect(any("self times sum to" in p for p in tracer.problems()),
               "a command span started 10 ms early fails the sum check",
               failures)

        table = data / "words.tsv"
        flip_byte(table, table.stat().st_size // 2)
        diff = run.compare_digests(before, run.artifact_digests(data), "x")
        expect(diff == ["words.tsv: x"],
               "one flipped byte in words.tsv fails the digest check",
               failures)

        text = stats.read_text(encoding="utf-8")
        key = text.index('"h2": ') + len('"h2": ')
        end = key
        while text[end] not in ",\n":
            end += 1
        flip_byte(stats, end - 1)  # last digit of h2
        try:
            checks.check_stats(stats, maximal_words(gen.words))
            caught = False
        except checks.CheckFailed as exc:
            print(f"     {exc}")
            caught = True
        expect(caught, "one flipped byte in h2 fails the brute-force check",
               failures)

        outcome = run.Outcome()
        run.run_pass(launcher, [["stats", "missing.tsv", "--out", "x.json"]],
                     data, logs, "bad", outcome)
        expect(outcome.failed == 1 and not outcome.correct,
               "a non-zero exit counts as a failed command", failures)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
