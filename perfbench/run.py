"""charentropy benchmark: closed-loop CLI runs and a traced in-process replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload manuscript --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload

``--trace 0`` times the ``charentropy`` command as users run it: one child
process at a time, each pass over the workload's command sequence starting
when the last ended, until ``--seconds`` is spent (at least two passes).
``--trace 1`` replays the same commands in this process, untraced and traced
in turn, and reports the per-layer metrics from ``tracing.py``.

Every run checks its outputs: every command exits 0 and prints nothing,
every artifact is byte-identical across the run's passes, the artifacts of
the default seed match ``golden.json``, and the reported statistics agree
with a brute-force tally over the generated words. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Human-readable lines before it give every metric with its unit
and sample count, the inputs and the environment; the same record goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy

import checks
import measure
import tracing
from workloads import SAMPLES_PER_WINDOW, WINDOWS, Workload, workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 21
MIN_PASSES = 2

# Metric names and units, as the benchmark's spec lists them: the
# end-to-end ones go in the result line of an untraced run, the per-layer
# ones in that of a traced run.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Outcome:
    """Commands attempted and failed, and why the run is not correct."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def command(self, child: measure.Child) -> None:
        self.attempted += 1
        output = child.log.read_text(encoding="utf-8", errors="replace")
        if child.exit_code != 0 or output:
            self.failed += 1
            self.problems.append(
                f"charentropy {' '.join(child.args)}: exit {child.exit_code}"
                + (f": {output.strip()[:500]}" if output else ""))

    @property
    def correct(self) -> bool:
        return not self.problems


def artifact_digests(data: Path) -> dict[str, str]:
    return {p.name: checks.sha256(p) for p in sorted(data.iterdir())}


def compare_digests(reference: dict[str, str], digests: dict[str, str],
                    what: str) -> list[str]:
    """One line per artifact that is missing, extra or different."""
    return [f"{name}: {what}" for name in sorted(set(reference) | set(digests))
            if reference.get(name) != digests.get(name)]


def clear_outputs(data: Path, inputs: set[str]) -> None:
    for p in data.iterdir():
        if p.name not in inputs:
            p.unlink()


def run_pass(launcher: measure.Launcher, commands, data: Path, logs: Path,
             tag: str, outcome: Outcome,
             between=lambda: None) -> tuple[list[measure.Child], float]:
    """One closed-loop pass; stops at the first failing command. Returns
    the children and the pass's wall time, which leaves out ``between``,
    called before each command."""
    children = []
    seconds = 0.0
    for i, args in enumerate(commands):
        between()
        t0 = time.perf_counter()
        child = launcher.run(args, data, logs / f"{tag}-{i}.log")
        seconds += time.perf_counter() - t0
        children.append(child)
        before = outcome.failed
        outcome.command(child)
        if outcome.failed > before:
            break
    return children, seconds


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# --trace 0: closed loop of subprocesses
# ---------------------------------------------------------------------------

def closed_loop(wl: Workload, launcher: measure.Launcher, data: Path,
                logs: Path, inputs: set[str], seconds: float,
                outcome: Outcome, gen) -> tuple[dict, dict, list]:
    setup: list[float] = []

    def version() -> None:
        child = launcher.run(["--version"], data,
                             logs / f"version-{len(setup)}.log")
        outcome.attempted += 1
        text = child.log.read_text(encoding="utf-8", errors="replace")
        if child.exit_code != 0 or not text.startswith("charentropy "):
            outcome.failed += 1
            outcome.problems.append(f"charentropy --version: {text.strip()}")
        setup.append(child.seconds)

    def spread_versions() -> None:
        # Keeps the --version runs spread evenly over the run, so that a
        # brief slowdown of the host hits few of them.
        due = SETUP_REPEATS * (time.perf_counter() - start) / seconds + 1
        while len(setup) < min(due, SETUP_REPEATS):
            version()

    passes: list[list[measure.Child]] = []
    pass_seconds: list[float] = []
    digests: list[dict] = []
    start = time.perf_counter()
    while outcome.correct:
        clear_outputs(data, inputs)
        children, pass_s = run_pass(launcher, wl.commands, data, logs,
                                    f"pass{len(passes)}", outcome,
                                    spread_versions)
        pass_seconds.append(pass_s)
        passes.append(children)
        digests.append(artifact_digests(data))
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES and elapsed
                + statistics.fmean(pass_seconds) > seconds):
            break
    while outcome.correct and len(setup) < SETUP_REPEATS:
        version()
    if not passes:
        return {}, {}, digests

    per_command: dict[str, list[float]] = {}
    for children in passes:
        sums: dict[str, float] = {}
        for child in children:
            key = f"{child.args[0]}_s"
            sums[key] = sums.get(key, 0.0) + child.seconds
        for key, value in sums.items():
            per_command.setdefault(key, []).append(value)

    report = {"setup_s": measure.summary(setup),
              "pipeline_s": measure.summary(pass_seconds)}
    report.update({k: measure.summary(v) for k, v in per_command.items()})
    pipeline = report["pipeline_s"]["median"]
    rss = max(c.peak_rss_mb for children in passes for c in children)
    metrics = {
        "setup_s": report["setup_s"]["median"],
        "pipeline_s": pipeline,
        "words_per_s": gen.input_words / pipeline,
        "peak_rss_mb": rss,
    }
    extra = {"failed_ratio": outcome.failed / max(outcome.attempted, 1)}
    if "sample_s" in report:
        extra["samples_per_s"] = (len(WINDOWS) * SAMPLES_PER_WINDOW
                                  / report["sample_s"]["median"])
    return metrics, {"timings": report, "derived": extra}, digests


# ---------------------------------------------------------------------------
# --trace 1: in-process replay with spans
# ---------------------------------------------------------------------------

def import_package():
    """The charentropy package of this checkout, with the submodules the
    tracer wraps."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("charentropy")
    for sub in ("cli", "ingest", "translit", "sampling", "sukhotin"):
        importlib.import_module(f"charentropy.{sub}")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported charentropy from {package.__file__}, "
                           f"not from this checkout")
    return package


def traced_replay(wl: Workload, data: Path, inputs: set[str], seconds: float,
                  outcome: Outcome, spans_path: Path) -> tuple[dict, dict, list]:
    package = import_package()
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_replay: list[dict] = []
    digests: list[dict] = []
    start = time.perf_counter()
    while True:
        for trace_on in (False, True):
            clear_outputs(data, inputs)
            outcome.attempted += len(wl.commands)
            try:
                if trace_on:
                    tracer.replay = len(traced)
                    tracer.translit_inputs = []
                    with tracing.installed(tracer, package):
                        seconds_taken = tracing.replay(package, wl.commands,
                                                       data, tracer)
                    traced.append(seconds_taken)
                    per_replay.append(tracing.layer_metrics(tracer,
                                                            tracer.replay))
                else:
                    untraced.append(tracing.replay(package, wl.commands,
                                                   data, None))
            except RuntimeError as exc:
                outcome.failed += 1
                outcome.problems.append(str(exc))
                return {}, {}, digests
            digests.append(artifact_digests(data))
        elapsed = time.perf_counter() - start
        if elapsed + untraced[-1] + traced[-1] > seconds:
            break

    outcome.problems += tracer.problems()
    outcome.problems += [f"wrap point {w} is missing: its layer is not traced"
                         for w in tracer.missing]
    partition = tracer.partition()
    tracer.write(spans_path)
    metrics = tracing.median_metrics(per_replay)
    apply_s = tracing.bare_apply_seconds(package, tracer)
    metrics["translit.apply.s"] = apply_s
    metrics["translit.overhead_ratio"] = (
        metrics["translit.transliterate_document.s"] / apply_s
        if apply_s else 0.0)
    metrics["ingest.read_tsv.alloc_mb"] = tracing.read_tsv_alloc_mb(
        package, tracer)
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(untraced))
    detail = {"replays": len(traced),
              "untraced_s": untraced, "traced_s": traced,
              "missing_wrap_points": tracer.missing,
              "partition": partition}
    return metrics, detail, digests


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(wl: Workload, launcher: measure.Launcher, seed: int,
                 seconds: float, trace: bool) -> dict:
    run_dir = WORK / f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    data, logs, results = run_dir / "data", run_dir / "logs", WORK / "results"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    for d in (data, logs, results):
        d.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        t0 = time.perf_counter()
        gen = wl.generate(seed)
        for name, content in gen.files.items():
            (data / name).write_bytes(content)
        generate_s = time.perf_counter() - t0
        for i, args in enumerate(wl.prepare):
            outcome.command(launcher.run(args, data,
                                         logs / f"prepare-{i}.log"))
        inputs = {p.name for p in data.iterdir()}
        record = {
            "workload": wl.name, "why": wl.why, "trace": int(trace),
            "environment": environment(seed),
            "inputs": {
                "input_words": gen.input_words,
                "generate_s": generate_s,
                "files": {name: {"bytes": len(content),
                                 "sha256": checks.sha256(data / name)}
                          for name, content in gen.files.items()},
            },
            "commands": [" ".join(a) for a in wl.commands],
        }
        if not outcome.correct:
            metrics, detail, digests = {}, {}, []
        elif trace:
            spans = results / f"{run_dir.name}-spans.jsonl"
            metrics, detail, digests = traced_replay(
                wl, data, inputs, seconds, outcome, spans)
        else:
            metrics, detail, digests = closed_loop(
                wl, launcher, data, logs, inputs, seconds, outcome, gen)
        record["detail"] = detail

        if digests:
            for i, d in enumerate(digests[1:], start=1):
                outcome.problems += compare_digests(
                    digests[0], d, f"differs between pass 0 and pass {i}")
            if seed == DEFAULT_SEED:
                golden = json.loads(GOLDEN.read_text())
                outcome.problems += compare_digests(
                    golden.get(wl.name, {}), digests[0],
                    f"differs from {GOLDEN.name} (seed {DEFAULT_SEED})")
            record["artifacts"] = digests[0]
        if outcome.correct:
            try:
                wl.check(data, gen, seed)
            except checks.CheckFailed as exc:
                outcome.problems.append(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    names = PER_LAYER if trace else END_TO_END
    if outcome.correct:
        outcome.problems += [f"metric {k} was not measured"
                             for k in names if k not in metrics]
    record.update(correct=outcome.correct, attempted=outcome.attempted,
                  failed=outcome.failed, problems=outcome.problems,
                  metrics={k: metrics[k] for k in names if k in metrics})
    (results / f"{run_dir.name}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_report(record: dict) -> None:
    print(f"== {record['workload']} (trace {record['trace']}): {record['why']}")
    env = record["environment"]
    print("   env " + " ".join(f"{k}={v}" for k, v in env.items()))
    ins = record["inputs"]
    print(f"   input words={ins['input_words']} "
          f"generate_s={ins['generate_s']:.3f}")
    for name, f in ins["files"].items():
        print(f"   input {name} bytes={f['bytes']} sha256={f['sha256']}")
    for c in record["commands"]:
        print(f"   command charentropy {c}")
    detail = record["detail"]
    for name, t in detail.get("timings", {}).items():
        pct = (f" p{t['percentile']}={t['percentile_value']:.6f}"
               if t["percentile"] else " (too few samples for a percentile)")
        print(f"   {name:<14} median={t['median']:.6f} s n={t['n']}{pct}")
    for name, value in detail.get("derived", {}).items():
        unit = {"failed_ratio": "ratio", "samples_per_s": "samples/s"}[name]
        print(f"   {name:<14} {value:.6g} {unit}")
    if record["trace"]:
        for name, value in record["metrics"].items():
            print(f"   {name:<42} {value:<14.6g} {PER_LAYER[name]}")
        if detail:
            print(f"   replays={detail['replays']} trace.overhead_ratio="
                  f"{record['metrics'].get('trace.overhead_ratio', 0):.4f}")
            last = [p for p in detail["partition"]
                    if p["replay"] == detail["replays"] - 1]
            for p in last:
                if p["in_process_s"] is None:
                    continue
                print(f"   {p['span']:<14} in-process={p['in_process_s']:.6f} s "
                      f"= layer and command self times {p['self_sum_s']:.6f} s")
            if detail["missing_wrap_points"]:
                print("   missing wrap points: "
                      + ", ".join(detail["missing_wrap_points"]))
    else:
        for name, value in record["metrics"].items():
            print(f"   {name:<14} {value:.6g} {END_TO_END[name]}")
    print(f"   attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    for p in record["problems"]:
        print(f"   PROBLEM {p}")


def result_line(record: dict) -> dict:
    units = PER_LAYER if record["trace"] else END_TO_END
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in record["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="manuscript, corpus-400k, bootstrap or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "charentropy" / "__init__.py").is_file():
        print(f"perfbench: no charentropy sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be 0 or more")
    defined = workloads(args.seed)
    names = list(defined) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in defined]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected one of "
                     + ", ".join(defined) + " or all")

    lines = {}
    with measure.Launcher(ROOT) as launcher:
        for name in names:
            record = run_workload(defined[name], launcher, args.seed,
                                  args.seconds, bool(args.trace))
            print_report(record)
            lines[name] = result_line(record)
            sys.stdout.flush()
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        for name, line in lines.items():
            print(json.dumps(line))
        final = {"correct": all(l["correct"] for l in lines.values()),
                 "attempted": sum(l["attempted"] for l in lines.values()),
                 "failed": sum(l["failed"] for l in lines.values()),
                 "metrics": {f"{name}.{k}": v for name, l in lines.items()
                             for k, v in l["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
