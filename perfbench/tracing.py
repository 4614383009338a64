"""In-process replay with spans around the program's public functions.

Each public function is wrapped where its caller looks it up (for example
``charentropy.cli.read_tsv`` and ``charentropy.sukhotin.adjacency_matrix``),
so the program itself is unchanged. A span records name, start, end, parent
and replay id; spans stay in memory and are written when the run ends. A
span's self time is its duration minus the time its child spans cover.
Each command is also timed outside its ``cli.<command>`` span, so
``Tracer.problems`` can check that the self times under the span add up to
that time and that every span nests inside its parent.

Counting what a layer did (rows, words, bytes) happens with the tracer's
clock paused, so the bookkeeping lands in no span.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module the caller looks the name up in, attribute)
WRAP_POINTS = (
    ("ingest.parse_interlinear", "cli", "parse_interlinear"),
    ("ingest.parse_plaintext", "cli", "parse_plaintext"),
    ("ingest.read_tsv", "cli", "read_tsv"),
    ("ingest.write_tsv", "cli", "write_tsv"),
    ("ingest.canonical_selection", "cli", "canonical_selection"),
    ("translit.transliterate_document", "cli", "transliterate_document"),
    ("translit.simplify_document", "cli", "simplify_document"),
    ("translit.builtin_rules", "cli", "builtin_rules"),
    ("cleanse.cleanse", "cli", "cleanse"),
    ("cleanse.charset_report", "cli", "charset_report"),
    ("metrics.to_stream", "cli", "to_stream"),
    ("metrics.to_stream", "sampling", "to_stream"),
    ("metrics.to_stream", "sukhotin", "to_stream"),
    ("metrics.entropy_report", "cli", "entropy_report"),
    ("metrics.bigram_matrix", "cli", "bigram_matrix"),
    ("metrics.coverage_report", "cli", "coverage_report"),
    ("metrics.heatmap_export", "cli", "heatmap_export"),
    ("sampling.sample_h2", "cli", "sample_h2"),
    ("sukhotin.adjacency_matrix", "sukhotin", "adjacency_matrix"),
    ("sukhotin.detect_from_adjacency", "sukhotin", "detect_from_adjacency"),
    ("formats.sha256_file", "cli", "sha256_file"),
    ("formats.json_dumps", "cli", "json_dumps"),
)

# What a command's self times may differ from the time taken around its
# span: the span's own open and close, a few microseconds.
SUM_TOLERANCE_S = 1e-3

COMMANDS = ("ingest", "translit", "cleanse", "stats", "bigrams", "sample",
            "sukhotin", "batch")

class Tracer:
    """Spans and per-span-name counters for one run."""

    def __init__(self) -> None:
        # [name, start, end, parent index, replay id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self.replay = 0
        self.counts: dict[int, dict[str, Counter]] = defaultdict(
            lambda: defaultdict(Counter))
        self.translit_inputs: list[tuple] = []  # (rules, words), last replay
        self.largest_tsv = ""
        self.missing: list[str] = []
        # command span index -> the command's time, taken outside the span
        self.outer: dict[int, float] = {}

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.now(), None, parent, self.replay])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.now()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start

    def counter(self, name: str) -> Counter:
        return self.counts[self.replay][name]

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def partition(self) -> list[dict]:
        """Per root span: the sum of the self times under it, and the time
        taken around it when it is a command span (else None)."""
        selfs = self.self_times()
        totals: dict[int, float] = defaultdict(float)
        for i in range(len(self.spans)):
            root = i
            while self.spans[root][3] is not None:
                root = self.spans[root][3]
            totals[root] += selfs[i]
        return [{"span": self.spans[root][0], "replay": self.spans[root][4],
                 "in_process_s": self.outer.get(root),
                 "self_sum_s": total}
                for root, total in sorted(totals.items())]

    def problems(self) -> list[str]:
        """Spans that leave their parent or have a negative self time,
        spans outside any command, and commands whose self times do not
        add up to the time taken around them."""
        out = []
        for i, s in enumerate(self.self_times()):
            name, start, end, parent, _ = self.spans[i]
            if s < 0:
                out.append(f"span {i} {name}: negative self time {s}")
            if parent is not None and not (
                    self.spans[parent][1] <= start <= end
                    <= self.spans[parent][2]):
                out.append(f"span {i} {name}: [{start}, {end}] leaves its "
                           f"parent {self.spans[parent][0]} "
                           f"[{self.spans[parent][1]}, {self.spans[parent][2]}]")
        for p in self.partition():
            if p["in_process_s"] is None:
                out.append(f"span {p['span']} is outside every command")
            elif abs(p["in_process_s"] - p["self_sum_s"]) > SUM_TOLERANCE_S:
                out.append(f"{p['span']}: self times sum to "
                           f"{p['self_sum_s']} s, in-process time is "
                           f"{p['in_process_s']} s")
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, replay) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "replay": replay}) + "\n")


def _count(tracer: Tracer, name: str, args, result) -> None:
    c = tracer.counter(name)
    if name in ("ingest.parse_interlinear", "ingest.parse_plaintext"):
        c["words"] += len(result)
    elif name == "ingest.read_tsv":
        c["rows"] += len(result)
        if len(args[0]) > len(tracer.largest_tsv):
            tracer.largest_tsv = args[0]
    elif name == "ingest.write_tsv":
        c["bytes"] += len(result.encode("utf-8"))
    elif name == "ingest.canonical_selection":
        c["rows_in"] += len(args[0])
        c["rows_out"] += len(result)
    elif name == "translit.transliterate_document":
        words = args[0].words()
        c["words"] += len(words)
        c["types"] += len(set(words))
        tracer.translit_inputs.append((args[1], words))
    elif name == "translit.builtin_rules":
        c["name:" + args[0]] = 1
    elif name == "cleanse.cleanse":
        words_in, words_out = args[0].words(), result.words()
        c["words_in"] += len(words_in)
        c["words_out"] += len(words_out)
        c["chars_dropped"] += (sum(map(len, words_in))
                               - sum(map(len, words_out)))
    elif name == "metrics.to_stream":
        c["chars"] += len(result.symbols)
    elif name == "sampling.sample_h2":
        c["samples"] += sum(len(d.values) for d in result)
    elif name == "sukhotin.detect_from_adjacency":
        c["iterations"] += result.iterations
    elif name == "formats.sha256_file":
        c["bytes"] += os.path.getsize(args[0])


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Wrap every WRAP_POINTS function for the duration of the block.

    A wrap point the program no longer has is listed in ``tracer.missing``;
    a run with any is not correct.
    """
    saved = []
    for name, module_name, attr in WRAP_POINTS:
        module = getattr(package, module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            if f"{module_name}.{attr}" not in tracer.missing:
                tracer.missing.append(f"{module_name}.{attr}")
            continue

        def traced(*args, _fn=fn, _name=name, **kwargs):
            span = tracer.open(_name)
            try:
                result = _fn(*args, **kwargs)
            finally:
                tracer.close(span)
            with tracer.paused():
                tracer.counter(_name)["calls"] += 1
                _count(tracer, _name, args, result)
            return result

        saved.append((module, attr, fn))
        setattr(module, attr, functools.wraps(fn)(traced))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def replay(package, commands, data: Path, tracer: Tracer | None) -> float:
    """Run each command through ``charentropy.cli.main`` in this process,
    from ``data``; returns the wall time of the sequence. Raises
    RuntimeError on a non-zero exit or any output to standard error."""
    cwd = os.getcwd()
    os.chdir(data)
    start = time.perf_counter()
    try:
        for args in commands:
            err = io.StringIO()
            if tracer:
                outer = tracer.now()
                span = tracer.open(f"cli.{args[0]}")
            try:
                with contextlib.redirect_stderr(err):
                    code = package.cli.main(list(args))
            except Exception:
                # A subprocess would exit 1 with this traceback; report it
                # the same way.
                code = 1
                err.write(traceback.format_exc())
            if tracer:
                tracer.close(span)
                tracer.outer[span] = tracer.now() - outer
            if code != 0 or err.getvalue():
                raise RuntimeError(f"in-process {' '.join(args)}: exit "
                                   f"{code}: {err.getvalue().strip()[-2000:]}")
        return time.perf_counter() - start
    finally:
        os.chdir(cwd)


def bare_apply_seconds(package, tracer: Tracer) -> float:
    """``translit.apply`` over the words the last traced replay
    transliterated, with none of the document plumbing."""
    if not tracer.translit_inputs:
        return 0.0
    apply = package.translit.apply
    start = time.perf_counter()
    for rules, words in tracer.translit_inputs:
        for w in words:
            apply(w, rules)
    return time.perf_counter() - start


def read_tsv_alloc_mb(package, tracer: Tracer) -> float:
    """tracemalloc peak of one ``read_tsv`` on the largest table read."""
    if not tracer.largest_tsv:
        return 0.0
    tracemalloc.start()
    try:
        package.ingest.read_tsv(tracer.largest_tsv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def layer_metrics(tracer: Tracer, replay_id: int) -> dict[str, float]:
    """Every per-layer metric of one traced replay (zero where the workload
    never calls the layer), except the run-level ones that ``run.py`` adds:
    ``translit.apply.s``, ``translit.overhead_ratio``,
    ``ingest.read_tsv.alloc_mb`` and ``trace.overhead_ratio``."""
    selfs = tracer.self_times()
    spent: dict[str, float] = defaultdict(float)
    for (name, _, _, _, rid), s in zip(tracer.spans, selfs):
        if rid == replay_id:
            spent[name] += s
    c = tracer.counts[replay_id]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {f"{name}.s": spent[name] for name, _, _ in WRAP_POINTS}
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = spent[f"cli.{command}"]
    m["ingest.parse_interlinear.words"] = c["ingest.parse_interlinear"]["words"]
    m["ingest.parse_plaintext.words"] = c["ingest.parse_plaintext"]["words"]
    m["ingest.read_tsv.rows"] = c["ingest.read_tsv"]["rows"]
    m["ingest.write_tsv.bytes"] = c["ingest.write_tsv"]["bytes"]
    sel = c["ingest.canonical_selection"]
    m["ingest.canonical_selection.calls"] = sel["calls"]
    m["ingest.canonical_selection.kept_ratio"] = ratio(sel["rows_out"],
                                                       sel["rows_in"])
    tr = c["translit.transliterate_document"]
    m["translit.transliterate_document.calls"] = tr["calls"]
    m["translit.transliterate_document.words"] = tr["words"]
    m["translit.type_token_ratio"] = ratio(tr["types"], tr["words"])
    m["translit.simplify_document.calls"] = c["translit.simplify_document"]["calls"]
    rules = c["translit.builtin_rules"]
    m["translit.builtin_rules.calls"] = rules["calls"]
    m["translit.builtin_rules.distinct_ratio"] = ratio(
        sum(v for k, v in rules.items() if k.startswith("name:")),
        rules["calls"])
    cl = c["cleanse.cleanse"]
    m["cleanse.cleanse.words_in"] = cl["words_in"]
    m["cleanse.cleanse.words_out"] = cl["words_out"]
    m["cleanse.cleanse.chars_dropped"] = cl["chars_dropped"]
    m["metrics.to_stream.chars"] = c["metrics.to_stream"]["chars"]
    m["metrics.entropy_report.calls"] = c["metrics.entropy_report"]["calls"]
    samples = c["sampling.sample_h2"]["samples"]
    m["sampling.sample_h2.samples"] = samples
    m["sampling.sample_h2.us_per_sample"] = ratio(
        spent["sampling.sample_h2"] * 1e6, samples)
    m["sukhotin.detect_from_adjacency.iterations"] = (
        c["sukhotin.detect_from_adjacency"]["iterations"])
    m["formats.sha256_file.bytes"] = c["formats.sha256_file"]["bytes"]
    return m


def median_metrics(per_replay: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_replay)
            for k in per_replay[0]}
