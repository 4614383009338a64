"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written with different machinery than the
library (dicts and plain loops instead of numpy; no shared helpers) so that
agreement between the two is meaningful. Two are exceptions. The long-table
reader is the original row-by-row reader, which builds each row as a
WordRecord and so shares the record's validation. The batch oracle is the
token-level path ``batch`` took before it counted word types: it composes
the library's document transforms and ``entropy_report``, job by job.
"""

from __future__ import annotations

import math

from charentropy.errors import ParseError
from charentropy.formats import fmt_float
from charentropy.ingest import (TSV_COLUMNS, LongTable, WordRecord,
                                canonical_selection)
from charentropy.metrics import entropy_report, to_stream
from charentropy.translit import (builtin_rules, simplify_document,
                                  transliterate_document)

BOUNDARY = "#"


def stream_of(words):
    return BOUNDARY + BOUNDARY.join(words) + BOUNDARY


def pair_tally(stream: str) -> dict[tuple[str, str], int]:
    tally: dict[tuple[str, str], int] = {}
    for a, b in zip(stream, stream[1:]):
        tally[(a, b)] = tally.get((a, b), 0) + 1
    return tally


def joint_probs(stream: str) -> dict[tuple[str, str], float]:
    tally = pair_tally(stream)
    total = len(stream) - 1
    return {pair: n / total for pair, n in tally.items()}


def successor_counts(stream: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ch in stream[1:]:
        counts[ch] = counts.get(ch, 0) + 1
    return counts


def h1_oracle(stream: str) -> float:
    counts = successor_counts(stream)
    total = len(stream) - 1
    return -sum((n / total) * math.log2(n / total) for n in counts.values())


def h2_oracle(stream: str) -> float:
    tally = pair_tally(stream)
    total = len(stream) - 1
    row_totals: dict[str, int] = {}
    for (a, _), n in tally.items():
        row_totals[a] = row_totals.get(a, 0) + n
    h = 0.0
    for (a, _), n in tally.items():
        p_pair = n / total
        p_cond = n / row_totals[a]
        h -= p_pair * math.log2(p_cond)
    return h


def coverage_oracle(stream: str, threshold: float = 0.5):
    """(pairs above threshold, total joint share, word-final joint share)."""
    tally = pair_tally(stream)
    total = len(stream) - 1
    row_totals: dict[str, int] = {}
    for (a, _), n in tally.items():
        row_totals[a] = row_totals.get(a, 0) + n
    hits = []
    for (a, b), n in tally.items():
        if n / row_totals[a] > threshold:
            hits.append((a, b, n / row_totals[a], n / total))
    share = sum(s for _, _, _, s in hits)
    final = sum(s for _, b, _, s in hits if b == BOUNDARY)
    return hits, share, final


def adjacency_oracle(stream: str, include_space: bool):
    """(symbols in first-occurrence order, nested symmetric neighbour
    counts), identical neighbours and, without ``include_space``, the
    boundary left out."""
    symbols: list[str] = []
    for ch in stream:
        if ch == BOUNDARY and not include_space:
            continue
        if ch not in symbols:
            symbols.append(ch)
    adj: dict[str, dict[str, int]] = {a: {b: 0 for b in symbols}
                                      for a in symbols}
    for a, b in zip(stream, stream[1:]):
        if a == b:
            continue
        if not include_space and BOUNDARY in (a, b):
            continue
        adj[a][b] += 1
        adj[b][a] += 1
    return symbols, adj


def sukhotin_oracle(stream: str, include_space: bool):
    """Classical vowel detection, implemented over nested dicts."""
    symbols, adj = adjacency_oracle(stream, include_space)
    sums = {s: sum(adj[s].values()) for s in symbols}
    remaining = list(symbols)
    vowels = []
    while remaining:
        best = remaining[0]
        for s in remaining[1:]:
            if sums[s] > sums[best]:
                best = s
        if sums[best] <= 0:
            break
        vowels.append(best)
        remaining.remove(best)
        for s in remaining:
            sums[s] -= 2 * adj[best][s]
    return vowels


_TSV_INT_COLUMNS = frozenset(
    c for c in TSV_COLUMNS if c.endswith(("_fwd", "_rev", "_number")))


def read_tsv_rows(text: str) -> LongTable:
    """The row-by-row long-table reader: one dict and one WordRecord per
    row. Like ``ingest.read_tsv`` it rejects a row whose source_id differs
    from the first row's."""
    lines = text.splitlines()
    if not lines:
        return LongTable(records=(), source_id="")
    header = tuple(lines[0].split("\t"))
    if header != TSV_COLUMNS:
        raise ParseError(
            f"unexpected long-table header {header!r}", 1)
    records: list[WordRecord] = []
    source_id = None
    for n, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(TSV_COLUMNS):
            raise ParseError(
                f"expected {len(TSV_COLUMNS)} columns, got {len(fields)}", n)
        row = dict(zip(TSV_COLUMNS, fields))
        row_id = row.pop("source_id")
        if source_id is None:
            source_id = row_id
        elif row_id != source_id:
            raise ParseError(
                f"source_id {row_id!r} differs from {source_id!r} "
                f"on the rows above", n)
        try:
            records.append(WordRecord(**{
                k: (int(v) if k in _TSV_INT_COLUMNS else v)
                for k, v in row.items()
            }))
        except ValueError as exc:
            raise ParseError(str(exc), n) from None
    return LongTable(records=tuple(records), source_id=source_id or "")


def batch_rows_oracle(table: LongTable, jobs, rare_min: int):
    """``batch``'s output text and standard-error warnings for a parsed
    interlinear table and (doc, selection, system) jobs: each job selects
    its rows from its system's table, a simplified job simplifies its own
    selection of the maximal table, and the row comes from the stream's
    entropy report."""
    maximal = transliterate_document(table, builtin_rules("maximal"))
    tables = {"none": table, "maximal": maximal, "simplified": maximal,
              "minimal": transliterate_document(
                  maximal, builtin_rules("minimal"))}
    out = "doc\ttranscription\tcharset\th2\twords\tword_types\n"
    warnings = ""
    for doc, selection, system in jobs:
        selected = canonical_selection(tables[system], selection)
        if not len(selected):
            warnings += (f"charentropy: batch: skipping {doc}/{system}: "
                         f"selection {selection!r} is empty\n")
            continue
        if system == "simplified":
            selected = simplify_document(selected, threshold=rare_min)
        report = entropy_report(to_stream(selected))
        out += "\t".join([
            doc, system, str(report.charset_size), fmt_float(report.h2),
            str(report.word_token_count),
            str(report.word_type_count)]) + "\n"
    return out, warnings
