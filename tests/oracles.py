"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written with different machinery than the
library (dicts and plain loops instead of numpy; no shared helpers) so that
agreement between the two is meaningful. Four are exceptions. The
long-table reader is the original row-by-row reader, which builds each row
as a WordRecord and so shares the record's validation, as the plain-text
and interlinear table oracles do for each word they place. The TSV command
oracle is ``stats``, ``bigrams``, ``sukhotin``, ``sample``, ``translit`` and
``cleanse`` as they ran before they read their input in slices: the whole
file decoded, read into a table with ``read_tsv``, and the table functions,
except that ``translit`` and ``cleanse`` rewrite token by token, cleansing
and simplifying with this module's own loops. Its statistics are the
library's ``PairCells`` methods, as the commands' are, but counted from
the stream (``PairCells.of_stream``), not from word types; so it checks
the commands' reading and counting, and the statistics themselves are
checked against this module's tallies (``pair_tally``, ``h2_oracle``,
``coverage_oracle``, ``sukhotin_oracle``). The batch oracle is the
token-level path ``batch`` took before it counted word types: it composes
the library's transliteration, this module's token-by-token simplification
and ``entropy_report``, job by job. The sampler oracle is ``sample_h2`` as
it was before it counted from checkpoints: a dense numpy count of each
window over every pair of symbols, and h2 as a generator over the occupied
cells; the tests compare its values with ``==``. Its starts are drawn one
child generator per sample, the path that ``sampling._starts`` computes in
one pass; it keeps the stream's own symbol codes (``symbol_codes``), which
the library no longer has. The window-pairs oracle numbers the pairs of the
tokens' whole stream, where ``WindowCounts`` gathers its types' pairs a
block of tokens at a time. The payload splitter is the interlinear
parser's as it was before it tested a payload once for ``#``: it tests
each word for every reserved character.
"""

from __future__ import annotations

import math
import re
import unicodedata
from pathlib import Path

import numpy as np

from charentropy.cleanse import CleanseConfig
from charentropy.errors import DataError, ParseError, RewriteError
from charentropy.formats import SCHEMA_VERSION, fmt_float, json_dumps
from charentropy.ingest import (TSV_COLUMNS, LongTable, WordRecord, _decode,
                                canonical_selection, read_tsv, take,
                                with_words, write_tsv)
from charentropy.metrics import (bigram_matrix, coverage_report,
                                 entropy_report, heatmap_export, to_stream)
from charentropy.sampling import (SamplingConfig, distributions_to_dict,
                                  sample_h2)
from charentropy.sukhotin import adjacency_matrix, detect_from_adjacency
from charentropy.translit import (apply, builtin_rules, load_rules,
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


def _tsv_position(name: str, value: str) -> int:
    """A position as ``write_tsv`` writes it, and nothing that ``int()``
    would also accept (a sign, spaces, ``_``, non-ASCII digits, leading
    zeros)."""
    if re.fullmatch("[1-9][0-9]*", value) is None:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


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
                k: (_tsv_position(k, v) if k in _TSV_INT_COLUMNS else v)
                for k, v in row.items()
            }))
        except ValueError as exc:
            raise ParseError(str(exc), n) from None
    return LongTable(records=tuple(records), source_id=source_id or "")


def split_payload_oracle(payload: str, comma_breaks: bool,
                         line_number: int) -> tuple[str, ...]:
    """The words of an interlinear payload, each checked for the reserved
    characters ``.``, ``,`` and ``#``."""
    if "{" in payload or "}" in payload:
        stripped = re.sub(r"\{[^{}]*\}", "", payload)
        if "{" in stripped or "}" in stripped:
            raise ParseError("unbalanced '{' annotation", line_number)
        payload = stripped
    payload = payload.replace(",", "." if comma_breaks else "")
    words = tuple(w for w in re.split(r"[.\s]+", payload) if w)
    for w in words:
        bad = frozenset(".,#").intersection(w)
        if bad:
            raise ParseError(
                f"word {w!r} contains reserved character(s) {sorted(bad)!r}",
                line_number)
    return words


def plaintext_table_oracle(raw: bytes, source_id: str) -> LongTable:
    """Plain text as a table, built one WordRecord per word. Paragraphs are
    gathered whole first; each word's positions are then counted in a loop
    over its paragraph's lines and words."""
    paragraphs: list[list[tuple[int, list[str]]]] = []
    in_paragraph = False
    text = raw.decode("utf-8").removeprefix("\ufeff")
    for n, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if not words:
            in_paragraph = False
        elif in_paragraph:
            paragraphs[-1].append((n, words))
        else:
            paragraphs.append([(n, words)])
            in_paragraph = True
    records = []
    for number, lines in enumerate(paragraphs, start=1):
        size = sum(len(words) for _, words in lines)
        placed = 0
        for n, words in lines:
            for i, word in enumerate(words):
                placed += 1
                records.append(WordRecord(
                    word, i + 1, len(words) - i, placed, size - placed + 1,
                    "paragraph", n, number, "", "", "", "unclassified",
                    "unclassified", ""))
    return LongTable(records=records, source_id=source_id)


def interlinear_table_oracle(raw: bytes, meta: dict[str, tuple[str, ...]],
                             source_id: str, transcriber: str | None = None,
                             comma_breaks: bool = False) -> LongTable:
    """Interlinear text as a table, built one WordRecord per word. ``meta``
    maps each folio to its ``(section, language, hand, quire)``. The
    transcriber's lines are gathered first, each paragraph (consecutive
    lines of one folio and locus) whole; each word's positions are then
    counted in a loop over its paragraph's lines and words."""
    alnum = "[A-Za-z0-9]"
    header = re.compile(rf"<\s*({alnum}+)\.([A-Za-z]{alnum}*)\.([0-9]+)"
                        rf"\s*;\s*({alnum}+)\s*>(.*)")
    paragraphs: list[list[tuple]] = []
    unit = None
    text = raw.decode("utf-8").removeprefix("\ufeff")
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        folio, locus, number, who, payload = header.fullmatch(
            line.strip()).groups()
        if transcriber is not None and who != transcriber:
            continue
        words = split_payload_oracle(payload, comma_breaks, n)
        if (folio, locus) != unit:
            paragraphs.append([])
            unit = (folio, locus)
        paragraphs[-1].append((folio, locus, int(number), who, words))
    records = []
    for paragraph, lines in enumerate(paragraphs, start=1):
        size = sum(len(words) for *_, words in lines)
        placed = 0
        for folio, locus, number, who, words in lines:
            section, language, hand, quire = meta[folio]
            kind = "paragraph" if locus[0] in "Pp" else "label_or_diagram"
            for i, word in enumerate(words):
                placed += 1
                records.append(WordRecord(
                    word, i + 1, len(words) - i, placed, size - placed + 1,
                    kind, number, paragraph, folio, quire, section,
                    language, hand, who))
    return LongTable(records=records, source_id=source_id)


def charset_oracle(words) -> list[tuple[str, int, float]]:
    """The ranked character census, counted character by character: each
    letter of each word, and the boundary once per word."""
    counts: dict[str, int] = {}
    for word in words:
        for ch in word + BOUNDARY:
            counts[ch] = counts.get(ch, 0) + 1
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(c, n, n / total) for c, n in ranked]


def longest_match_oracle(word: str, rules) -> tuple[str, dict[str, int]]:
    """``(rewritten word, pattern -> firings)`` of one left-to-right pass
    of ``rules``, a sequence of objects with ``pattern`` and
    ``replacement``: at each position every rule is tried, the longest
    pattern that starts there fires (the earliest rule among equally long
    ones) and scanning resumes after it; a character no pattern matches is
    copied."""
    out = ""
    fired: dict[str, int] = {}
    i = 0
    while i < len(word):
        best = None
        for rule in rules:
            n = len(rule.pattern)
            if word[i:i + n] == rule.pattern and (
                    best is None or n > len(best.pattern)):
                best = rule
        if best is None:
            out += word[i]
            i += 1
        else:
            out += best.replacement
            fired[best.pattern] = fired.get(best.pattern, 0) + 1
            i += len(best.pattern)
    return out, fired


def simplify_document_oracle(table: LongTable, threshold: int) -> LongTable:
    """``simplify_document`` as it was before it counted word types: the
    ASCII capitals lowered, every character of every token counted one by
    one, and each character rarer than ``threshold`` masked with ``*``,
    except ``x``."""
    words = table.words()
    lowered = {w: "".join(c.lower() if "A" <= c <= "Z" else c for c in w)
               for w in set(words)}
    counts: dict[str, int] = {}
    for word in words:
        for c in lowered[word]:
            counts[c] = counts.get(c, 0) + 1
    rare = {c for c, n in counts.items() if n < threshold and c != "x"}
    simplified = {w: "".join("*" if c in rare else c for c in low)
                  for w, low in lowered.items()}
    return with_words(table, [simplified[w] for w in words])


def cleanse_words_oracle(words, cfg) -> list[str]:
    """Each token of ``words`` after the cleansing pipeline, character by
    character: stripped of P*, S* and N* characters and lowered, then
    every character of every token counted, and the characters rarer than
    the threshold or outside the script ranges dropped. Characters of
    ``preserve_chars`` are exempt from every removal; an emptied token is
    an empty string."""
    keep = cfg.preserve_chars
    first = []
    for word in words:
        out = ""
        for c in word:
            if c in keep:
                out += c
            elif cfg.strip_punctuation and unicodedata.category(c)[0] in "PSN":
                continue
            elif cfg.lowercase:
                out += c.lower()
            else:
                out += c
        first.append(out)
    counts: dict[str, int] = {}
    for word in first:
        for c in word:
            counts[c] = counts.get(c, 0) + 1
    total = sum(counts.values())
    dropped = set()
    for c, n in counts.items():
        if c in keep:
            continue
        if cfg.rare_char_threshold > 0 and n / total < cfg.rare_char_threshold:
            dropped.add(c)
        if cfg.script_ranges is not None and not any(
                lo <= ord(c) <= hi for lo, hi in cfg.script_ranges):
            dropped.add(c)
    return ["".join(c for c in word if c not in dropped) for word in first]


def cleanse_oracle(table: LongTable, cfg) -> LongTable:
    """``cleanse`` token by token: each row's word cleansed by
    :func:`cleanse_words_oracle`, and the rows it empties dropped."""
    words = cleanse_words_oracle(table.words(), cfg)
    return with_words(take(table, [bool(w) for w in words]),
                      [w for w in words if w])


def _translit_oracle(table: LongTable, system: str | None,
                     rules: str | None, rare_min: int | None) -> LongTable:
    """``translit`` on a table, token by token."""
    if rare_min is not None:
        return simplify_document_oracle(table, rare_min)
    ruleset = (builtin_rules(system) if system else
               load_rules(Path(rules).read_text(encoding="utf-8"),
                          Path(rules).stem))
    words = table.words()
    new = [apply(w, ruleset) for w in words]
    if "" in new:
        raise RewriteError(f"rule set {ruleset.name!r} erased the word "
                           f"{words[new.index('')]!r}")
    return with_words(table, new)


def tsv_command_oracle(command: str, raw: bytes, path: str, *,
                       threshold: float | None = None,
                       include_space: bool = False,
                       system: str | None = None, rules: str | None = None,
                       rare_min: int | None = None,
                       sampling: SamplingConfig | None = None):
    """``(exit code, standard error, {file name: text})`` of ``stats --out
    o.json``, ``bigrams --out-prefix o``, ``sukhotin --diagnostics --out
    o.json`` (with ``include_space``), ``sample --values --out o.json``
    (with the flags of ``sampling``), ``translit --out o.tsv`` (with
    ``--system``, ``--rules`` or ``--simplify --rare-min``) or ``cleanse
    --out o.tsv`` (with ``--threshold``) on the TSV file ``path`` holding
    ``raw``: the whole file decoded, read with ``read_tsv``, and the table
    functions. Every data error names the file. Manifests are left out."""
    try:
        table = read_tsv(_decode(raw))
        head = {"schema_version": SCHEMA_VERSION,
                "source_id": table.source_id}
        if command == "stats":
            report = entropy_report(to_stream(table))
            files = {"o.json": json_dumps({
                **head, "entropy": report.as_dict(),
                "charset": [{"char": c, "count": n, "proportion": p}
                            for c, n, p in charset_oracle(table.words())]})}
        elif command == "bigrams":
            matrix = bigram_matrix(to_stream(table))
            files = {f"o_{suffix}.csv": heatmap_export(matrix, mode)
                     for mode, suffix in (("conditional", "conditional"),
                                          ("weighted", "weighted"),
                                          ("entropy_contribution",
                                           "entropy"))}
            files["o_coverage.json"] = json_dumps(
                {**head, **coverage_report(matrix).as_dict()})
        elif command == "sukhotin":
            result = detect_from_adjacency(
                adjacency_matrix(to_stream(table), include_space),
                include_space)
            files = {"o.json": json_dumps(
                {**head, **result.as_dict(diagnostics=True)})}
        elif command == "sample":
            files = {"o.json": json_dumps({
                **head, "seed": sampling.seed,
                "samples_per_size": sampling.samples_per_size,
                "distributions": distributions_to_dict(
                    sample_h2(table, sampling), include_values=True)})}
        elif command == "translit":
            files = {"o.tsv": write_tsv(
                _translit_oracle(table, system, rules, rare_min))}
        else:
            cfg = (CleanseConfig() if threshold is None
                   else CleanseConfig(rare_char_threshold=threshold))
            files = {"o.tsv": write_tsv(cleanse_oracle(table, cfg))}
    except DataError as exc:
        return 2, f"charentropy: error: {path}: {exc}\n", {}
    return 0, "", files


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
            selected = simplify_document_oracle(selected, rare_min)
        report = entropy_report(to_stream(selected))
        out += "\t".join([
            doc, system, str(report.charset_size), fmt_float(report.h2),
            str(report.word_token_count),
            str(report.word_type_count)]) + "\n"
    return out, warnings


def h2_generator_oracle(counts) -> float:
    """h2 of a count matrix, one generator step per occupied cell."""
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty count matrix")
    t = float(total)
    row_sums = counts.sum(axis=1)
    rows, cols = np.nonzero(counts)
    return math.fsum(
        (c / t) * math.log2(r / c)
        for c, r in zip(counts[rows, cols].tolist(),
                        row_sums[rows].tolist()))


def symbol_codes(stream) -> tuple[tuple[str, ...], np.ndarray]:
    """Codepoint-sorted symbols (boundary included) and the stream as
    indices into them."""
    symbols = tuple(sorted(stream.alphabet | {BOUNDARY}))
    points = np.frombuffer(
        stream.symbols.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    order = np.array([ord(c) for c in symbols], dtype="<u4")
    return symbols, np.searchsorted(order, points).astype(np.int64)


def _dense_window_h2(table: LongTable):
    """(word count, h2 of the window of words ``[start, start + w)``),
    each window counted with a dense bincount over all k * k pairs."""
    symbols, codes = symbol_codes(to_stream(table))
    k = len(symbols)
    pair_codes = codes[:-1] * k + codes[1:]
    boundaries = np.flatnonzero(codes == symbols.index(BOUNDARY))

    def h2(start: int, w: int) -> float:
        window = pair_codes[boundaries[start]:boundaries[start + w]]
        counts = np.bincount(window, minlength=k * k).reshape(k, k)
        return h2_generator_oracle(counts)

    return len(boundaries) - 1, h2


def window_h2_oracle(table: LongTable, windows) -> list[float]:
    """h2 of each ``(start, w)`` window of the table's words."""
    _, h2 = _dense_window_h2(table)
    return [h2(start, w) for start, w in windows]


def window_pairs_oracle(types) -> np.ndarray:
    """``WindowCounts._pairs``: the pairs of the tokens' own ``#w#w#...#``
    stream, each numbered by its place among the distinct pairs sorted."""
    s = stream_of([types.forms[i] for i in types.ids.tolist()])
    pairs = list(zip(s, s[1:]))
    number = {pair: j for j, pair in enumerate(sorted(set(pairs)))}
    small = np.int32 if len(pairs) < 2 ** 31 else np.int64
    return np.array([number[pair] for pair in pairs], dtype=small)


def sample_start_oracle(seed: int, size_index: int, sample_index: int,
                        n: int) -> int:
    """The start in [0, n) of a sample: the first draw of its own child
    generator, built from the documented seed schedule."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(size_index, sample_index)))
    return int(rng.integers(0, n))


def sample_h2_oracle(table: LongTable, cfg) -> list[list[float]]:
    """The values ``sample_h2`` draws, per window size, with the same
    per-sample seed schedule."""
    n_words, h2 = _dense_window_h2(table)
    return [[h2(sample_start_oracle(cfg.seed, size_index, sample_index,
                                    n_words - w + 1), w)
             for sample_index in range(cfg.samples_per_size)]
            for size_index, w in enumerate(cfg.window_sizes)]
