"""Command-line surface: reproducible pipelines over the library.

Design rules, enforced uniformly across subcommands:

* data goes to files (or standard output); diagnostics go to standard
  error;
* exit code 0 on success, 1 on usage errors, 2 on data errors;
* every run writes a manifest JSON next to its output — the subcommand,
  tool version, seed, flattened configuration, and a SHA-256 digest of
  every input file — so an artifact can always be traced to the exact
  inputs that produced it. It is renamed into place last, after the old
  one is removed, so it never vouches for another run's outputs, and a
  manifest that names an input or an output is refused. Manifests carry no
  timestamps: rerunning a command with identical inputs yields
  byte-identical artifacts, manifest included;
* every input file but package data is read by one block reader, which
  digests the bytes it decodes (a BOM is stripped, bad UTF-8 is a data
  error); ``translit``, ``cleanse`` and plain-text ``ingest`` read twice
  and fail on a change;
* outputs are written as they are encoded, never held whole, each file
  to a temporary beside it. The files are renamed into place together
  after the last byte, so a failed run changes no file. Standard output
  is UTF-8 whatever the locale, and a FIFO or a device is written as it
  stands;
* all floats print with 12 significant digits; JSON layouts carry a
  ``schema_version``.

The long-table TSV (see the ingest module) is the interchange format:
``ingest`` produces it, ``translit`` and ``cleanse`` transform it, and the
measurement commands (``stats``, ``bigrams``, ``sample``, ``sukhotin``,
``batch``) consume it or, for ``batch``, the raw interlinear file. No
command builds a table. ``ingest`` takes both kinds of input through
the same two passes. The first parses every line and counts each
paragraph's words; the second parses again and writes rows straight from
the parsed lines, a run of a few thousand words at a time, cut at any line
end (dropping the lines a ``--select`` misses, once placed). Plain text is
read from the file in each pass. Interlinear text is read once and held
whole, so that every error of the first parse, each missing folio
included, is reported before any output. ``stats``, ``bigrams``,
``sukhotin`` and ``sample`` fold theirs into word types a block at a time
(``sample`` keeps a type id per word). ``translit`` and ``cleanse``
rewrite each row where it stands. ``cleanse`` and the
simplifying ``translit`` decide per character and keep one count per
character; rule-based ``translit`` keeps its input's word-type counts and
maps only the words whose form changes. ``batch`` counts the words of
each stratum, the lines that agree on every column a selection tests, as
it parses the file, holding no line, and then counts each stratum's pairs
one system at a time. numpy loads on first use, which only ``sample``
reaches: the other commands count in Python.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import os
import re
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from . import __version__
from .cleanse import (CleanseConfig, cleansing_table, parse_config,
                      parse_decimal, parse_script_range)
from .errors import CharentropyError, ConfigError, DataError
from .formats import (SCHEMA_VERSION, fmt_float, json_dumps, json_pieces,
                      sha256_bytes)
from .ingest import (_LINE_BREAKS, CANONICAL_SELECTIONS, FolioMetadataMap,
                     _decode, builtin_data, content_lines, decoded_blocks,
                     interlinear_lines, line_sizes, line_values,
                     plaintext_lines, rewritten_tsv, tsv_pieces, tsv_slices)
from .metrics import BOUNDARY, PairCells, TypeCounts
from .sampling import (SamplingConfig, distributions_csv_rows,
                       distributions_to_dict, sample_h2)
from .sukhotin import detect_from_cells
from .translit import (builtin_rules, load_rules, simplifying_table,
                       transliterate_words)

# Not called here, but perfbench wraps each of these names in this module
# as a trace point.
from .cleanse import charset_report, cleanse  # noqa: F401,E402
from .formats import sha256_file  # noqa: F401,E402
from .ingest import (canonical_selection, parse_interlinear,  # noqa: F401,E402
                     parse_plaintext, read_tsv, write_tsv)
from .metrics import (bigram_matrix, coverage_report,  # noqa: F401,E402
                      entropy_report, heatmap_export, to_stream)
from .translit import (simplify_document,  # noqa: F401,E402
                       transliterate_document)

BATCH_SYSTEMS = ("maximal", "simplified", "minimal", "none")


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 (2 is reserved for data errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _naming(path):
    """Prefix ``PATH: `` to the message of a DataError the block raises, so
    that a run with several inputs names the bad one."""
    try:
        yield
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


class _Run(contextlib.AbstractContextManager):
    """A command's run, a context manager around the command. It reads the
    inputs and keeps their digests, stages each output file as a temporary
    beside it and holds the manifest's ``config`` and ``seed``. On a clean
    exit it writes the manifest's temporary, checks that every target can
    be replaced, removes the old manifest, and renames the outputs and then
    the manifest into place. On an exception it removes every temporary,
    so a failed run leaves every file as it was."""

    def __init__(self, args):
        self.args = args
        self.config: dict = {}
        self.seed: int | None = None
        self.inputs: dict[str, str] = {}  # path -> sha256
        self.staged: list[tuple[str, str, str]] = []  # temporary, target, out

    def __exit__(self, kind, exc, tb) -> None:
        try:
            if kind is None:
                self._commit()
        finally:
            for temporary, _, _ in self.staged:  # those not renamed
                with contextlib.suppress(OSError):
                    os.remove(temporary)

    def blocks(self, path) -> Iterator[str]:
        """The :func:`decoded_blocks` of the file at ``path``, whose digest
        is kept once it has been read. Every input but package data is read
        here; a second read of bytes that have changed is a DataError."""
        sha = hashlib.sha256()
        with open(path, "rb") as f:

            def read(n: int) -> bytes:
                sha.update(block := f.read(n))
                return block

            yield from decoded_blocks(read)
        digest = sha.hexdigest()
        if self.inputs.setdefault(str(path), digest) != digest:
            raise DataError(f"{path}: input changed while it was read")

    def text(self, path, parse=str):
        """``parse`` of an input file's text, decoded as the parsers decode
        theirs; an error of either step names the path."""
        with _naming(path):
            return parse("".join(self.blocks(path)))

    def builtin(self, name: str) -> str:
        """The text of a file shipped in ``charentropy.data``, digested as
        ``builtin:NAME``."""
        raw = builtin_data(name)
        self.inputs[f"builtin:{name}"] = sha256_bytes(raw)
        return _decode(raw)

    def types(self, path, *, tokens: bool = False) -> TypeCounts:
        """The word types of a long-table TSV (and its tokens, if asked).
        The types' own errors are left to their user, so that a bad row or
        byte anywhere in the file is reported first."""
        with _naming(path):
            return TypeCounts.fold(tsv_slices(self.blocks(path)),
                                   tokens=tokens)

    @contextlib.contextmanager
    def reread(self, path):
        """The blocks of the file at ``path``, read a second time. A
        DataError in the block means the file changed in between."""
        try:
            yield self.blocks(path)
        except DataError:
            raise DataError(
                f"{path}: input changed while it was read") from None

    def output(self, out: str | None, pieces: Iterable[str]) -> None:
        """Write the output text, each piece as it is made: to standard
        output, as UTF-8 if it takes bytes, to a FIFO or a device as it
        stands, and for a file ``out`` to a temporary the commit renames."""
        if not out:
            sys.stdout.flush()
            if hasattr(sys.stdout, "buffer"):  # io.StringIO has none
                pieces = (p.encode("utf-8") for p in pieces)
            getattr(sys.stdout, "buffer", sys.stdout).writelines(pieces)
            return
        if _in_place(out):
            with open(out, "w", encoding="utf-8") as f:
                f.writelines(pieces)
            return
        target = os.path.realpath(out)
        temporary = f"{target}.{os.getpid()}.tmp"
        with _as_given(out, temporary), \
                open(temporary, "w", encoding="utf-8") as f:
            self.staged.append((temporary, target, out))
            f.writelines(pieces)

    def _commit(self) -> None:
        args = self.args
        prefix = getattr(args, "out_prefix", None)  # bigrams'
        out = getattr(args, "out", None)  # every other command's
        if args.manifest:
            path = args.manifest
        elif prefix or out and not _in_place(out):
            path = f"{prefix or out}.manifest.json"
        else:
            path = "run_manifest.json"
        target = os.path.realpath(path)
        if target in (t for _, t, _ in self.staged):
            raise ConfigError(f"--manifest {path!r} is an output of this run")
        if target in (os.path.realpath(p) for p in self.inputs
                      if not p.startswith("builtin:")):
            given = "--manifest" if args.manifest else "manifest"
            raise ConfigError(f"{given} {path!r} is an input of this run")
        outputs = len(self.staged)
        self.output(path, [json_dumps({
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "tool_version": __version__,
            "seed": self.seed,
            "input_digests": [{"path": p, "sha256": h}
                              for p, h in sorted(self.inputs.items())],
            "config": {k: self.config[k] for k in sorted(self.config)},
        })])
        for _, target, given in self.staged:
            if os.path.isdir(target):
                raise IsADirectoryError(
                    errno.EISDIR, os.strerror(errno.EISDIR), given)
        for _, target, given in self.staged[outputs:]:  # a manifest file's
            with _as_given(given, target), \
                    contextlib.suppress(FileNotFoundError):
                os.remove(target)
        for temporary, target, given in self.staged:
            with _as_given(given, temporary):
                os.replace(temporary, target)


@contextlib.contextmanager
def _as_given(given: str, path: str):
    """Name ``given`` in place of ``path`` in an OSError the block raises
    on ``path``: a temporary or a resolved target is the user's file."""
    try:
        yield
    except OSError as exc:
        if exc.filename != path:
            raise
        raise OSError(exc.errno, exc.strerror, given) from None


def _in_place(out: str) -> bool:
    """Whether ``out`` is written to, not replaced: a FIFO or a device."""
    return not os.path.isfile(t := os.path.realpath(out)) and os.path.exists(t)


def _census(run: _Run, path) -> Counter:
    """Each character's count in the words of a long-table TSV, every row
    validated as :meth:`_Run.types` validates it."""
    with _naming(path):
        return Counter(chain.from_iterable(
            "".join(words) for _, words, _ in tsv_slices(run.blocks(path))))


def _translated(table: dict):
    """A rewrite that translates a block's words, joined by tabs, at once."""
    table[ord("\t")] = "\t"  # a key that misses is slow
    return lambda words: "\t".join(words).translate(table).split("\t")


def _read_cells(run: _Run, path) -> tuple[TypeCounts, PairCells]:
    """A TSV's word types and the pair counts of its words."""
    types = run.types(path)
    with _naming(path):
        return types, types.cells()


def _load_meta(args, run: _Run) -> FolioMetadataMap:
    if args.meta:
        meta = run.text(args.meta, FolioMetadataMap.from_tsv)
    else:
        meta = FolioMetadataMap.from_tsv(run.builtin("folio_metadata.tsv"))
    return meta.permissive() if args.allow_missing_meta else meta


def _sniffed(blocks: Iterator[str], kind: str) -> tuple[str, Iterator[str]]:
    """The kind of input whose text is ``blocks``, and the same blocks,
    none read twice. ``auto`` is sniffed from the first content line: the
    blocks up to it are read and held, and input with none is plain text."""
    held: list[str] = []
    if kind == "auto":
        kind = "plaintext"
        for block in blocks:
            held.append(block)
            if first := next(content_lines(block), None):
                if first[1].lstrip().startswith("<"):
                    kind = "interlinear"
                break
    return kind, chain(held, blocks)


def _check_plaintext_flags(args) -> None:
    """Raise ConfigError when a flag that only interlinear input reads is
    given for input read as plain text."""
    given = [f"--{name.replace('_', '-')}"
             for name in ("meta", "transcriber", "comma_breaks",
                          "allow_missing_meta")
             if getattr(args, name) not in (None, False)]
    if given:
        raise ConfigError(
            f"{args.input}: {', '.join(given)} apply only to interlinear "
            f"input, and this input is read as plain text")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args, run: _Run) -> None:
    source_id = args.source_id or Path(args.input).name
    if re.search(f"[\t{_LINE_BREAKS}]", source_id):
        given = ("--source-id" if args.source_id
                 else f"{args.input}: the file name, the default source id")
        raise ConfigError(f"{given} {source_id!r} holds a tab or a line "
                          f"break, which a TSV field cannot hold")
    with _naming(args.input):
        kind, blocks = _sniffed(run.blocks(args.input), args.kind)
        if kind == "interlinear":  # held whole: a bad byte comes before meta
            text = "".join(blocks)
    if kind == "interlinear":
        meta = _load_meta(args, run)

        def lines(_):  # each parse reads the held text
            return interlinear_lines(text, meta, args.transcriber,
                                     comma_breaks=args.comma_breaks)
    else:
        def lines(blocks):
            return plaintext_lines(chain.from_iterable(map(str.splitlines,
                                                           blocks)))
    # Pass 1 checks every line and counts each paragraph's words; pass 2
    # writes.
    with _naming(args.input):
        sizes = line_sizes(lines(blocks))
    if kind == "plaintext":
        _check_plaintext_flags(args)
    with run.reread(args.input) as blocks:
        run.output(args.out, tsv_pieces(lines(blocks), source_id, sizes,
                                        CANONICAL_SELECTIONS.get(args.select)))
    run.config = {
        "kind": kind, "transcriber": args.transcriber,
        "comma_breaks": args.comma_breaks, "source_id": source_id,
        "allow_missing_meta": args.allow_missing_meta,
        "select": args.select}


def cmd_translit(args, run: _Run) -> None:
    _check_rare_min(args.rare_min)
    # Pass 1 counts characters, or the word types a rule set rewrites once
    # each; pass 2 rewrites the rows where they stand.
    if args.simplify:
        rewrite = _translated(simplifying_table(_census(run, args.input),
                                                threshold=args.rare_min))
        rules_label = f"simplify(<{args.rare_min})"
    else:
        types = run.types(args.input)
        if args.rules:
            name = Path(args.rules).stem
            ruleset = run.text(args.rules, lambda t: load_rules(t, name))
        else:
            ruleset = builtin_rules(args.system)
            run.builtin(f"{args.system}.rules")
        with _naming(args.input):
            new_forms = transliterate_words(types.forms, ruleset)
        new = {w: f for w, f in zip(types.forms, new_forms) if f != w}

        def rewrite(words):  # only the words whose form changes are mapped
            return map(new.get, words, words)
        rules_label = ruleset.name
    with run.reread(args.input) as blocks:
        run.output(args.out, rewritten_tsv(blocks, rewrite))
    run.config = {"rules": rules_label, "rare_min": args.rare_min,
                  "simplify": args.simplify}


def _cleanse_config(args, run: _Run) -> CleanseConfig:
    if args.config:
        base = run.text(args.config, parse_config)
    else:
        base = CleanseConfig()
    ranges = base.script_ranges
    if args.script_range:
        ranges = tuple(parse_script_range(s) for s in args.script_range)
    return CleanseConfig(
        lowercase=base.lowercase and not args.no_lowercase,
        strip_punctuation=(base.strip_punctuation
                           and not args.no_strip_punctuation),
        rare_char_threshold=(args.threshold if args.threshold is not None
                             else base.rare_char_threshold),
        script_ranges=ranges,
        preserve_chars=base.preserve_chars | frozenset(args.keep or ""),
    )


def cmd_cleanse(args, run: _Run) -> None:
    if args.threshold is not None and not 0.0 <= args.threshold < 1.0:
        raise ConfigError(
            f"--threshold must lie in [0, 1), got {args.threshold}")
    census = _census(run, args.input)
    cfg = _cleanse_config(args, run)
    rewrite = _translated(cleansing_table(census, cfg))
    with run.reread(args.input) as blocks:
        run.output(args.out, rewritten_tsv(blocks, rewrite))
    run.config = {
        "lowercase": cfg.lowercase,
        "strip_punctuation": cfg.strip_punctuation,
        "rare_char_threshold": cfg.rare_char_threshold,
        "script_ranges": [f"U+{lo:04X}..U+{hi:04X}"
                          for lo, hi in (cfg.script_ranges or ())],
        "preserve_chars": "".join(sorted(cfg.preserve_chars))}


def cmd_stats(args, run: _Run) -> None:
    types, cells = _read_cells(run, args.input)
    run.output(args.out, json_pieces({
        "schema_version": SCHEMA_VERSION,
        "source_id": types.source_id,
        "entropy": cells.entropy_report(len(types.forms)).as_dict(),
        "charset": [{"char": c, "count": n, "proportion": p}
                    for c, n, p in cells.charset()],
    }))


def cmd_bigrams(args, run: _Run) -> None:
    if not 0.0 <= args.threshold <= 1.0:
        raise ConfigError(
            f"--threshold must lie in [0, 1], got {args.threshold}")
    types, cells = _read_cells(run, args.input)
    prefix = args.out_prefix
    for mode, suffix in (("conditional", "conditional"),
                         ("weighted", "weighted"),
                         ("entropy_contribution", "entropy")):
        run.output(f"{prefix}_{suffix}.csv", [cells.heatmap(mode)])
    doc = {"schema_version": SCHEMA_VERSION,
           "source_id": types.source_id}
    doc.update(cells.coverage(args.threshold).as_dict())
    run.output(f"{prefix}_coverage.json", [json_dumps(doc)])
    run.config = {"threshold": args.threshold, "out_prefix": prefix}


def cmd_sample(args, run: _Run) -> None:
    if (w := min(args.windows)) < 1:
        raise ConfigError(f"--windows must be at least 1, got {w}")
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    if not 0 <= args.seed < 2 ** 64:
        raise ConfigError(f"--seed must lie in [0, 2**64), got {args.seed}")
    cfg = SamplingConfig(tuple(args.windows), args.n, args.seed)
    types = run.types(args.input, tokens=True)
    with _naming(args.input):
        distributions = sample_h2(types, cfg)
    if args.format == "csv":
        pieces = distributions_csv_rows(distributions)
    else:
        entries = distributions_to_dict(distributions,
                                        include_values=args.values)
        del distributions  # its values are in the entries' lists
        pieces = json_pieces({
            "schema_version": SCHEMA_VERSION,
            "source_id": types.source_id,
            "seed": args.seed,
            "samples_per_size": args.n,
            "distributions": entries,
        })
    run.output(args.out, pieces)
    run.config = {"windows": list(args.windows), "n": args.n,
                  "format": args.format, "values": args.values}
    run.seed = args.seed


def cmd_sukhotin(args, run: _Run) -> None:
    types, cells = _read_cells(run, args.input)
    # The boundary starts the stream, and each character first occurs in
    # the first occurrence of some type.
    result = detect_from_cells(cells, BOUNDARY + "".join(types.forms),
                               args.include_space)
    doc = {"schema_version": SCHEMA_VERSION,
           "source_id": types.source_id}
    doc.update(result.as_dict(diagnostics=args.diagnostics))
    run.output(args.out, json_pieces(doc))
    run.config = {"include_space": args.include_space,
                  "diagnostics": args.diagnostics}


def _batch_jobs(text: str) -> list[tuple[str, str, str]]:
    """(doc label, selection name, system) rows, in output order, from the
    text of a ``--jobs`` file."""
    jobs = []
    for n, line in content_lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ConfigError(
                f"line {n}: expected doc<TAB>selection<TAB>system")
        doc, selection, system = (f.strip() for f in fields)
        if selection not in CANONICAL_SELECTIONS:
            raise ConfigError(f"line {n}: unknown selection {selection!r}")
        if system not in BATCH_SYSTEMS:
            raise ConfigError(
                f"line {n}: unknown system {system!r}; "
                f"expected one of {', '.join(BATCH_SYSTEMS)}")
        jobs.append((doc, selection, system))
    if not jobs:
        raise ConfigError("no jobs")
    return jobs


def _check_rare_min(rare_min: int) -> None:
    if rare_min < 1:
        raise ConfigError(f"--rare-min must be at least 1, got {rare_min}")


def _batch_row(doc: str, system: str, parts: list, rare_min: int) -> str:
    """The row of a job whose selection's strata have ``parts``, each its
    cells and its types' forms under the job's base system."""
    cells = PairCells.summed(c for p, _ in parts for c in p.cells.items())
    present = set().union(*(own for _, own in parts))
    if system == "simplified":  # translit --simplify's table
        successors = cells.sums(1)
        del successors[BOUNDARY]  # the letters' counts in the words
        table = simplifying_table(successors, threshold=rare_min)
        cells = PairCells.summed(
            ((a.translate(table), b.translate(table)), n)
            for (a, b), n in cells.cells.items())
        # No form holds the boundary, and the table keeps it.
        present = set(BOUNDARY.join(present).translate(table).split(BOUNDARY))
    successors = cells.sums(1)
    return "\t".join([
        # Every letter follows a symbol; every word ends with "#".
        doc, system, str(len(successors) - 1), fmt_float(cells.h2()),
        str(successors[BOUNDARY]), str(len(present))]) + "\n"


def cmd_batch(args, run: _Run) -> None:
    _check_rare_min(args.rare_min)
    text = run.text(args.input)
    meta = _load_meta(args, run)
    run.builtin("maximal.rules")
    run.builtin("minimal.rules")
    jobs_text = run.text(args.jobs) if args.jobs else None
    # Every row is a function of the selection's pair cells. A selection is
    # a union of strata, the lines that agree on every column a selection
    # tests, so each stratum's words are counted as the file is parsed, its
    # cells once per system, and a job sums its strata's. A simplified job
    # renames its own maximal cells.
    tested = tuple(dict.fromkeys(
        c for criteria in CANONICAL_SELECTIONS.values() for c in criteria))
    values = line_values(tested)
    strata: dict[frozenset, Counter] = {}  # stratum -> word -> tokens
    first: dict[str, str] = {}  # each word, in order of first occurrence
    with _naming(args.input):
        for line in interlinear_lines(text, meta, args.transcriber,
                                      comma_breaks=args.comma_breaks):
            if line[0]:  # a line with no words makes no stratum
                strata.setdefault(frozenset(zip(tested, values(line))),
                                  Counter()).update(
                    map(first.setdefault, line[0], line[0]))
    del text  # parsed: only the counts are needed from here on
    jobs = [(s, s, system) for s in CANONICAL_SELECTIONS  # the default grid
            for system in ("maximal", "simplified", "minimal")]
    if jobs_text is not None:
        with _naming(args.jobs):
            jobs = _batch_jobs(jobs_text)
    words = tuple(first)
    maximal = transliterate_words(words, builtin_rules("maximal"))
    forms = {"none": words, "maximal": maximal, "minimal":
             transliterate_words(maximal, builtin_rules("minimal"))}
    chosen = []  # per job, the strata of its selection
    for doc, selection, system in jobs:
        criteria = CANONICAL_SELECTIONS[selection].items()
        chosen.append([key for key in strata if criteria <= key])
        if not chosen[-1]:
            print(f"charentropy: batch: skipping {doc}/{system}: "
                  f"selection {selection!r} is empty", file=sys.stderr)
    rows = [""] * len(jobs)  # an empty selection's stays empty
    for base in forms:  # one system's cells at a time
        todo = [i for i, (_, _, system) in enumerate(jobs) if chosen[i] and
                base == ("maximal" if system == "simplified" else system)]
        if not todo:
            continue
        new = dict(zip(words, forms[base]))
        counted = {}  # stratum -> (its cells, its types' forms)
        for key, tokens in strata.items():
            part = TypeCounts("", tuple(map(new.get, tokens)),
                              tuple(tokens.values()), None)
            counted[key] = part.cells(), part.forms
        for i in todo:
            doc, _, system = jobs[i]
            rows[i] = _batch_row(doc, system,
                                 [counted[key] for key in chosen[i]],
                                 args.rare_min)
    run.output(args.out,
               ["doc\ttranscription\tcharset\th2\twords\tword_types\n",
                *rows])
    run.config = {
        "transcriber": args.transcriber, "comma_breaks": args.comma_breaks,
        "rare_min": args.rare_min,
        "allow_missing_meta": args.allow_missing_meta,
        "jobs": str(args.jobs) if args.jobs else "default"}


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _int_arg(text: str) -> int:
    """``-?[0-9]+`` as an int; int() also takes "1_0", "+1", " 1" and more."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _decimal_arg(text: str) -> float:
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _windows_arg(text: str) -> list[int]:
    try:
        return [_int_arg(part) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"windows must be comma-separated integers, got {text!r}")


def _add_meta_flags(p) -> None:
    p.add_argument("--meta", metavar="TSV",
                   help="folio metadata map (default: built-in starter map)")
    p.add_argument("--allow-missing-meta", action="store_true",
                   help="classify folios absent from the map as unclassified "
                        "instead of failing")
    p.add_argument("--transcriber", metavar="ID",
                   help="keep only this transcriber's lines")
    p.add_argument("--comma-breaks", action="store_true",
                   help="treat uncertain word breaks (commas) as real breaks "
                        "instead of deleting them")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="charentropy",
        description="Character-level statistics for manuscript "
                    "transcriptions and plain-text corpora.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True, parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--manifest", metavar="PATH",
                       help="where to write the run manifest "
                            "(default: next to the output)")
        return p

    p = add("ingest", cmd_ingest,
            "Parse an interlinear or plain-text file into a long-table TSV.")
    p.add_argument("input", help="input file")
    p.add_argument("--kind", choices=("auto", "interlinear", "plaintext"),
                   default="auto", help="input format (default: sniff)")
    _add_meta_flags(p)
    p.add_argument("--source-id", metavar="ID",
                   help="document identifier (default: input file name)")
    p.add_argument("--select", choices=sorted(CANONICAL_SELECTIONS),
                   metavar="NAME",
                   help="keep only one canonical document selection "
                        f"({', '.join(sorted(CANONICAL_SELECTIONS))})")
    p.add_argument("--out", metavar="PATH", help="output TSV (default: stdout)")

    p = add("translit", cmd_translit,
            "Rewrite every word of a long table with a transliteration "
            "rule set.")
    p.add_argument("input", help="long-table TSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rules", metavar="FILE",
                       help="rule file (pattern<TAB>replacement per line)")
    group.add_argument("--system", choices=("maximal", "simplify", "minimal"),
                       help="use a built-in rule table")
    group.add_argument("--simplify", action="store_true",
                       help="corpus-driven simplification: lower ligature "
                            "capitals, mask characters rarer than --rare-min")
    p.add_argument("--rare-min", type=_int_arg, default=50, metavar="N",
                   help="occurrence count below which --simplify masks a "
                        "character; at least 1 (default: 50)")
    p.add_argument("--out", metavar="PATH", help="output TSV (default: stdout)")

    p = add("cleanse", cmd_cleanse,
            "Normalize a long table: strip punctuation and case, drop rare "
            "characters, filter by script range.")
    p.add_argument("input", help="long-table TSV")
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.add_argument("--threshold", type=_decimal_arg, metavar="FRAC",
                   help="rare-character proportion threshold, in [0, 1) "
                        "(default: 0.0001)")
    p.add_argument("--script-range", action="append", metavar="U+A..U+B",
                   help="keep only characters in this codepoint range "
                        "(repeatable)")
    p.add_argument("--keep", metavar="CHARS",
                   help="characters exempt from every removal stage")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--no-strip-punctuation", action="store_true")
    p.add_argument("--out", metavar="PATH", help="output TSV (default: stdout)")

    p = add("stats", cmd_stats,
            "Entropy ladder (h0/h1/h2) and ranked character census as JSON.")
    p.add_argument("input", help="long-table TSV")
    p.add_argument("--out", metavar="PATH", help="output JSON (default: stdout)")

    p = add("bigrams", cmd_bigrams,
            "Bigram matrices as CSV heatmap grids plus the forced-successor "
            "coverage report.")
    p.add_argument("input", help="long-table TSV")
    p.add_argument("--threshold", type=_decimal_arg, default=0.5,
                   metavar="FRAC",
                   help="conditional-probability cutoff for the coverage "
                        "report (default: 0.5)")
    p.add_argument("--out-prefix", default="bigrams", metavar="PREFIX",
                   help="writes PREFIX_conditional.csv, PREFIX_weighted.csv, "
                        "PREFIX_entropy.csv, PREFIX_coverage.json "
                        "(default: bigrams)")

    p = add("sample", cmd_sample,
            "Bootstrap h2 over random word windows; report spread per "
            "window size.")
    p.add_argument("input", help="long-table TSV")
    p.add_argument("--windows", type=_windows_arg, required=True,
                   metavar="W1,W2,...", help="window sizes in words")
    p.add_argument("--n", type=_int_arg, default=1000, metavar="N",
                   help="samples per window size (default: 1000)")
    p.add_argument("--seed", type=_int_arg, default=0, metavar="SEED",
                   help="master seed (default: 0)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json summary or long-form csv (default: json)")
    p.add_argument("--values", action="store_true",
                   help="include raw sample values in the JSON report")
    p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")

    p = add("sukhotin", cmd_sukhotin,
            "Vowel detection from character adjacency.")
    p.add_argument("input", help="long-table TSV")
    p.add_argument("--include-space", action="store_true",
                   help="let the word boundary participate as a symbol")
    p.add_argument("--diagnostics", action="store_true",
                   help="include iteration count and final working sums")
    p.add_argument("--out", metavar="PATH", help="output JSON (default: stdout)")

    p = add("batch", cmd_batch,
            "Ingest an interlinear file and tabulate stats for document "
            "selections under each transcription system.")
    p.add_argument("input", help="interlinear transcription file")
    _add_meta_flags(p)
    p.add_argument("--jobs", metavar="TSV",
                   help="job list: doc<TAB>selection<TAB>system per line "
                        "(default: all 16 canonical selections under "
                        "maximal, simplified and minimal)")
    p.add_argument("--rare-min", type=_int_arg, default=50, metavar="N",
                   help="rarity cutoff for the simplified system; at least "
                        "1 (default: 50)")
    p.add_argument("--out", metavar="PATH", help="output TSV (default: stdout)")

    return parser


def main(argv=None) -> int:
    # No command calls a BLAS routine, so OpenBLAS's thread pool would only
    # slow numpy's import. A user's own setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _Run(args) as run:
            args.func(args, run)
        return 0
    except (CharentropyError, OSError) as exc:
        print(f"charentropy: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
