"""Command-line surface: reproducible pipelines over the library.

Design rules, enforced uniformly across subcommands:

* data goes to files (or standard output); diagnostics go to standard
  error;
* exit code 0 on success, 1 on usage errors, 2 on data errors;
* every run writes a manifest JSON next to its output — the subcommand,
  tool version, seed, flattened configuration, and a SHA-256 digest of
  every input file — so an artifact can always be traced to the exact
  inputs that produced it. Manifests carry no timestamps: rerunning a
  command with identical inputs yields byte-identical artifacts, manifest
  included;
* every input file but package data is read by one block reader, which
  digests the bytes it decodes (a BOM is stripped, bad UTF-8 is a data
  error); ``translit`` and ``cleanse`` read twice and fail on a change;
* outputs are written as they are encoded, never held whole, and an
  ``--out`` file is replaced whole or not at all;
* all floats print with 12 significant digits; JSON layouts carry a
  ``schema_version``.

The long-table TSV (see the ingest module) is the interchange format:
``ingest`` produces it, ``translit`` and ``cleanse`` transform it, and the
measurement commands (``stats``, ``bigrams``, ``sample``, ``sukhotin``,
``batch``) consume it or, for ``batch``, the raw interlinear file. Tables
are written a few thousand rows at a time. ``ingest`` makes one table per
run of plain-text paragraphs, but parses interlinear text whole, so that
every missing folio is reported first. ``stats``, ``bigrams``,
``sukhotin`` and ``sample`` fold theirs into word types a block at a time
(``sample`` keeps a type id per word), and ``translit`` and ``cleanse``
keep their input's word-type counts and rewrite each row where it stands,
so none of them holds a table or its input. ``batch`` counts each stratum
of its table, the rows that agree on every column a selection tests, once
per system. numpy loads on first use, which only ``sample`` reaches: the
other commands count in Python.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import re
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import __version__
from .cleanse import (CleanseConfig, cleaned_forms, parse_config,
                      parse_decimal, parse_script_range)
from .errors import CharentropyError, ConfigError, DataError
from .formats import (SCHEMA_VERSION, fmt_float, json_dumps, json_pieces,
                      sha256_bytes)
from .ingest import (_LINE_BREAKS, CANONICAL_SELECTIONS, FolioMetadataMap,
                     _decode, _table_from_lines, canonical_selection,
                     character_counts, check_words, content_lines,
                     decoded_blocks, parse_interlinear, plaintext_runs,
                     rewritten_tsv, tsv_pieces, tsv_slices)
from .metrics import BOUNDARY, PairCells, TypeCounts
from .sampling import (SamplingConfig, distributions_csv_rows,
                       distributions_to_dict, sample_h2)
from .sukhotin import detect_from_cells
from .translit import (builtin_rules, load_rules, rare_characters,
                       simplified_forms, simplify_maximal,
                       transliterate_words)

# Not called here, but perfbench wraps each of these names in this module
# as a trace point.
from .cleanse import charset_report, cleanse  # noqa: F401,E402
from .formats import sha256_file  # noqa: F401,E402
from .ingest import parse_plaintext, read_tsv, write_tsv  # noqa: F401,E402
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


def _hashed_blocks(path, sha) -> Iterator[str]:
    """The :func:`decoded_blocks` of the file at ``path``, each block's bytes
    added to ``sha``. Every input but package data is read through here."""
    with open(path, "rb") as f:

        def read(n: int) -> bytes:
            sha.update(block := f.read(n))
            return block

        yield from decoded_blocks(read)


def _read_text(path, digests: list, parse=str):
    """``parse`` of an input file's text, decoded as the parsers decode
    theirs, and its digest; an error of either step names the path."""
    sha = hashlib.sha256()
    with _naming(path):
        text = "".join(_hashed_blocks(path, sha))
        digests.append((str(path), sha.hexdigest()))
        return parse(text)


def _read_builtin(name: str, digests: list) -> bytes:
    """A file shipped in ``charentropy.data``, digested as ``builtin:NAME``."""
    from importlib import resources
    raw = (resources.files("charentropy.data") / name).read_bytes()
    digests.append((f"builtin:{name}", sha256_bytes(raw)))
    return raw


def _write_manifest(args, command: str, digests, config: dict,
                    seed: int | None = None, *, out: str | None = None,
                    prefix: str | None = None) -> None:
    """Write the manifest to ``--manifest``, else next to the outputs'
    ``prefix`` or a file ``out``, else (stdout too) ``run_manifest.json``."""
    if args.manifest:
        path = args.manifest
    elif prefix or out and not _in_place(out):
        path = f"{prefix or out}.manifest.json"
    else:
        path = "run_manifest.json"
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "input_digests": [{"path": p, "sha256": h}
                          for p, h in sorted(digests)],
        "config": {k: config[k] for k in sorted(config)},
    }
    Path(path).write_text(json_dumps(manifest), encoding="utf-8")


def _in_place(out: str) -> bool:
    """Whether ``out`` is written to, not replaced: a FIFO or a device."""
    return not os.path.isfile(t := os.path.realpath(out)) and os.path.exists(t)


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the output text, each piece as it is made. A file ``out`` is
    replaced whole or not at all, but a FIFO or a device is written to."""
    if not out:
        sys.stdout.writelines(pieces)
        return
    if _in_place(out):
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(pieces)
        return
    target = os.path.realpath(out)
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as f:
            f.writelines(pieces)
        os.replace(temporary, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        if isinstance(exc, OSError) and exc.filename == temporary:
            raise OSError(exc.errno, exc.strerror, out) from None
        raise


def _fold_input(path: str, digests: list, *,
                tokens: bool = False) -> TypeCounts:
    """The word types of a long-table TSV (and its tokens, if asked), read
    from the file a block at a time, with the manifest digest taken from
    the same bytes. The types' own errors are left to their user, so that
    a bad row or byte anywhere in the file is reported first."""
    sha = hashlib.sha256()
    with _naming(path):
        types = TypeCounts.fold(tsv_slices(_hashed_blocks(path, sha)),
                                tokens=tokens)
    digests.append((str(path), sha.hexdigest()))
    return types


def _emit_rewritten(path, types: TypeCounts, new_forms, digests, out):
    """Write the TSV :func:`_fold_input` read into ``types``, read again,
    with new forms; a word or digest pass 1 did not see is a DataError."""
    new = dict(zip(types.forms, new_forms))
    sha = hashlib.sha256()

    def pieces():
        with contextlib.suppress(KeyError, DataError):
            yield from rewritten_tsv(_hashed_blocks(path, sha), new)
            if (str(path), sha.hexdigest()) in digests:
                return
        raise DataError(f"{path}: input changed while it was read")

    _emit(pieces(), out)


def _read_cells(path: str, digests: list) -> tuple[TypeCounts, PairCells]:
    """A TSV's word types and the pair counts of its words."""
    types = _fold_input(path, digests)
    with _naming(path):
        return types, types.cells()


def _load_meta(args, digests: list) -> FolioMetadataMap:
    if args.meta:
        meta = _read_text(args.meta, digests, FolioMetadataMap.from_tsv)
    else:
        meta = FolioMetadataMap.from_tsv(
            _decode(_read_builtin("folio_metadata.tsv", digests)))
    return meta.permissive() if args.allow_missing_meta else meta


def _sniff_kind(text: str) -> str:
    first = next(content_lines(text), (0, ""))[1]
    return "interlinear" if first.lstrip().startswith("<") else "plaintext"


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


def _plaintext_tables(text: str, source_id: str):
    """The tables of plain text, one per run of whole paragraphs, each run
    released before its table is written."""
    for run in plaintext_runs(text):
        table = _table_from_lines(run, source_id)
        run.clear()
        yield table


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    source_id = args.source_id or Path(args.input).name
    if re.search(f"[\t{_LINE_BREAKS}]", source_id):
        given = ("--source-id" if args.source_id
                 else f"{args.input}: the file name, the default source id")
        raise ConfigError(f"{given} {source_id!r} holds a tab or a line "
                          f"break, which a TSV field cannot hold")
    digests = []
    text = _read_text(args.input, digests)
    kind = _sniff_kind(text) if args.kind == "auto" else args.kind
    if kind == "interlinear":
        meta = _load_meta(args, digests)
        with _naming(args.input):
            tables = [parse_interlinear(
                text, meta, args.transcriber,
                comma_breaks=args.comma_breaks, source_id=source_id)]
    else:
        _check_plaintext_flags(args)
        tables = _plaintext_tables(text, source_id)
    if args.select:
        tables = (canonical_selection(t, args.select) for t in tables)
    _emit(tsv_pieces(tables), args.out)
    _write_manifest(
        args, "ingest", digests,
        {"kind": kind, "transcriber": args.transcriber,
         "comma_breaks": args.comma_breaks, "source_id": source_id,
         "allow_missing_meta": args.allow_missing_meta,
         "select": args.select},
        out=args.out)
    return 0


def cmd_translit(args) -> int:
    _check_rare_min(args.rare_min)
    digests = []
    # Two passes over the input: one counts the word types, which are
    # rewritten once each, and one rewrites the rows where they stand.
    types = _fold_input(args.input, digests)
    if args.simplify:
        new_forms = simplified_forms(types.forms, types.freq,
                                     threshold=args.rare_min)
        rules_label = f"simplify(<{args.rare_min})"
    else:
        if args.rules:
            name = Path(args.rules).stem
            ruleset = _read_text(args.rules, digests,
                                 lambda text: load_rules(text, name))
        else:
            ruleset = builtin_rules(args.system)
            _read_builtin(f"{args.system}.rules", digests)
        with _naming(args.input):
            new_forms = transliterate_words(types.forms, ruleset)
        rules_label = ruleset.name
    _emit_rewritten(args.input, types, new_forms, digests, args.out)
    _write_manifest(
        args, "translit", digests,
        {"rules": rules_label, "rare_min": args.rare_min,
         "simplify": args.simplify},
        out=args.out)
    return 0


def _cleanse_config(args, digests: list) -> CleanseConfig:
    if args.config:
        base = _read_text(args.config, digests, parse_config)
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


def cmd_cleanse(args) -> int:
    if args.threshold is not None and not 0.0 <= args.threshold < 1.0:
        raise ConfigError(
            f"--threshold must lie in [0, 1), got {args.threshold}")
    digests = []
    types = _fold_input(args.input, digests)
    cfg = _cleanse_config(args, digests)
    new_forms = cleaned_forms(types.forms, types.freq, cfg)
    _emit_rewritten(args.input, types, new_forms, digests, args.out)
    _write_manifest(
        args, "cleanse", digests,
        {"lowercase": cfg.lowercase,
         "strip_punctuation": cfg.strip_punctuation,
         "rare_char_threshold": cfg.rare_char_threshold,
         "script_ranges": [f"U+{lo:04X}..U+{hi:04X}"
                           for lo, hi in (cfg.script_ranges or ())],
         "preserve_chars": "".join(sorted(cfg.preserve_chars))},
        out=args.out)
    return 0


def cmd_stats(args) -> int:
    digests = []
    types, cells = _read_cells(args.input, digests)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "source_id": types.source_id,
        "entropy": cells.entropy_report(len(types.forms)).as_dict(),
        "charset": [{"char": c, "count": n, "proportion": p}
                    for c, n, p in cells.charset()],
    }
    _emit(json_pieces(doc), args.out)
    _write_manifest(
        args, "stats", digests, {},
        out=args.out)
    return 0


def cmd_bigrams(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise ConfigError(
            f"--threshold must lie in [0, 1], got {args.threshold}")
    digests = []
    types, cells = _read_cells(args.input, digests)
    prefix = args.out_prefix
    for mode, suffix in (("conditional", "conditional"),
                         ("weighted", "weighted"),
                         ("entropy_contribution", "entropy")):
        Path(f"{prefix}_{suffix}.csv").write_text(
            cells.heatmap(mode), encoding="utf-8")
    coverage = cells.coverage(args.threshold)
    doc = {"schema_version": SCHEMA_VERSION,
           "source_id": types.source_id}
    doc.update(coverage.as_dict())
    Path(f"{prefix}_coverage.json").write_text(
        json_dumps(doc), encoding="utf-8")
    _write_manifest(
        args, "bigrams", digests,
        {"threshold": args.threshold, "out_prefix": prefix},
        prefix=prefix)
    return 0


def cmd_sample(args) -> int:
    if (w := min(args.windows)) < 1:
        raise ConfigError(f"--windows must be at least 1, got {w}")
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    if not 0 <= args.seed < 2 ** 64:
        raise ConfigError(f"--seed must lie in [0, 2**64), got {args.seed}")
    cfg = SamplingConfig(tuple(args.windows), args.n, args.seed)
    digests = []
    types = _fold_input(args.input, digests, tokens=True)
    with _naming(args.input):
        distributions = sample_h2(types, cfg)
    if args.format == "csv":
        pieces = distributions_csv_rows(distributions)
    else:
        pieces = json_pieces({
            "schema_version": SCHEMA_VERSION,
            "source_id": types.source_id,
            "seed": args.seed,
            "samples_per_size": args.n,
            "distributions": distributions_to_dict(
                distributions, include_values=args.values),
        })
    _emit(pieces, args.out)
    _write_manifest(
        args, "sample", digests,
        {"windows": list(args.windows), "n": args.n, "format": args.format,
         "values": args.values},
        seed=args.seed, out=args.out)
    return 0


def cmd_sukhotin(args) -> int:
    digests = []
    types, cells = _read_cells(args.input, digests)
    # The boundary starts the stream, and each character first occurs in
    # the first occurrence of some type.
    result = detect_from_cells(cells, BOUNDARY + "".join(types.forms),
                               args.include_space)
    doc = {"schema_version": SCHEMA_VERSION,
           "source_id": types.source_id}
    doc.update(result.as_dict(diagnostics=args.diagnostics))
    _emit(json_pieces(doc), args.out)
    _write_manifest(
        args, "sukhotin", digests,
        {"include_space": args.include_space,
         "diagnostics": args.diagnostics},
        out=args.out)
    return 0


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


def cmd_batch(args) -> int:
    _check_rare_min(args.rare_min)
    digests = []
    text = _read_text(args.input, digests)
    meta = _load_meta(args, digests)
    _read_builtin("maximal.rules", digests)
    _read_builtin("minimal.rules", digests)
    jobs_text = _read_text(args.jobs, digests) if args.jobs else None
    with _naming(args.input):
        table = parse_interlinear(
            text, meta, args.transcriber, comma_breaks=args.comma_breaks,
            source_id=args.source_id or Path(args.input).name)
    jobs = [(s, s, system) for s in CANONICAL_SELECTIONS  # the default grid
            for system in ("maximal", "simplified", "minimal")]
    if jobs_text is not None:
        with _naming(args.jobs):
            jobs = _batch_jobs(jobs_text)
    # Every row is a function of the selection's pair cells. A selection is
    # a union of strata, the rows that agree on every column a selection
    # tests, so each stratum's cells are counted once per system and a job
    # sums its strata's. A simplified job renames its own maximal cells.
    tested = tuple(dict.fromkeys(
        c for criteria in CANONICAL_SELECTIONS.values() for c in criteria))
    strata: dict[frozenset, dict[str, int]] = {}  # stratum -> word -> tokens
    for (*values, word), n in Counter(
            zip(*map(table.column, tested), table.columns[0])).items():
        strata.setdefault(frozenset(zip(tested, values)), {})[word] = n
    types = TypeCounts.of(table, tokens=False)
    maximal = transliterate_words(types.forms, builtin_rules("maximal"))
    forms = {"none": types.forms, "maximal": maximal, "minimal":
             transliterate_words(maximal, builtin_rules("minimal"))}
    symbols = sorted({BOUNDARY, *"".join(maximal)})  # maximal's, every one
    counted = {}  # system -> stratum -> (its cells, its types' forms)
    rows = ["doc\ttranscription\tcharset\th2\twords\tword_types\n"]
    for doc, selection, system in jobs:
        criteria = CANONICAL_SELECTIONS[selection].items()
        if not (chosen := [key for key in strata if criteria <= key]):
            print(f"charentropy: batch: skipping {doc}/{system}: "
                  f"selection {selection!r} is empty", file=sys.stderr)
            continue
        base = "maximal" if system == "simplified" else system
        if base not in counted:
            new = dict(zip(types.forms, types.checked(forms[base])))
            counted[base] = {}
            for key, tokens in strata.items():
                part = TypeCounts(types.source_id, tuple(map(new.get, tokens)),
                                  tuple(tokens.values()), None)
                counted[base][key] = part.cells(), part.forms
        parts = [counted[base][key] for key in chosen]
        cells = PairCells.summed(c for p, _ in parts for c in p.cells.items())
        present = set().union(*(own for _, own in parts))
        if system == "simplified":
            successors = cells.sums(1)
            rare = rare_characters(character_counts(
                [simplify_maximal(s, frozenset()) for s in successors],
                successors.values()), threshold=args.rare_min) - {BOUNDARY}
            names = {s: simplify_maximal(s, rare) for s in symbols}
            # A simplified form is valid when each character's name is.
            check_words(list(names.values()))
            cells = PairCells.summed(((names[a], names[b]), n)
                                     for (a, b), n in cells.cells.items())
            rename = str.maketrans(names)
            # No form holds the boundary, and every name keeps it.
            present = set(BOUNDARY.join(present).translate(rename).split(
                BOUNDARY))
        successors = cells.sums(1)
        rows.append("\t".join([
            # Every letter follows a symbol; every word ends with "#".
            doc, system, str(len(successors) - 1), fmt_float(cells.h2()),
            str(successors[BOUNDARY]), str(len(present))]) + "\n")
    _emit(rows, args.out)
    _write_manifest(
        args, "batch", digests,
        {"transcriber": args.transcriber, "comma_breaks": args.comma_breaks,
         "rare_min": args.rare_min,
         "allow_missing_meta": args.allow_missing_meta,
         "jobs": str(args.jobs) if args.jobs else "default"},
        out=args.out)
    return 0


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
    p.add_argument("--source-id", metavar="ID",
                   help="document identifier (default: input file name)")


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
        return args.func(args)
    except CharentropyError as exc:
        print(f"charentropy: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"charentropy: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
