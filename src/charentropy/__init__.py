"""charentropy: character-level statistics for transcribed texts.

The library measures how predictable a writing system is, character by
character: it parses interlinear transcriptions and plain text into word
tables (:mod:`~charentropy.ingest`), converts between transcription systems
by rewrite rules (:mod:`~charentropy.translit`), normalizes raw corpora
(:mod:`~charentropy.cleanse`), computes entropy and bigram structure
(:mod:`~charentropy.metrics`), bootstraps the variance of those estimates
(:mod:`~charentropy.sampling`), and classifies symbols into vowels and
consonants from adjacency alone (:mod:`~charentropy.sukhotin`). The
``charentropy`` command (:mod:`~charentropy.cli`) binds it all into
reproducible pipelines.

The package re-exports the public functions, and one of them shares its
module's name: ``charentropy.cleanse`` is the function, not the module. Reach
the module's other names with ``from charentropy.cleanse import …``.
"""

from .cleanse import CleanseConfig, charset_report, cleanse
from .errors import (CharentropyError, ConfigError, DataError, DecodeError,
                     EmptyStreamError, MetadataError, ParseError,
                     RuleFileError)
from .ingest import (FolioMetadataMap, LongTable, WordRecord,
                     canonical_selection, parse_interlinear, parse_plaintext,
                     select)
from .metrics import (BigramMatrix, CharStream, CoverageReport, EntropyReport,
                      bigram_matrix, coverage_report, entropy_report,
                      heatmap_export, to_stream)
from .sampling import SampleDistribution, SamplingConfig, sample_h2
from .sukhotin import (AdjacencyMatrix, SukhotinResult, detect_on_document,
                       detect_vowels)
from .translit import (Rule, RuleSet, apply, builtin_rules, load_rules,
                       simplify_document, simplify_maximal,
                       transliterate_document)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "BigramMatrix",
    "CharStream",
    "CharentropyError",
    "CleanseConfig",
    "ConfigError",
    "CoverageReport",
    "DataError",
    "DecodeError",
    "EmptyStreamError",
    "EntropyReport",
    "FolioMetadataMap",
    "LongTable",
    "MetadataError",
    "ParseError",
    "Rule",
    "RuleFileError",
    "RuleSet",
    "SampleDistribution",
    "SamplingConfig",
    "SukhotinResult",
    "WordRecord",
    "apply",
    "bigram_matrix",
    "builtin_rules",
    "canonical_selection",
    "charset_report",
    "cleanse",
    "coverage_report",
    "detect_on_document",
    "detect_vowels",
    "entropy_report",
    "heatmap_export",
    "load_rules",
    "parse_interlinear",
    "parse_plaintext",
    "sample_h2",
    "select",
    "simplify_document",
    "simplify_maximal",
    "to_stream",
    "transliterate_document",
    "__version__",
]
