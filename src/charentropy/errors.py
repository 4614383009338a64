"""Exception hierarchy shared across the package.

Everything raised on bad *input data* derives from :class:`DataError`, so the
CLI can map it to a single exit code. Programming errors (bad arguments to
library functions) raise the usual ValueError/TypeError instead.
"""

from __future__ import annotations


class CharentropyError(Exception):
    """Base class for all package-specific errors."""


class DataError(CharentropyError):
    """Unusable input data (malformed files, impossible configurations)."""


class ParseError(DataError):
    """Malformed interlinear source line.

    Attributes:
        line_number: 1-based line in the source file, when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DecodeError(DataError):
    """Input bytes are not valid UTF-8.

    Attributes:
        offset: byte offset of the first undecodable byte.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MetadataError(DataError):
    """A parsed folio has no entry in the folio metadata map.

    Attributes:
        folios: sorted list of unresolved folio identifiers.
    """

    def __init__(self, folios: list[str]):
        super().__init__(
            "no metadata for folio(s): " + ", ".join(sorted(folios))
        )
        self.folios = sorted(folios)


class RuleFileError(DataError):
    """Malformed transliteration rule file."""


class RewriteError(DataError, ValueError):
    """A rule set rewrote a word into an empty or invalid surface form.

    Also a ValueError, so library callers that catch ValueError from a
    rewrite keep working.
    """


class EmptyStreamError(DataError):
    """A character stream was requested for a document with no words."""


class ConfigError(DataError):
    """Invalid run configuration (e.g. a sampling window larger than the text)."""
