"""Ordered string-rewrite transliteration between transcription systems.

A :class:`RuleSet` is an ordered list of ``pattern -> replacement`` rules.
:func:`apply` makes a single left-to-right pass over a word; at each position
the longest matching pattern wins (ties broken by rule order), the
replacement is emitted, and scanning resumes *after* the replacement, so
rewrites never cascade. Characters that match no pattern copy through
unchanged. The pass is one compiled ``re`` alternation of the rule set's
literal patterns, longest first: ``re`` tries alternatives in order, so the
first that matches at a position is the rule that fires there.

This is the engine behind three shipped conversions:

* ``maximal.rules`` — rewrites the plumed bench digraph into its
  apostrophe-marked form (``sh`` -> ``c'h``), yielding the fully decomposed
  system;
* ``simplify.rules`` — lowers ligature capitals and masks rare characters
  with ``*`` (see :func:`simplify_maximal` for the corpus-driven variant);
* ``minimal.rules`` — collapses each common glyph combination to a single
  symbol, the coarsest system.

Rule files are UTF-8 TSV, one ``pattern<TAB>replacement`` per line, ``#``
comments allowed, file order = priority. A ``#! alphabet: <chars>``
directive declares the expected output inventory; without one, the
declared alphabet defaults to the set of characters appearing in
replacements.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Mapping, Sequence
from functools import partial

from ._record import record
from .errors import RewriteError, RuleFileError
from .ingest import (LongTable, builtin_data, character_counts, check_words,
                     rewrite_types)

RARE_THRESHOLD = 50  # a character this frequent (or more) is not "rare"
RARE_EXEMPT = frozenset("x")  # rare but kept distinct, never masked
MASK = "*"

# Ligature-marked characters are the capitals; simplification lowers them.
LIGATURE_LOWERING = {ord(c): c.lower() for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"}


@record
class Rule:
    pattern: str
    replacement: str

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("rule pattern must be non-empty")
        if self.pattern == self.replacement:
            raise ValueError(
                f"rule {self.pattern!r} -> {self.replacement!r} is a no-op")


@partial(record, slots=False)
class RuleSet:
    """Ordered rewrite rules plus the expected output alphabet."""

    name: str
    rules: tuple[Rule, ...]
    declared_alphabet: frozenset[str]

    def __post_init__(self) -> None:
        if not self.declared_alphabet:
            raise ValueError("declared_alphabet must be non-empty")
        seen: set[str] = set()
        for r in self.rules:
            if r.pattern in seen:
                raise ValueError(f"duplicate rule pattern {r.pattern!r}")
            seen.add(r.pattern)
        # Longest pattern first; the stable sort keeps file order for ties.
        patterns = sorted((r.pattern for r in self.rules),
                          key=lambda p: -len(p))
        object.__setattr__(self, "_pattern", re.compile(
            "|".join(map(re.escape, patterns)) or "(?!)"))
        object.__setattr__(self, "_replacements",
                           {r.pattern: r.replacement for r in self.rules})

    @classmethod
    def from_rules(cls, name: str, rules, alphabet=None) -> "RuleSet":
        rules = tuple(rules)
        if alphabet is None:
            alphabet = frozenset("".join(r.replacement for r in rules))
        return cls(name=name, rules=rules, declared_alphabet=frozenset(alphabet))


def apply(word: str, rules: RuleSet) -> str:
    """Rewrite ``word`` in a single pass, longest match first."""
    replacements = rules._replacements
    return rules._pattern.sub(lambda m: replacements[m[0]], word)


def rule_usage(words, rules: RuleSet) -> dict[str, int]:
    """How often each rule fired over ``words`` (pattern -> count).

    Reverse conversion out of a many-to-one system is ambiguous, so this
    firing census is the supported diagnostic instead.
    """
    counts = Counter(m[0] for word in words
                     for m in rules._pattern.finditer(word))
    return {r.pattern: counts[r.pattern] for r in rules.rules}


def lint_alphabet(words, rules: RuleSet) -> dict[str, int]:
    """Characters in the rewritten words outside the declared alphabet.

    Returns char -> occurrence count; empty dict means the output is clean.
    Pass-through of undeclared input characters is legal at apply() time,
    but worth surfacing: it usually means the rule table is incomplete.
    """
    stray = Counter()
    for word in words:
        for c in apply(word, rules):
            if c not in rules.declared_alphabet:
                stray[c] += 1
    return dict(sorted(stray.items(), key=lambda kv: (-kv[1], kv[0])))


def transliterate_words(forms: Sequence[str], rules: RuleSet) -> list[str]:
    """apply() mapped over ``forms``, once per form given.

    Raises RewriteError for the first form, in the order given, whose
    rewrite is empty (rewrites must never delete words) or is not a valid
    surface form. Given a document's word types in order of first
    occurrence, that is the first such word of the document.
    """
    new_forms = [apply(w, rules) for w in forms]
    erased = new_forms.index("") if "" in new_forms else len(new_forms)
    try:
        # An invalid rewrite earlier in the document is reported first.
        check_words(new_forms[:erased])
    except ValueError as exc:
        raise RewriteError(str(exc)) from None
    if erased < len(new_forms):
        raise RewriteError(
            f"rule set {rules.name!r} erased the word {forms[erased]!r}")
    return new_forms


def transliterate_document(table: LongTable, rules: RuleSet) -> LongTable:
    """apply() mapped over every surface form; metadata untouched.

    Word count is preserved by construction; see
    :func:`transliterate_words` for the errors.
    """
    return rewrite_types(table,
                         lambda forms, _: transliterate_words(forms, rules))


def rare_characters(counts: Mapping[str, int], *,
                    threshold: int = RARE_THRESHOLD) -> frozenset[str]:
    """The characters of a char -> occurrence count mapping that occur
    fewer than ``threshold`` times, except :data:`RARE_EXEMPT`, which is
    never reported rare however scarce."""
    return frozenset(c for c, n in counts.items()
                     if n < threshold and c not in RARE_EXEMPT)


def simplify_maximal(word: str, rare_chars: frozenset[str] | set[str]) -> str:
    """Reduce a fully decomposed word: drop ligature marking, mask rarities.

    Ligature-marked characters (capitals, by convention) are lowered first;
    then every character in ``rare_chars`` becomes the ``*`` mask. ``x`` is
    exempt from masking even if listed rare.
    """
    out = []
    for c in word.translate(LIGATURE_LOWERING):
        out.append(MASK if c in rare_chars and c not in RARE_EXEMPT else c)
    return "".join(out)


def simplified_forms(forms: Sequence[str], freq: Sequence[int], *,
                     threshold: int = RARE_THRESHOLD) -> list[str]:
    """Each word type's form after :func:`simplify_maximal`, for a document
    holding ``freq[t]`` tokens of ``forms[t]``. The rare set is the
    document's own: each lowered type's characters are counted times its
    frequency, so rarity is judged after ligature lowering and a character
    split across plain and ligature-marked spellings is counted once."""
    lowered = [w.translate(LIGATURE_LOWERING) for w in forms]
    rare = rare_characters(character_counts(lowered, freq),
                           threshold=threshold)
    return [simplify_maximal(w, rare) for w in lowered]


def simplify_document(table: LongTable, *,
                      threshold: int = RARE_THRESHOLD) -> LongTable:
    """Corpus-driven simplification: rare set computed on the table itself
    (see :func:`simplified_forms`)."""
    return rewrite_types(table, partial(simplified_forms, threshold=threshold))


def load_rules(text: str, name: str) -> RuleSet:
    """Parse a rule file (see module docstring for the format)."""
    rules: list[Rule] = []
    alphabet: frozenset[str] | None = None
    for n, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#!"):
            directive = line[2:].strip()
            if directive.startswith("alphabet:"):
                declared = directive[len("alphabet:"):].strip()
                if not declared:
                    raise RuleFileError(f"line {n}: empty alphabet directive")
                alphabet = frozenset(declared)
            else:
                raise RuleFileError(f"line {n}: unknown directive {directive!r}")
            continue
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise RuleFileError(
                f"line {n}: expected 'pattern<TAB>replacement', got {line!r}")
        pattern, replacement = fields
        if not pattern:
            raise RuleFileError(f"line {n}: empty pattern")
        try:
            rules.append(Rule(pattern=pattern, replacement=replacement))
        except ValueError as exc:
            raise RuleFileError(f"line {n}: {exc}") from None
    try:
        return RuleSet.from_rules(name, rules, alphabet)
    except ValueError as exc:
        raise RuleFileError(str(exc)) from None


def builtin_rules(name: str) -> RuleSet:
    """Load one of the shipped rule tables: maximal, simplify, minimal."""
    try:
        text = builtin_data(f"{name}.rules").decode("utf-8")
    except FileNotFoundError:
        raise RuleFileError(f"no built-in rule set named {name!r}") from None
    return load_rules(text, name)
