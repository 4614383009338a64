"""Ordered string-rewrite transliteration between transcription systems.

A :class:`RuleSet` is an ordered list of ``pattern -> replacement`` rules.
:func:`apply` makes a single left-to-right pass over a word; at each position
the longest matching pattern wins (ties broken by rule order), the
replacement is emitted, and scanning resumes *after* the replacement, so
rewrites never cascade. Characters that match no pattern copy through
unchanged.

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

from collections import Counter
from dataclasses import dataclass

from .errors import RuleFileError
from .ingest import LongTable, check_words, with_words

RARE_THRESHOLD = 50  # a character this frequent (or more) is not "rare"
RARE_EXEMPT = frozenset("x")  # rare but kept distinct, never masked
MASK = "*"

DEFAULT_LIGATURE_MAP = {c: c.lower() for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"}


@dataclass(frozen=True, slots=True)
class Rule:
    pattern: str
    replacement: str

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("rule pattern must be non-empty")
        if self.pattern == self.replacement:
            raise ValueError(
                f"rule {self.pattern!r} -> {self.replacement!r} is a no-op")


@dataclass(frozen=True)
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
        # Index rules by first character; within a bucket, longest pattern
        # first, file order breaking length ties. Computed once so apply()
        # stays a tight loop.
        buckets: dict[str, list[tuple[int, int, Rule]]] = {}
        for i, r in enumerate(self.rules):
            buckets.setdefault(r.pattern[0], []).append((len(r.pattern), i, r))
        index = {
            first: tuple(r for _, _, r in sorted(group, key=lambda t: (-t[0], t[1])))
            for first, group in buckets.items()
        }
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_rules(cls, name: str, rules, alphabet=None) -> "RuleSet":
        rules = tuple(rules)
        if alphabet is None:
            alphabet = frozenset("".join(r.replacement for r in rules))
        return cls(name=name, rules=rules, declared_alphabet=frozenset(alphabet))


def apply(word: str, rules: RuleSet) -> str:
    """Rewrite ``word`` in a single pass, longest match first."""
    index = rules._index
    out: list[str] = []
    i = 0
    n = len(word)
    while i < n:
        c = word[i]
        matched = False
        for rule in index.get(c, ()):
            if word.startswith(rule.pattern, i):
                out.append(rule.replacement)
                i += len(rule.pattern)
                matched = True
                break
        if not matched:
            out.append(c)
            i += 1
    return "".join(out)


def rule_usage(words, rules: RuleSet) -> dict[str, int]:
    """How often each rule fired over ``words`` (pattern -> count).

    Reverse conversion out of a many-to-one system is ambiguous, so this
    firing census is the supported diagnostic instead.
    """
    counts = Counter()
    index = rules._index
    for word in words:
        i = 0
        n = len(word)
        while i < n:
            for rule in index.get(word[i], ()):
                if word.startswith(rule.pattern, i):
                    counts[rule.pattern] += 1
                    i += len(rule.pattern)
                    break
            else:
                i += 1
    return {r.pattern: counts.get(r.pattern, 0) for r in rules.rules}


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


def transliterate_document(table: LongTable, rules: RuleSet) -> LongTable:
    """apply() mapped over every surface form; metadata untouched.

    Each distinct word is rewritten once. Word count is preserved by
    construction. A word whose rewrite comes out empty (possible only with
    empty replacements) is an error — rewrites must never delete words.
    """
    words = table.words()
    rewritten = {w: apply(w, rules) for w in set(words)}
    new_words = list(map(rewritten.__getitem__, words))
    if "" in rewritten.values():
        first = new_words.index("")
        # An invalid rewrite earlier in the document is reported first.
        check_words(new_words[:first])
        raise ValueError(
            f"rule set {rules.name!r} erased the word {words[first]!r}")
    return with_words(table, new_words)


def rare_characters(
    words, *, threshold: int = RARE_THRESHOLD,
    exempt: frozenset[str] = RARE_EXEMPT,
) -> frozenset[str]:
    """Characters occurring fewer than ``threshold`` times across ``words``.

    The exempt set (by default just ``x``) is never reported rare, however
    scarce.
    """
    counts = Counter("".join(words))
    return frozenset(
        c for c, n in counts.items() if n < threshold and c not in exempt)


def simplify_maximal(
    word: str,
    rare_chars: frozenset[str] | set[str],
    ligature_map: dict[str, str] | None = None,
) -> str:
    """Reduce a fully decomposed word: drop ligature marking, mask rarities.

    Ligature-marked characters (capitals, by convention) are lowered first
    via ``ligature_map``; then every character in ``rare_chars`` becomes the
    ``*`` mask. ``x`` is exempt from masking even if listed rare.
    """
    if ligature_map is None:
        ligature_map = DEFAULT_LIGATURE_MAP
    out = []
    for c in word:
        c = ligature_map.get(c, c)
        if c in rare_chars and c not in RARE_EXEMPT:
            c = MASK
        out.append(c)
    return "".join(out)


def simplify_document(
    table: LongTable,
    *,
    threshold: int = RARE_THRESHOLD,
    ligature_map: dict[str, str] | None = None,
) -> LongTable:
    """Corpus-driven simplification: rare set computed on the table itself.

    Rarity is judged after ligature lowering, so a character split across
    plain and ligature-marked spellings is counted once.
    """
    if ligature_map is None:
        ligature_map = DEFAULT_LIGATURE_MAP
    words = table.words()
    lowered = {w: "".join(ligature_map.get(c, c) for c in w)
               for w in set(words)}
    rare = rare_characters(map(lowered.__getitem__, words),
                           threshold=threshold)
    simplified = {w: simplify_maximal(low, rare, ligature_map)
                  for w, low in lowered.items()}
    return with_words(table, map(simplified.__getitem__, words))


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
    from importlib import resources
    ref = resources.files("charentropy.data") / f"{name}.rules"
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise RuleFileError(f"no built-in rule set named {name!r}") from None
    return load_rules(text, name)
