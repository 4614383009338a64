"""Seeded synthetic inputs for the benchmark.

Two generators, both driven only by ``random.Random(seed)`` so the same seed
gives byte-identical files on any platform:

* :func:`manuscript` writes a Voynich-like interlinear transcription (two
  transcribers, paragraph and label loci, ``{...}`` annotations, ``,``
  uncertain breaks, ligature capitals, rare glyphs, comment and blank lines)
  plus a complete folio map that gives every language and hand paragraph
  text, so every canonical selection is non-empty.
* :func:`plaintext` writes a Zipf-distributed plain-text corpus with
  punctuation, digits, capitals, hyphens, apostrophes, a rare Cyrillic tail
  and blank-line paragraphs.

Each generator also returns the words the program should see after the
first processing step (interlinear: transcriber ``H`` after annotation
stripping and comma fusion; plain text: after ``cleanse`` with its
defaults), so the checks can tally bigrams without going through the
program.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Interlinear manuscript
# ---------------------------------------------------------------------------

_PREFIXES = ("qo", "o", "ch", "sh", "d", "s", "y", "k", "t", "p", "f",
             "cth", "ckh", "cph", "cfh", "qok", "ot", "ok", "", "", "")
_MIDDLES = ("ee", "e", "o", "a", "ai", "aii", "k", "t", "l", "r", "ch",
            "sh", "ke", "te", "eo", "ol", "")
_SUFFIXES = ("dy", "y", "in", "iin", "aiin", "ain", "ar", "or", "al", "ol",
             "am", "s", "r", "l", "edy", "eey", "iir", "iil", "iiin", "m")
# Glyphs that occur a handful of times each: fewer than the default
# --rare-min of 50, so `translit --simplify` masks them. `x` is rare too but
# exempt from masking by convention.
_RARE_GLYPHS = "gbjuvz"
_SECTIONS = ("herbal", "astronomical", "biological", "pharmaceutical",
             "stars")
# Currier languages by hand: hands 1 and 4 write A, hands 2, 3 and 5 write B.
_LANGUAGE_OF_HAND = {"1": "A", "2": "B", "3": "B", "4": "A", "5": "B"}
_FOLIOS_PER_HAND_BLOCK = 6


@dataclass(frozen=True)
class Generated:
    """One generated input: file bytes plus what the checks expect."""

    files: dict[str, bytes]
    words: list[str]          # token words as the program should count them
    input_words: int          # words in the main input file the pipeline sees


def _zipf_cum_weights(n: int, exponent: float, offset: float) -> list[float]:
    total = 0.0
    cum = []
    for rank in range(n):
        total += 1.0 / (rank + 1 + offset) ** exponent
        cum.append(total)
    return cum


def _manuscript_vocabulary(rng: random.Random, size: int) -> list[str]:
    seen: set[str] = set()
    vocab: list[str] = []
    while len(vocab) < size:
        word = (rng.choice(_PREFIXES) + rng.choice(_MIDDLES)
                + rng.choice(_MIDDLES) * (rng.random() < 0.3)
                + rng.choice(_SUFFIXES))
        if word and word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def _mark(word: str, rng: random.Random, extra: str) -> str:
    i = rng.randrange(len(word) + 1)
    return word[:i] + extra + word[i:]


def manuscript(seed: int, n_words: int = 40_000) -> Generated:
    """Interlinear transcription with exactly ``n_words`` transcriber-H words.

    Returns files ``manuscript.txt`` and ``folios.tsv``; ``words`` are the
    H words after ``{...}`` stripping and comma fusion, in document order.
    """
    rng = random.Random(f"manuscript:{seed}")
    vocab = _manuscript_vocabulary(rng, 6000)
    # The large offset flattens the head of the distribution, so no handful
    # of word types sets the text length: it varies by about 1% by seed.
    cum = _zipf_cum_weights(len(vocab), 1.05, 20.0)

    def draw_word() -> list[str]:
        """One H word as the pieces an uncertain break (`,`) separates."""
        word = rng.choices(vocab, cum_weights=cum)[0]
        r = rng.random()
        if r < 0.004:
            i = rng.randrange(len(word))
            word = word[:i] + word[i].upper() + word[i + 1:]  # ligature
        elif r < 0.006:
            word = _mark(word, rng, "*")  # unreadable glyph
        if rng.random() < 0.03:
            return [word, rng.choices(vocab, cum_weights=cum)[0]]
        return [word]

    # Rare glyphs go into fixed word slots chosen up front, so each glyph's
    # count stays under the --simplify cutoff whatever the seed.
    rare_slots: dict[int, str] = {}
    for glyph in _RARE_GLYPHS + "x":
        for _ in range(rng.randint(8, 40)):
            rare_slots[rng.randrange(n_words)] = glyph

    out: list[str] = ["# Synthetic interlinear transcription",
                      f"# seed {seed}; transcribers H and C", ""]
    meta: list[str] = ["folio\tsection\tlanguage\thand\tquire"]
    words: list[str] = []
    hands = list("12345")
    folio_index = 0

    def emit(folio: str, locus: str, line_no: int,
             line: list[list[str]]) -> None:
        payload = []
        for pieces in line:
            text = ",".join(pieces)
            if rng.random() < 0.01:
                text += "{&" + rng.choice(("plant", "ring", "ee", "x?")) + "}"
            payload.append(text)
        out.append(f"<{folio}.{locus}.{line_no};H>      " + ".".join(payload))
        if rng.random() < 0.3:
            variant = [[rng.choices(vocab, cum_weights=cum)[0]]
                       if rng.random() < 0.1 else pieces for pieces in line]
            out.append(f"<{folio}.{locus}.{line_no};C>      "
                       + ".".join(",".join(p) for p in variant))

    while len(words) < n_words:
        block, pos = divmod(folio_index, _FOLIOS_PER_HAND_BLOCK)
        if pos == 0 and block % len(hands) == 0:
            rng.shuffle(hands)
        hand = hands[block % len(hands)]
        folio = f"f{folio_index // 2 + 1}{'rv'[folio_index % 2]}"
        quire = f"Q{folio_index // 16 + 1}"
        section = _SECTIONS[(folio_index // 24) % len(_SECTIONS)]
        meta.append(f"{folio}\t{section}\t{_LANGUAGE_OF_HAND[hand]}\t"
                    f"{hand}\t{quire}")
        out.append(f"# folio {folio}")
        loci = ["P1"] + [f"L{i}" for i in range(1, rng.randint(1, 3) + 1)]
        if rng.random() < 0.4:
            loci.append("P2")
        line_no = 0
        for locus in loci:
            n_lines = rng.randint(8, 14) if locus[0] == "P" else 1
            for _ in range(n_lines):
                line_no += 1
                width = (rng.randint(6, 11) if locus[0] == "P"
                         else rng.randint(1, 3))
                line = [draw_word() for _ in range(width)]
                line = line[:n_words - len(words)]
                if not line:
                    break
                for pieces in line:
                    slot = len(words)
                    if slot in rare_slots:
                        pieces[-1] = _mark(pieces[-1], rng, rare_slots[slot])
                    words.append("".join(pieces))
                emit(folio, locus, line_no, line)
        out.append("")
        folio_index += 1

    text = "\n".join(out) + "\n"
    return Generated(
        files={"manuscript.txt": text.encode("utf-8"),
               "folios.tsv": ("\n".join(meta) + "\n").encode("utf-8")},
        words=words, input_words=n_words)


# ---------------------------------------------------------------------------
# Plain-text comparison corpus
# ---------------------------------------------------------------------------

_ONSETS = ("", "", "", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n",
           "p", "qu", "r", "s", "t", "v", "w", "y", "z", "th", "ch", "sh",
           "tr", "st")
_NUCLEI = ("a", "e", "i", "o", "u", "ea", "ou", "ai", "ie", "oo", "y")
_CODAS = ("", "", "n", "r", "s", "t", "l", "d", "m", "ng", "ck", "x", "st",
          "nd", "rt", "z")
_CYRILLIC = "абвгдежзийклмнопрстуфхцчшщыэюя"
_CLOSERS = (".", ".", ".", "!", "?", ";")
_CLEANSE_RARE_THRESHOLD = 0.0001  # cleanse's default rare_char_threshold
# At most this many of each Cyrillic letter: under half the 0.01% cut of
# a 400k-word text.
_CYRILLIC_CAP = 60


def _plain_vocabulary(rng: random.Random, size: int) -> list[str]:
    seen: set[str] = set()
    vocab: list[str] = []
    while len(vocab) < size:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI)
                       + rng.choice(_CODAS)
                       for _ in range(rng.choice((1, 1, 2, 2, 2, 3))))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    # Frequent words are short, as in natural text.
    vocab.sort(key=len)
    return vocab


def _cleansed(cores: list[str]) -> list[str]:
    """What ``cleanse`` with default settings keeps of the letter cores.

    The cores already lack punctuation, symbols and digits and are lower
    case; what is left is the proportional rare-character cut, done with
    the same comparison the program documents (count / total < 0.01%).
    """
    counts: dict[str, int] = {}
    for w in cores:
        for c in w:
            counts[c] = counts.get(c, 0) + 1
    total = sum(counts.values())
    rare = {c for c, n in counts.items()
            if n / total < _CLEANSE_RARE_THRESHOLD}
    kept = ("".join(c for c in w if c not in rare) for w in cores)
    return [w for w in kept if w]


def plaintext(seed: int, n_words: int = 400_000) -> Generated:
    """Plain text of exactly ``n_words`` whitespace tokens as ``corpus.txt``.

    ``words`` is the cleansed word list the pipeline should count.
    """
    rng = random.Random(f"plaintext:{seed}")
    vocab = _plain_vocabulary(rng, 20_000)
    cum = _zipf_cum_weights(len(vocab), 1.0, 2.7)
    cyrillic = ["".join(rng.choice(_CYRILLIC) for _ in range(rng.randint(3, 8)))
                for _ in range(12)]
    draws = rng.choices(vocab, cum_weights=cum, k=n_words)

    cyrillic_seen: Counter = Counter()
    tokens: list[str] = []   # as written in the file
    cores: list[str] = []    # lower-case letters the token keeps
    sentence_left = 0
    for word in draws:
        start = sentence_left == 0
        if start:
            sentence_left = rng.randint(6, 24)
        sentence_left -= 1
        r = rng.random()
        if r < 0.006:
            word = str(rng.choice((rng.randint(0, 99), rng.randint(1500, 2024))))
            core = ""
        elif r < 0.0066:
            # Every Cyrillic letter stays far under cleanse's 0.01% cut, so
            # cleanse drops all of it and every seed cleans to ASCII.
            if r < 0.0062:
                candidate = rng.choice(cyrillic)
            else:
                candidate = _mark(word, rng, rng.choice(_CYRILLIC))
            letters = Counter(c for c in candidate if c in _CYRILLIC)
            if all(cyrillic_seen[c] + n <= _CYRILLIC_CAP
                   for c, n in letters.items()):
                cyrillic_seen.update(letters)
                word = candidate
            core = word
        elif r < 0.02:
            other = rng.choices(vocab, cum_weights=cum)[0]
            word = f"{word}-{other}"
            core = word.replace("-", "")
        elif r < 0.03:
            word = word + rng.choice(("'s", "'t", "'d"))
            core = word.replace("'", "")
        else:
            core = word
        if start:
            word = word[:1].upper() + word[1:]
        if rng.random() < 0.01:
            word = rng.choice(('"', "(")) + word + rng.choice(('"', ")"))
        if sentence_left == 0:
            word += rng.choice(_CLOSERS)
        elif rng.random() < 0.07:
            word += rng.choice((",", ",", ":"))
        tokens.append(word)
        cores.append(core)

    lines: list[str] = []
    i = 0
    para_left = rng.randint(3, 12)
    while i < len(tokens):
        width = rng.randint(8, 16)
        lines.append(" ".join(tokens[i:i + width]))
        i += width
        para_left -= 1
        if para_left == 0 and i < len(tokens):
            lines.append("")
            para_left = rng.randint(3, 12)
    text = "\n".join(lines) + "\n"
    return Generated(files={"corpus.txt": text.encode("utf-8")},
                     words=_cleansed(cores), input_words=n_words)
