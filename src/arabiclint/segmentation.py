"""Normalization and segmentation of non-vowelized Arabic text.

All lexical processing in this package happens on normalized text: the
short-vowel diacritics (tashkeel) and the tatweel elongation character are
removed, and the hamza-carrying alef variants are folded to bare alef by
default, so hamza-less spellings such as ياخذ still match dictionary
entries written with the hamza. Every normalized character remembers the
index of the original character it came from, which lets diagnostics point
at spans of the untouched input regardless of how much was stripped.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Sequence

# Arabic tanwin, short vowels, shadda and sukun (U+064B..U+0652).
DIACRITICS = frozenset(chr(cp) for cp in range(0x064B, 0x0653))

# Tatweel (kashida) stretches glyphs and carries no meaning; always removed.
TATWEEL = "ـ"

# Alef variants folded to bare alef: madda, hamza above, hamza below, wasla.
ALEF_FOLDING = {
    "آ": "ا",
    "أ": "ا",
    "إ": "ا",
    "ٱ": "ا",
}

# Sentence boundaries: Latin and Arabic full stops, question and exclamation
# marks, semicolons and the colon. The Arabic comma ، joins clauses and is
# deliberately not a boundary.
SENTENCE_TERMINATORS = frozenset({".", ":", ";", "!", "?", "؛", "؟"})


@dataclass(frozen=True)
class NormalizationOptions:
    """Switches for `normalize`; the defaults match the CLI defaults."""

    fold_hamza: bool = True
    keep_diacritics: bool = False


@dataclass(frozen=True, eq=False)
class NormalizedText:
    """A normalized view of a document.

    `offset_map[i]` is the index in `original` of the character that
    produced `normalized[i]`. The map is monotonically non-decreasing;
    under the default options `normalized` contains no tashkeel and no
    tatweel. It is `range(len(original))` when normalizing changed nothing,
    and otherwise an `array('Q')`, 8 bytes a character. Two instances compare
    and hash by identity.
    """

    original: str
    normalized: str
    offset_map: Sequence[int]

    def span_in_original(self, start: int, end: int) -> tuple[int, int]:
        """Map a half-open range of `normalized` back onto `original`."""
        if start >= end:
            raise ValueError("empty normalized range has no original span")
        return self.offset_map[start], self.offset_map[end - 1] + 1


@dataclass(slots=True)
class Token:
    """One word-like unit: normalized surface plus its span in the original.

    Treated as immutable everywhere; kept unfrozen for construction speed.
    """

    surface: str
    span: tuple[int, int]
    ordinal: int


@dataclass(slots=True)
class Sentence:
    index: int
    tokens: tuple[Token, ...]
    terminator: str | None = None

    @classmethod
    def from_words(
        cls, nt: NormalizedText, index: int, words, terminator: str | None = None
    ) -> Sentence:
        """Build a sentence from its word matches in `nt.normalized`."""
        offset_map = nt.offset_map
        tokens = tuple(
            Token(
                surface=m.group(),
                span=(offset_map[m.start()], offset_map[m.end() - 1] + 1),
                ordinal=ordinal,
            )
            for ordinal, m in enumerate(words)
        )
        return cls(index=index, tokens=tokens, terminator=terminator)


_SPECIAL_PATTERNS: dict[tuple[bool, bool], re.Pattern] = {}


def _special_pattern(opts: NormalizationOptions) -> re.Pattern:
    key = (opts.fold_hamza, opts.keep_diacritics)
    pattern = _SPECIAL_PATTERNS.get(key)
    if pattern is None:
        specials = TATWEEL
        if not opts.keep_diacritics:
            specials += "".join(sorted(DIACRITICS))
        if opts.fold_hamza:
            specials += "".join(ALEF_FOLDING)
        pattern = re.compile(f"[{re.escape(specials)}]")
        _SPECIAL_PATTERNS[key] = pattern
    return pattern


def normalize(text: str, options: NormalizationOptions | None = None) -> NormalizedText:
    """Strip diacritics and tatweel (and optionally fold alef variants).

    Idempotent: normalizing an already-normalized string is the identity.
    Empty input yields an empty NormalizedText. Clean stretches between
    special characters are copied wholesale, so typical text normalizes in
    one regex scan.
    """
    opts = options or NormalizationOptions()
    fold = ALEF_FOLDING if opts.fold_hamza else {}
    parts: list[str] = []
    offsets: list[int] = []
    last = 0
    touched = False
    for match in _special_pattern(opts).finditer(text):
        touched = True
        i = match.start()
        if i > last:
            parts.append(text[last:i])
            offsets.extend(range(last, i))
        replacement = fold.get(text[i])
        if replacement is not None:
            parts.append(replacement)
            offsets.append(i)
        last = i + 1
    if not touched:
        return NormalizedText(original=text, normalized=text, offset_map=range(len(text)))
    if last < len(text):
        parts.append(text[last:])
        offsets.extend(range(last, len(text)))
    # Unsigned: array("Q") converts a list without the per-item argument
    # parsing that the signed typecodes go through.
    offset_map = array("Q", offsets)
    return NormalizedText(original=text, normalized="".join(parts), offset_map=offset_map)


# Combining marks of the Arabic block (kept inside tokens when diacritics
# survive normalization). Letters and digits of any script are word
# characters; punctuation, symbols and whitespace never are.
ARABIC_MARKS = frozenset(
    chr(cp)
    for block in (
        range(0x0610, 0x061B),
        range(0x064B, 0x0660),
        (0x0670,),
        range(0x06D6, 0x06DD),
        range(0x06DF, 0x06E5),
        (0x06E7, 0x06E8),
        range(0x06EA, 0x06EE),
    )
    for cp in block
)


_WORD = "(?:[^\\W_]|[" + "".join(sorted(ARABIC_MARKS)) + "])+"

# One left-to-right scan yields words (group 1), blank-line runs (group 2)
# and terminators (group 3). The three never overlap: terminators and
# newlines are not word characters. A blank-line run is a newline followed
# by one or more lines holding nothing but intra-line whitespace; the match
# ends after its last newline.
_SCAN_RE = re.compile(
    f"({_WORD})"
    "|(\n(?:[^\\S\n]*\n)+)"
    f"|([{re.escape(''.join(sorted(SENTENCE_TERMINATORS)))}])"
)
_WORD_GROUP = 1
_TERMINATOR_GROUP = 3


def scan_sentences(normalized: str):
    """Yield (words, terminator) for each sentence holding at least one word.

    `words` is the list of word matches of the sentence in `normalized`, in
    order; `terminator` is the character that closed it, or None at a blank
    line or the end of the text. Boundaries are the terminator characters
    and blank lines (a newline followed, possibly after spaces, by another
    newline). The whole text is scanned once.
    """
    words = []
    for m in _SCAN_RE.finditer(normalized):
        if m.lastindex == _WORD_GROUP:
            words.append(m)
        elif words:
            yield words, m.group(_TERMINATOR_GROUP)
            words = []
    if words:
        yield words, None


def split_sentences(nt: NormalizedText) -> list[Sentence]:
    """Split normalized text into sentences of positioned tokens.

    Whitespace-only segments are dropped; surviving sentences are numbered
    consecutively from zero.
    """
    return [
        Sentence.from_words(nt, index, words, terminator)
        for index, (words, terminator) in enumerate(scan_sentences(nt.normalized))
    ]
