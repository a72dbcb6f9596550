"""The XML word database and affix-stripping lexical analysis.

A word is held to be correctly spelled when it decomposes as
prefix + base + suffix with the prefix and suffix drawn from a closed
inventory (the empty affix is always available) and the base present in
the lexicon. The model is strictly concatenative: one prefix, one base,
one suffix, no templatic morphology.

Lexicon file format: UTF-8 XML rooted at <MOTS>. Grouping elements may
nest arbitrarily; every element that has text content and no children is
a dictionary entry whose element name is the category label, e.g.

    <MOTS>
      <Noms>
        <NomsPropresFeminins>
          <NomPropreFeminin> أسماء </NomPropreFeminin>
        </NomsPropresFeminins>
      </Noms>
    </MOTS>

Affix inventory format: a flat key = value text file with whitespace
separated affix lists for the keys `prefixes`, `suffixes`,
`verb_prebases` and `verb_postbases` (the last two are the verb-specific
affixes; during analysis they are pooled with the ordinary ones).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from xml.etree import ElementTree as ET

from .errors import AffixLoadError, LexiconLoadError
from .segmentation import SENTENCE_TERMINATORS, NormalizationOptions, normalize


@dataclass(frozen=True)
class Category:
    """A leaf category label plus the grouping elements enclosing it."""

    name: str
    ancestry: tuple[str, ...] = ()


@dataclass(frozen=True)
class LexicalEntry:
    base: str
    category: Category
    order: int  # position in the source file, used as a deterministic tie-break


@dataclass(frozen=True, slots=True)
class MorphAnalysis:
    """One prefix + base + suffix decomposition of a surface form."""

    prefix: str
    suffix: str
    entry: LexicalEntry

    @property
    def base(self) -> str:
        return self.entry.base

    @property
    def category(self) -> Category:
        return self.entry.category


class SpellingVerdict(Enum):
    CORRECT = "correct"
    UNKNOWN = "unknown"


class Lexicon:
    """Immutable word database: entries indexed by base form."""

    def __init__(self, entries, categories, warnings=()):
        self.entries: list[LexicalEntry] = list(entries)
        self.categories: list[Category] = list(categories)
        self.warnings: list[str] = list(warnings)
        self._by_base: dict[str, list[LexicalEntry]] = {}
        for entry in self.entries:
            self._by_base.setdefault(entry.base, []).append(entry)

    def lookup_base(self, base: str) -> list[LexicalEntry]:
        return self._by_base.get(base, [])

    def category_names(self) -> set[str]:
        return {cat.name for cat in self.categories}

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class AffixInventory:
    """Closed sets of proclitics/enclitics plus the verb prebase/postbase pools."""

    prefixes: frozenset[str]
    suffixes: frozenset[str]
    verb_prebases: frozenset[str] = frozenset({""})
    verb_postbases: frozenset[str] = frozenset({""})

    def __post_init__(self):
        for group in (self.prefixes, self.suffixes):
            if "" not in group:
                raise AffixLoadError("the empty affix must belong to prefixes and suffixes")
        for affix in self.all_prefixes() | self.all_suffixes():
            if any(ch.isspace() or ch in SENTENCE_TERMINATORS for ch in affix):
                raise AffixLoadError(f"affix {affix!r} contains whitespace or a terminator")
        # analyze_word's tables. Each affix maps to itself, so analyses share
        # the inventory's strings instead of holding slices of every word.
        prefixes = {affix: affix for affix in self.all_prefixes()}
        suffixes = {affix: affix for affix in self.all_suffixes()}
        tables = (prefixes, suffixes, max(map(len, prefixes)), max(map(len, suffixes)))
        object.__setattr__(self, "_cut_tables", tables)

    def all_prefixes(self) -> frozenset[str]:
        # Verb prebases take part in ordinary analysis; their agreement
        # semantics live in the conjugation check, not here.
        return self.prefixes | self.verb_prebases

    def all_suffixes(self) -> frozenset[str]:
        return self.suffixes | self.verb_postbases


# Every loader takes its source the same way: a str or os.PathLike is a
# path, and anything else is an open file holding the content.
def _parse_xml(source, error_cls):
    """Root element of the XML document at a path or in an open file."""
    try:
        return ET.parse(source).getroot()
    except ET.ParseError as exc:
        line, column = exc.position
        raise error_cls(f"malformed XML at line {line}, column {column}: {exc.msg}") from exc
    except OSError as exc:
        raise error_cls(f"cannot read {source!r}: {exc.strerror or exc}") from exc


def _read_text(source, error_cls) -> str:
    """Content of the UTF-8 text file at a path or in an open file."""
    if not isinstance(source, (str, os.PathLike)):
        return source.read()
    try:
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # strerror omits the path
        raise error_cls(f"cannot read {source!r}: {reason}") from exc


def load_lexicon(source, options: NormalizationOptions | None = None) -> Lexicon:
    """Load the word database, normalizing entries with the given options.

    Duplicate (base, category) pairs collapse to one entry with a warning;
    a leaf holding more than one whitespace-separated word, an empty
    document, or a category reused under a different nesting are errors.
    """
    root = _parse_xml(source, LexiconLoadError)
    opts = options or NormalizationOptions()
    entries: list[LexicalEntry] = []
    categories: dict[str, Category] = {}
    warnings: list[str] = []
    seen: set[tuple[str, str]] = set()

    def visit(element, enclosing):
        children = list(element)
        if children:
            for child in children:
                visit(child, enclosing + (element.tag,))
            return
        text = (element.text or "").strip()
        if not text:
            return  # empty grouping element, harmless in hand-edited files
        if len(text.split()) > 1:
            raise LexiconLoadError(
                f"element <{element.tag}> holds more than one word: {text!r}"
            )
        ancestry = enclosing[1:]  # drop the root tag
        category = categories.get(element.tag)
        if category is None:
            category = Category(name=element.tag, ancestry=ancestry)
            categories[element.tag] = category
        elif category.ancestry != ancestry:
            raise LexiconLoadError(
                f"category {element.tag} appears under two different groupings"
            )
        base = normalize(text, opts).normalized
        if not base:
            raise LexiconLoadError(
                f"element <{element.tag}> is empty after normalization: {text!r}"
            )
        key = (base, element.tag)
        if key in seen:
            warnings.append(f"duplicate entry dropped: {text} in <{element.tag}>")
            return
        seen.add(key)
        entries.append(LexicalEntry(base=base, category=category, order=len(entries)))

    visit(root, ())
    if not entries:
        raise LexiconLoadError("empty lexicon")
    return Lexicon(entries, categories.values(), warnings)


def load_affixes(source, options: NormalizationOptions | None = None) -> AffixInventory:
    """Load the affix inventory from a key = value text file."""
    opts = options or NormalizationOptions()
    content = _read_text(source, AffixLoadError)

    groups: dict[str, frozenset[str]] = {}
    known = {"prefixes", "suffixes", "verb_prebases", "verb_postbases"}
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise AffixLoadError(f"line {lineno}: expected 'key = affixes', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise AffixLoadError(f"line {lineno}: unknown key {key!r}")
        if key in groups:
            raise AffixLoadError(f"line {lineno}: key {key!r} given twice")
        affixes = {normalize(item, opts).normalized for item in value.split()}
        groups[key] = frozenset(affixes | {""})
    for required in ("prefixes", "suffixes"):
        if required not in groups:
            raise AffixLoadError(f"missing required key {required!r}")
    return AffixInventory(
        prefixes=groups["prefixes"],
        suffixes=groups["suffixes"],
        verb_prebases=groups.get("verb_prebases", frozenset({""})),
        verb_postbases=groups.get("verb_postbases", frozenset({""})),
    )


def analyze_word(word: str, lexicon: Lexicon, affixes: AffixInventory) -> list[MorphAnalysis]:
    """Enumerate every prefix + base + suffix split of `word` over the lexicon.

    Returns exactly the decompositions whose prefix and suffix belong to
    the inventories and whose (non-empty) base is a dictionary entry, each
    paired with every category the base carries. Ordered longest base
    first, then shorter prefix, then lexicon file order, so downstream
    tie-breaking is deterministic. An empty result means an unknown word.
    As in Buckwalter's analyser, only the word's own cut points are tried,
    bounded by the longest prefix and suffix.
    """
    if not word:
        raise ValueError("cannot analyze an empty word")
    prefixes, suffixes, longest_prefix, longest_suffix = affixes._cut_tables
    n = len(word)
    first_cut = n - longest_suffix
    analyses: list[MorphAnalysis] = []
    for i in range(min(longest_prefix, n - 1) + 1):
        prefix = prefixes.get(word[:i])
        if prefix is None:
            continue
        for j in range(max(i + 1, first_cut), n + 1):
            suffix = suffixes.get(word[j:])
            if suffix is not None:
                for entry in lexicon.lookup_base(word[i:j]):
                    analyses.append(MorphAnalysis(prefix, suffix, entry))
    analyses.sort(key=lambda a: (-len(a.entry.base), len(a.prefix), a.entry.order))
    return analyses


def check_spelling(word: str, lexicon: Lexicon, affixes: AffixInventory) -> SpellingVerdict:
    """A word is correctly spelled iff it has at least one analysis."""
    if analyze_word(word, lexicon, affixes):
        return SpellingVerdict.CORRECT
    return SpellingVerdict.UNKNOWN
