"""The per-sentence fault detection algorithm and the document-level engine.

Each sentence goes through the full pipeline: unknown words become
spelling faults and drop out, the remaining words are labelled and
disambiguated against the structure rules, an unmatched sentence with
matchable words left becomes a structure fault, and when the chosen
structure contains a verb every verb is checked against the conjugation
agreement table.

Conjugation agreement resolves, in order:

1. a personal pronoun directly governing the verb, i.e. the nearest
   preceding token once negation particles are stepped over (anything else
   in between breaks the government);
2. otherwise a subject right after the verb, when that token is a proper
   noun or a plural (a particle there means an oblique phrase follows, so
   no subject is visible);
3. otherwise the verb has no explicit subject and the sans-sujet rules
   apply.

The tense context is the negated present exactly when لم or لن immediately
precedes the verb.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

from .lexicon import AffixInventory, Lexicon, analyze_word, load_affixes, load_lexicon
from .rules import (
    NO_SUBJECT_KEY,
    TENSE_NEGATION,
    TENSE_SIMPLE,
    ANY_AFFIX,
    ConjugationRuleSet,
    load_conjugation_rules,
    load_structure_rules,
)
from .segmentation import NormalizationOptions, normalize, scan_sentences
from .tagging import DEFAULT_SKIP_CATEGORIES, TaggedToken, Word, disambiguate

# Category names the algorithm is wired to. They are part of the data-file
# contract: the shipped taxonomy provides them and custom lexicons must use
# the same names for these roles.
CATEGORY_VERB = "Verbe"
CATEGORY_PRONOUN = "PronomPersonnel"

# Chosen category of the token right after a verb -> subject feature key.
SUBJECT_FEATURES = {
    "NomPropreFeminin": "feminin-singulier",
    "NomPropreMasculin": "masculin-singulier",
    "NomPluriel": "pluriel",
}

NEGATION_PARTICLES = frozenset({"لم", "لن"})

# Most surfaces one engine keeps analyses for, and most label keys it keeps
# structure decisions for. Far above the working set of real text, so each
# cache is cleared only when a long-lived engine has filled it since the
# last clear.
ANALYSIS_CACHE_SIZE = 65_536

# The record every unknown surface shares.
UNKNOWN_WORD = Word((), (), False)


class FaultKind(str, Enum):
    SPELLING = "spelling"
    STRUCTURE = "structure"
    CONJUGATION = "conjugation"


_KIND_RANK = {FaultKind.SPELLING: 0, FaultKind.STRUCTURE: 1, FaultKind.CONJUGATION: 2}


@dataclass(slots=True)
class SentenceVerdict:
    """Everything a sentence's token surfaces decide, for a fixed engine.

    Each fault is (kind, ordinal, message, rule_id): `ordinal` is the token
    the fault points at, 0 for a structure fault on the whole sentence.
    Faults are listed in report order. Anchoring to ordinals instead of text
    offsets lets one verdict serve every occurrence of the same sentence.
    """

    labels: tuple[str, ...]
    skipped: tuple[int, ...]
    matched: bool
    rule_id: str | None
    faults: tuple[tuple[FaultKind, int, str, str | None], ...]
    warnings: tuple[str, ...]


@dataclass(slots=True)
class Fault:
    """A reported fault; `ordinal` is the document-wide ordinal of its token
    (for a structure fault, its sentence's first token) and is not rendered."""

    kind: FaultKind
    sentence_index: int
    ordinal: int
    spans: tuple[tuple[int, int], ...]
    message: str
    rule_id: str | None = None


@dataclass(slots=True)
class SentenceRecord:
    """One report sentence; every occurrence of it shares one verdict."""

    index: int
    span: tuple[int, int]
    verdict: SentenceVerdict


@dataclass
class Report:
    faults: list[Fault] = field(default_factory=list)
    structures: list[SentenceRecord] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "faults": [
                {
                    "kind": f.kind.value,
                    "sentence": f.sentence_index,
                    "spans": [list(span) for span in f.spans],
                    "message": f.message,
                    "rule_id": f.rule_id,
                }
                for f in self.faults
            ],
            "structures": [
                {
                    "sentence": s.index,
                    "span": list(s.span),
                    "labels": list(s.verdict.labels),
                    "skipped": list(s.verdict.skipped),
                    "matched": s.verdict.matched,
                    "rule_id": s.verdict.rule_id,
                }
                for s in self.structures
            ],
            "stats": dict(self.stats),
            "warnings": list(self.warnings),
        }


@dataclass
class EngineConfig:
    """Paths to the four data files plus normalization switches."""

    lexicon_path: str | Path
    affixes_path: str | Path
    structure_rules_path: str | Path
    conjugation_rules_path: str | Path
    fold_hamza: bool = True
    keep_diacritics: bool = False

    @property
    def normalization(self) -> NormalizationOptions:
        return NormalizationOptions(
            fold_hamza=self.fold_hamza, keep_diacritics=self.keep_diacritics
        )


def data_path(name: str) -> Path:
    """Path of a bundled data file (lexicon.xml, affixes.txt, ...)."""
    return Path(resources.files("arabiclint").joinpath("data", name))


def default_config() -> EngineConfig:
    return EngineConfig(
        lexicon_path=data_path("lexicon.xml"),
        affixes_path=data_path("affixes.txt"),
        structure_rules_path=data_path("structure_rules.xml"),
        conjugation_rules_path=data_path("conjugation_rules.xml"),
    )


class Engine:
    """Immutable analysis engine: lexicon, affixes and both rule sets."""

    def __init__(
        self,
        lexicon: Lexicon,
        affixes: AffixInventory,
        structure_rules,
        conjugation_rules: ConjugationRuleSet,
        options: NormalizationOptions | None = None,
    ):
        self.lexicon = lexicon
        self.affixes = affixes
        self.structure_rules = list(structure_rules)
        self.conjugation_rules = conjugation_rules
        self.options = options or NormalizationOptions()
        self._analysis_cache: dict[str, Word] = {}
        self._label_tuples: dict[tuple[str, ...], tuple[str, ...]] = {}
        # Label key -> (chosen candidate indices, labels, outcome) of its words.
        # The search reads only the first L words' candidates, L being the
        # longest pattern, and any wider sentence fits the same rules as L+1.
        self._structures: dict[tuple, tuple] = {}
        self._key_width = 1 + max((len(r.pattern) for r in self.structure_rules), default=0)

    @classmethod
    def from_config(cls, config: EngineConfig) -> "Engine":
        opts = config.normalization
        lexicon = load_lexicon(config.lexicon_path, opts)
        affixes = load_affixes(config.affixes_path, opts)
        structure_rules = load_structure_rules(
            config.structure_rules_path, lexicon.category_names()
        )
        conjugation_rules = load_conjugation_rules(config.conjugation_rules_path, opts)
        return cls(lexicon, affixes, structure_rules, conjugation_rules, opts)

    @classmethod
    def default(cls) -> "Engine":
        return cls.from_config(default_config())

    def analyses(self, surface: str) -> Word:
        word = self._analysis_cache.get(surface)
        if word is None:
            if len(self._analysis_cache) >= ANALYSIS_CACHE_SIZE:
                self._analysis_cache.clear()
                self._label_tuples.clear()
            word = UNKNOWN_WORD
            if candidates := tuple(analyze_word(surface, self.lexicon, self.affixes)):
                labels = tuple(c.entry.category.name for c in candidates)
                labels = self._label_tuples.setdefault(labels, labels)
                word = Word(candidates, labels, DEFAULT_SKIP_CATEGORIES.issuperset(labels))
            self._analysis_cache[surface] = word
        return word

    def analyze_sentence(self, surfaces: tuple[str, ...]) -> SentenceVerdict:
        """Decide one sentence from the normalized surfaces of its tokens.

        Unknown words become spelling faults and particles are skipped. The
        structure is decided once per label key: the candidate labels of the
        first L+1 remaining words, L being the longest rule pattern. Later
        words take their first candidate.
        """
        words = list(map(self.analyses, surfaces))
        faults, active, skipped = [], [], []
        for ordinal, word in enumerate(words):
            if word.particle:
                skipped.append(ordinal)
            elif word.labels:
                active.append(ordinal)
            else:
                message = f"unknown word: {surfaces[ordinal]}"
                faults.append((FaultKind.SPELLING, ordinal, message, None))

        width = self._key_width
        key = tuple([words[i].labels for i in active[:width]])
        decision = self._structures.get(key)
        if decision is None:
            tagged = [TaggedToken(i, surfaces[i], words[i].candidates) for i in active[:width]]
            structure, outcome = disambiguate(tagged, self.structure_rules)
            decision = (tuple(t.chosen for t in tagged), structure.labels, outcome)
            if len(self._structures) >= ANALYSIS_CACHE_SIZE:
                self._structures.clear()
            self._structures[key] = decision
        picks, labels, outcome = decision
        if len(active) > width:
            labels += tuple([words[i].labels[0] for i in active[width:]])

        if not outcome.matched and labels:
            faults.append((FaultKind.STRUCTURE, 0, "sentence structure matches no rule", None))

        warnings = ()
        if CATEGORY_VERB in labels:
            chosen = [word.candidates[0] if word.labels else None for word in words]
            for i, j in zip(active, picks):
                if j:
                    chosen[i] = words[i].candidates[j]
            conj_faults, conj_warnings = check_conjugation(surfaces, chosen, self.conjugation_rules)
            faults.extend(conj_faults)
            warnings = tuple(conj_warnings)

        # A whole-sentence fault starts where token 0 does; a spelling fault
        # there ranks first, as in the document-wide order.
        if len(faults) > 1:
            faults.sort(key=lambda f: (f[1], _KIND_RANK[f[0]]))
        return SentenceVerdict(
            labels, tuple(skipped), outcome.matched, outcome.rule_id, tuple(faults), warnings
        )

    def analyze_text(self, text: str, parallel: bool = False) -> Report:
        """Run the full pipeline over a document.

        The text is scanned once and each distinct sentence is decided once
        per call. Sentences are independent, so contiguous chunks of them
        may be analyzed in parallel threads; the report is assembled in
        document order either way and is byte-for-byte deterministic. The
        report's warnings start with those raised while loading the lexicon.
        """
        nt = normalize(text, self.options)
        sentences = scan_sentences(nt.normalized)
        if parallel:
            sentences = list(sentences)
            size = max(1, -(-len(sentences) // (os.cpu_count() or 1)))
            # Each chunk starts from the index and token count of the
            # sentences before it.
            chunks, tokens = [], 0
            for start in range(0, len(sentences), size):
                chunk = sentences[start : start + size]
                chunks.append((start, tokens, chunk))
                tokens += sum(len(words) for words, _ in chunk)
            with ThreadPoolExecutor(max_workers=max(1, len(chunks))) as executor:
                parts = list(
                    executor.map(lambda chunk: self._analyze_sentences(nt, *chunk), chunks)
                )
        else:
            parts = [self._analyze_sentences(nt, 0, 0, sentences)]

        report = Report(warnings=list(self.lexicon.warnings))
        for faults, records, warnings in parts:
            report.faults.extend(faults)
            report.structures.extend(records)
            report.warnings.extend(warnings)
        stats = Counter(f.kind for f in report.faults)
        report.stats = {kind.value: stats[kind] for kind in FaultKind}
        return report

    def _analyze_sentences(self, nt, first_index: int, first_token: int, sentences):
        """Faults, records and warnings of consecutive scanned sentences.

        Each distinct tuple of token surfaces is decided once; every
        occurrence then gets that verdict with its own spans, index and
        token ordinals, counted on from `first_token`.
        """
        verdicts: dict[tuple[str, ...], SentenceVerdict] = {}
        faults: list[Fault] = []
        records: list[SentenceRecord] = []
        warnings: list[str] = []
        span_of = nt.span_in_original
        for index, (words, _) in enumerate(sentences, first_index):
            surfaces = tuple(map(re.Match.group, words))
            verdict = verdicts.get(surfaces)
            if verdict is None:
                verdict = verdicts[surfaces] = self.analyze_sentence(surfaces)
            span = span_of(words[0].start(), words[-1].end())
            for kind, ordinal, message, rule_id in verdict.faults:
                fault_span = (
                    span if kind is FaultKind.STRUCTURE else span_of(*words[ordinal].span())
                )
                faults.append(
                    Fault(kind, index, first_token + ordinal, (fault_span,), message, rule_id)
                )
            records.append(SentenceRecord(index, span, verdict))
            warnings.extend(verdict.warnings)
            first_token += len(words)
        return faults, records, warnings


def check_conjugation(
    surfaces: tuple[str, ...], chosen, rules: ConjugationRuleSet
) -> tuple[list[tuple[FaultKind, int, str, str]], list[str]]:
    """Check every verb of a disambiguated sentence against the agreement table.

    `chosen[i]` is token i's chosen MorphAnalysis, or None for an unknown
    word. Must only be called when a chosen analysis is a verb. Returns the
    conjugation faults, as (kind, verb ordinal, message, rule id) in the
    form of `SentenceVerdict.faults`, plus configuration warnings for any
    resolved (key, tense) pair the rule set does not cover.
    """
    verbs = [
        (ordinal, surfaces[ordinal], analysis)
        for ordinal, analysis in enumerate(chosen)
        if analysis is not None and analysis.entry.category.name == CATEGORY_VERB
    ]
    if not verbs:
        raise ValueError("conjugation check on a sentence with no chosen verb")

    faults = []
    warnings: list[str] = []
    for ordinal, surface, verb in verbs:
        previous = surfaces[ordinal - 1] if ordinal > 0 else None
        tense = TENSE_NEGATION if previous in NEGATION_PARTICLES else TENSE_SIMPLE

        key = None
        i = ordinal - 1
        while i >= 0 and surfaces[i] in NEGATION_PARTICLES:
            i -= 1
        if i >= 0:
            analysis = chosen[i]
            if analysis is not None and analysis.entry.category.name == CATEGORY_PRONOUN:
                key = analysis.entry.base
        if key is None and ordinal + 1 < len(surfaces):
            analysis = chosen[ordinal + 1]
            if analysis is not None:
                key = SUBJECT_FEATURES.get(analysis.entry.category.name)
        if key is None:
            key = NO_SUBJECT_KEY

        rule = rules.lookup(key, tense)
        if rule is None:
            warnings.append(
                f"no conjugation rule for ({key}, {tense}); verb {surface} not checked"
            )
            continue

        prebase_ok = rule.prebase == ANY_AFFIX or verb.prefix == rule.prebase
        postbase_ok = rule.postbase == ANY_AFFIX or verb.suffix == rule.postbase
        if prebase_ok and postbase_ok:
            continue
        wanted = []
        if not prebase_ok:
            wanted.append(f"prebase {rule.prebase or '(none)'}")
        if not postbase_ok:
            wanted.append(f"postbase {rule.postbase or '(none)'}")
        message = (
            f"verb {surface} does not agree with {key} "
            f"({tense}): expected {', '.join(wanted)}"
        )
        faults.append((FaultKind.CONJUGATION, ordinal, message, rule.id))
    return faults, warnings
