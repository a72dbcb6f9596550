"""Structure and conjugation rule databases.

Structure rules describe correct label sequences for verbal and nominal
sentences. The file is XML rooted at <ReglesApplicables> with the two rule
families as children:

    <ReglesApplicables>
      <ReglesPhrasesVerbales>
        <regle>verbe NomPropreFeminin </regle>
      </ReglesPhrasesVerbales>
      <ReglesPhrasesNominales>
        <regle>NomPropreMasculin verbe </regle>
      </ReglesPhrasesNominales>
    </ReglesApplicables>

A rule matches a sentence when its pattern is a prefix of the sentence's
label sequence; a rule may opt into whole-sequence matching with
mode="exact". A category name in a pattern matches a taxonomy name exactly
or, failing that, ignoring case (so the conventional lowercase "verbe"
denotes Verbe); a name that matches two categories ignoring case is an error.

Conjugation rules give the verb prebase/postbase required by a subject
agreement key in a tense context:

    <ReglesConjugaison>
      <PronomPersonnel valeur="أنتم">
        <PresentSimple>
          <prebase>ت</prebase>
          <PostBase>ون</PostBase>
        </PresentSimple>
        <PresentNegation>
          <prebase>ت</prebase>
          <PostBase>وا</PostBase>
        </PresentNegation>
      </PronomPersonnel>
    </ReglesConjugaison>

`valeur` is normally a personal pronoun. The reserved values
feminin-singulier, masculin-singulier and pluriel key agreement on subject
features instead, and sans-sujet applies to verbs with no detected
subject. A prebase or PostBase of "*" accepts any affix; empty element
text requires the empty affix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RuleLoadError
from .lexicon import _parse_xml
from .segmentation import NormalizationOptions, normalize

VERBAL = "Verbal"
NOMINAL = "Nominal"

TENSE_SIMPLE = "PresentSimple"
TENSE_NEGATION = "PresentNegation"
TENSES = (TENSE_SIMPLE, TENSE_NEGATION)

# Reserved agreement keys; anything else in valeur is a pronoun value.
FEATURE_KEYS = frozenset({"feminin-singulier", "masculin-singulier", "pluriel"})
NO_SUBJECT_KEY = "sans-sujet"

ANY_AFFIX = "*"

_RULE_FAMILIES = {
    "ReglesPhrasesVerbales": VERBAL,
    "ReglesPhrasesNominales": NOMINAL,
}


@dataclass(frozen=True)
class StructureRule:
    id: str  # the rule text, whitespace-normalized
    kind: str  # Verbal | Nominal
    pattern: tuple[str, ...]  # resolved category names
    exact: bool = False


@dataclass(frozen=True)
class MatchOutcome:
    matched: bool
    rule_id: str | None = None

    @classmethod
    def for_rule(cls, rule_id: str) -> "MatchOutcome":
        return cls(matched=True, rule_id=rule_id)

    @classmethod
    def unmatched(cls) -> "MatchOutcome":
        return _UNMATCHED


_VACUOUS = MatchOutcome(matched=True, rule_id=None)
_UNMATCHED = MatchOutcome(matched=False, rule_id=None)


@dataclass(frozen=True)
class ConjugationRule:
    key: str  # normalized pronoun value, feature name, or sans-sujet
    tense: str  # PresentSimple | PresentNegation
    prebase: str  # required verb prefix, "*" accepts any
    postbase: str  # required verb suffix, "*" accepts any

    @property
    def id(self) -> str:
        return f"{self.key}/{self.tense}"


class ConjugationRuleSet:
    """Immutable (key, tense) -> rule lookup table."""

    def __init__(self, rules):
        self.rules: list[ConjugationRule] = list(rules)
        self._table: dict[tuple[str, str], ConjugationRule] = {}
        for rule in self.rules:
            self._table[(rule.key, rule.tense)] = rule

    def lookup(self, key: str, tense: str) -> ConjugationRule | None:
        return self._table.get((key, tense))

    def __len__(self) -> int:
        return len(self.rules)


def load_structure_rules(source, known_categories) -> list[StructureRule]:
    """Load structure rules, validating every pattern name against the taxonomy."""
    root = _parse_xml(source, RuleLoadError)
    if root.tag != "ReglesApplicables":
        raise RuleLoadError(f"expected root <ReglesApplicables>, found <{root.tag}>")
    known = set(known_categories)
    by_lower: dict[str, list[str]] = {}
    for name in sorted(known):
        by_lower.setdefault(name.lower(), []).append(name)
    rules: list[StructureRule] = []
    for family in root:
        kind = _RULE_FAMILIES.get(family.tag)
        if kind is None:
            raise RuleLoadError(f"unknown rule family <{family.tag}>")
        for element in family:
            if element.tag != "regle":
                raise RuleLoadError(f"unexpected element <{element.tag}> in <{family.tag}>")
            raw = (element.text or "").strip()
            names = raw.split()
            if not names:
                raise RuleLoadError(f"empty rule in <{family.tag}>")
            pattern = []
            for name in names:
                resolved = [name] if name in known else by_lower.get(name.lower(), [])
                if not resolved:
                    raise RuleLoadError(f"rule {raw!r} references unknown category {name!r}")
                if len(resolved) > 1:
                    raise RuleLoadError(
                        f"rule {raw!r}: category {name!r} matches each of "
                        f"{', '.join(resolved)} ignoring case"
                    )
                pattern.append(resolved[0])
            mode = element.get("mode", "prefix")
            if mode not in ("prefix", "exact"):
                raise RuleLoadError(f"rule {raw!r} has unknown mode {mode!r}")
            rules.append(
                StructureRule(
                    id=" ".join(names),
                    kind=kind,
                    pattern=tuple(pattern),
                    exact=(mode == "exact"),
                )
            )
    if not rules:
        raise RuleLoadError("empty structure rule set")
    return rules


def match_structure(labels: tuple[str, ...], rules) -> MatchOutcome:
    """First rule whose pattern prefixes (or exactly equals) the labels.

    An empty label sequence matches vacuously: there is nothing left to
    constrain once function words are set aside.
    """
    if not labels:
        return _VACUOUS
    width = len(labels)
    for rule in rules:
        pattern = rule.pattern
        if rule.exact:
            if labels == pattern:
                return MatchOutcome.for_rule(rule.id)
        elif len(pattern) <= width and labels[: len(pattern)] == pattern:
            return MatchOutcome.for_rule(rule.id)
    return _UNMATCHED


def load_conjugation_rules(
    source, options: NormalizationOptions | None = None
) -> ConjugationRuleSet:
    """Load the conjugation agreement table.

    Accepts either a root element containing <PronomPersonnel> entries or a
    single <PronomPersonnel> element as the whole document. Duplicate
    (valeur, tense) pairs and missing prebase/PostBase children are errors.
    """
    root = _parse_xml(source, RuleLoadError)
    opts = options or NormalizationOptions()
    entries = [root] if root.tag == "PronomPersonnel" else list(root)
    rules: list[ConjugationRule] = []
    seen: set[tuple[str, str]] = set()
    for entry in entries:
        if entry.tag != "PronomPersonnel":
            raise RuleLoadError(f"unexpected element <{entry.tag}> in conjugation rules")
        valeur = entry.get("valeur")
        if not valeur:
            raise RuleLoadError("<PronomPersonnel> without a valeur attribute")
        reserved = valeur == NO_SUBJECT_KEY or valeur in FEATURE_KEYS
        key = valeur if reserved else normalize(valeur, opts).normalized
        for tense_elem in entry:
            if tense_elem.tag not in TENSES:
                raise RuleLoadError(
                    f"unknown tense <{tense_elem.tag}> under valeur={valeur!r}"
                )
            if (key, tense_elem.tag) in seen:
                raise RuleLoadError(
                    f"duplicate conjugation rule for ({valeur}, {tense_elem.tag})"
                )
            seen.add((key, tense_elem.tag))
            prebase = tense_elem.find("prebase")
            postbase = tense_elem.find("PostBase")
            if prebase is None or postbase is None:
                raise RuleLoadError(
                    f"({valeur}, {tense_elem.tag}) needs both <prebase> and <PostBase>"
                )
            rules.append(
                ConjugationRule(
                    key=key,
                    tense=tense_elem.tag,
                    prebase=_affix_text(prebase, opts),
                    postbase=_affix_text(postbase, opts),
                )
            )
    if not rules:
        raise RuleLoadError("empty conjugation rule set")
    return ConjugationRuleSet(rules)


def _affix_text(element, opts) -> str:
    text = (element.text or "").strip()
    if text == ANY_AFFIX:
        return ANY_AFFIX
    return normalize(text, opts).normalized
