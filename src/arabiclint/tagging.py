"""Disambiguation of labelled words against the structure rules.

Labelling, which attaches every lexicon analysis a known word admits, lives
in `Engine.analyze_sentence`, on top of the engine's per-surface cache of
`Word` records. Disambiguation then picks one candidate per word so that the
label sequence satisfies a structure rule, choosing the lexicographically first
such assignment over candidate indices. It finds it by a depth-first search
that keeps only the rules whose pattern still equals the labels chosen so
far, so its depth is bounded by the longest pattern, not by the sentence
length. Tokens whose candidates are all function-word categories (particles
and prepositions) are set aside before matching, since rules describe the
content-word skeleton of a sentence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexicon import MorphAnalysis
from .rules import MatchOutcome, match_structure

# Tokens whose every candidate falls in these categories are excluded from
# structure matching. Conjunctions and demonstratives stay in the sequence:
# a sentence opening with a dangling conjunction should not satisfy a rule
# that expects a verb or a noun first.
DEFAULT_SKIP_CATEGORIES = frozenset({"Particule"})


@dataclass(frozen=True, slots=True)
class Word:
    """One surface's analyses with the facts labelling reads off them.

    `labels` holds each candidate's category name, in candidate order;
    `particle` is set when there are candidates and every one is in
    DEFAULT_SKIP_CATEGORIES. An unknown word has no candidates.
    """

    candidates: tuple[MorphAnalysis, ...]
    labels: tuple[str, ...]
    particle: bool


@dataclass(slots=True)
class TaggedToken:
    ordinal: int
    surface: str
    candidates: tuple[MorphAnalysis, ...]
    chosen: int | None = None


@dataclass(slots=True)
class SentenceStructure:
    """Chosen label sequence of the matchable tokens of one sentence.

    `skipped` holds the ordinals of function-word tokens excluded from
    matching; `labels` has one entry per remaining (known) token.
    """

    labels: tuple[str, ...]
    skipped: tuple[int, ...] = ()


def disambiguate(tagged, rules) -> tuple[SentenceStructure, MatchOutcome]:
    """Choose one analysis per token so the label sequence satisfies a rule.

    The winner is the first matching assignment in lexicographic order over
    candidate indices (leftmost token varying slowest). A depth-first search
    finds it without listing assignments: at each depth it tries candidates
    in index order, carrying the rules whose pattern equals the labels
    chosen so far, and prunes a candidate that leaves no such rule. It stops
    at the first depth where a surviving prefix-mode rule ends, or an
    exact-mode rule ends at full length; later tokens take their first
    candidate, the smallest completion. Failed (depth, surviving rules)
    states are remembered, so the work is bounded by the rule patterns and
    linear in the sentence. When nothing matches, every token keeps its
    first candidate and the outcome is unmatched. Either way every
    TaggedToken comes back with `chosen` set.
    """
    active, skipped = [], []
    for t in tagged:
        if all(c.entry.category.name in DEFAULT_SKIP_CATEGORIES for c in t.candidates):
            t.chosen = 0
            skipped.append(t.ordinal)
        else:
            active.append(t)

    width = len(active)
    patterns = [rule.pattern for rule in rules]
    # A rule can end a match only if it fits: prefix-mode rules up to the
    # full width, exact-mode rules at exactly the full width.
    fitting = tuple(
        i
        for i, rule in enumerate(rules)
        if (len(rule.pattern) == width if rule.exact else len(rule.pattern) <= width)
    )
    prefix = _first_prefix(active, patterns, 0, fitting, set()) if active else []
    chosen = prefix or []
    for depth, t in enumerate(active):
        t.chosen = chosen[depth] if depth < len(chosen) else 0
    labels = tuple(t.candidates[t.chosen].entry.category.name for t in active)
    outcome = MatchOutcome.unmatched() if prefix is None else match_structure(labels, rules)
    return SentenceStructure(labels=labels, skipped=tuple(skipped)), outcome


def _first_prefix(active, patterns, depth, live, failed):
    """Candidate indices of the first prefix below this node that a rule ends.

    `live` holds the indices of the patterns that equal the labels chosen
    above `depth`; `failed` collects the (depth, live) nodes already known
    to lead nowhere. Returns None when no completion matches.
    """
    if any(len(patterns[i]) == depth for i in live):
        return []
    if (depth, live) in failed:
        return None
    for j, candidate in enumerate(active[depth].candidates):
        label = candidate.entry.category.name
        survivors = tuple(i for i in live if patterns[i][depth] == label)
        if survivors:
            rest = _first_prefix(active, patterns, depth + 1, survivors, failed)
            if rest is not None:
                return [j, *rest]
    failed.add((depth, live))
    return None
