"""Detection-precision evaluation against annotated corpora.

A corpus is a JSONL file, one object per line:

    {"text": "...", "gold": [{"kind": "conjugation", "ordinal": 2}], "note": "..."}

`gold` lists the true faults of the entry, keyed by token ordinal
(structure faults use the ordinal of their sentence's first token, 0 for
a single sentence). With D+ the set of gold fault keys and R the set of
faults the engine reports, each keyed by its `Fault.ordinal`, detection
precision is |D+ ∩ R| / |R|, computed in exact rational arithmetic and
undefined (rendered "n/a") when the engine reports nothing. Recall |D+ ∩ R| / |D+| is computed as well, as an
extension beyond the precision-only original metric.

Entries whose `note` contains "excluded-from-strict" still count toward
the precision sets, but their verdict mismatches do not fail strict mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import Engine, FaultKind
from .errors import CorpusError
from .lexicon import _read_text

EXCLUSION_FLAG = "excluded-from-strict"

_KINDS = tuple(kind.value for kind in FaultKind)


@dataclass(frozen=True)
class GoldAnnotation:
    """One corpus sentence with its true faults as (kind, token ordinal)."""

    text: str
    gold: tuple[tuple[str, int], ...] = ()
    note: str | None = None

    @property
    def excluded_from_strict(self) -> bool:
        return bool(self.note) and EXCLUSION_FLAG in self.note


@dataclass
class EvalSets:
    """Gold fault keys (D+) and engine detections (R), identically keyed."""

    d_plus: set = field(default_factory=set)
    detected: set = field(default_factory=set)


@dataclass(frozen=True)
class PrecisionResult:
    detected: int  # |R|
    hits: int  # |D+ ∩ R|
    gold: int = 0  # |D+|, for the recall extension

    @property
    def precision(self) -> Fraction | None:
        if self.detected == 0:
            return None
        return Fraction(self.hits, self.detected)

    @property
    def recall(self) -> Fraction | None:
        if self.gold == 0:
            return None
        return Fraction(self.hits, self.gold)

    @staticmethod
    def render(ratio: Fraction | None) -> str:
        if ratio is None:
            return "n/a"
        return f"{float(ratio):.2f}"


@dataclass(frozen=True)
class VerdictDiff:
    """One per-entry, per-kind disagreement between gold and the engine."""

    entry: int
    kind: str
    expected: bool
    actual: bool
    excluded: bool
    text: str


@dataclass
class CorpusResult:
    results: dict[str, PrecisionResult]
    diffs: list[VerdictDiff]

    @property
    def strict_failures(self) -> list[VerdictDiff]:
        return [d for d in self.diffs if not d.excluded]


def detection_precision(sets: EvalSets) -> PrecisionResult:
    hits = len(sets.d_plus & sets.detected)
    return PrecisionResult(detected=len(sets.detected), hits=hits, gold=len(sets.d_plus))


def load_corpus(source) -> list[GoldAnnotation]:
    """Parse a JSONL corpus from a path or an open file; errors name the line."""
    content = _read_text(source, CorpusError)
    entries: list[GoldAnnotation] = []
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
            raise CorpusError(f"line {lineno}: expected an object with a string 'text' field")
        if not isinstance(obj.get("note", ""), (str, type(None))):
            raise CorpusError(f"line {lineno}: 'note' must be a string")
        items = obj.get("gold", [])
        if not isinstance(items, list):
            raise CorpusError(f"line {lineno}: 'gold' must be a list of objects")
        gold = []
        for item in items:
            fields = item if isinstance(item, dict) else {}
            kind, ordinal = fields.get("kind"), fields.get("ordinal")
            # bool is a subclass of int, but `true` is not a token ordinal.
            if kind not in _KINDS or type(ordinal) is not int or ordinal < 0:
                raise CorpusError(f"line {lineno}: bad gold item {item!r}")
            gold.append((kind, ordinal))
        entries.append(
            GoldAnnotation(text=obj["text"], gold=tuple(gold), note=obj.get("note"))
        )
    if not entries:
        raise CorpusError("empty corpus")
    return entries


def run_corpus(corpus, engine: Engine) -> CorpusResult:
    """Evaluate the engine over a corpus: per-kind precision plus verdict diffs.

    Detections and gold faults are keyed (entry, kind, token ordinal). A
    detection's ordinal is its `Fault.ordinal`: counted across the whole
    entry (corpus entries are single sentences by convention), and for a
    structure fault the first token of its sentence.
    """
    sets = {kind: EvalSets() for kind in _KINDS}
    diffs: list[VerdictDiff] = []

    for entry_index, entry in enumerate(corpus):
        detected = {
            (entry_index, fault.kind.value, fault.ordinal)
            for fault in engine.analyze_text(entry.text).faults
        }

        gold = {(entry_index, kind, ordinal) for kind, ordinal in entry.gold}
        for kind in _KINDS:
            sets[kind].d_plus |= {k for k in gold if k[1] == kind}
            sets[kind].detected |= {k for k in detected if k[1] == kind}
            expected = any(k[1] == kind for k in gold)
            actual = any(k[1] == kind for k in detected)
            if expected != actual:
                diffs.append(
                    VerdictDiff(
                        entry=entry_index,
                        kind=kind,
                        expected=expected,
                        actual=actual,
                        excluded=entry.excluded_from_strict,
                        text=entry.text,
                    )
                )

    results = {kind: detection_precision(sets[kind]) for kind in _KINDS}
    return CorpusResult(results=results, diffs=diffs)
