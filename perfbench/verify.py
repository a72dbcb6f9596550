"""Checks of each workload's reports against expectations built apart from them.

Every check takes a report as `Report.to_dict()` gives it (or the JSON text
the CLI printed) and returns a list of problems; an empty list means the
report is right.
"""

from __future__ import annotations

import json
from collections import Counter

from inputs import Document, LadderSentence
from reference import Data, norm, split_sentences

KINDS = ("spelling", "structure", "conjugation")


def _common(text: str, report: dict) -> list[str]:
    """Stats agree with the faults, and every token fault's span holds its word."""
    problems = []
    counts = Counter(f["kind"] for f in report["faults"])
    if report["stats"] != {kind: counts[kind] for kind in KINDS}:
        problems.append(f"stats {report['stats']} disagree with fault counts {dict(counts)}")
    for f in report["faults"]:
        (start, end), *rest = f["spans"]
        if rest:
            problems.append(f"fault with {len(f['spans'])} spans: {f}")
        if f["kind"] == "spelling":
            word = f["message"].removeprefix("unknown word: ")
        elif f["kind"] == "conjugation":
            word = f["message"].split()[1]
        else:
            continue
        if norm(text[start:end]) != word:
            problems.append(f"span {start}:{end} holds {text[start:end]!r}, not {word!r}")
    return problems


def _faults(report: dict, kind: str, *fields: str) -> list:
    return sorted(
        tuple(tuple(f[k][0]) if k == "spans" else f[k] for k in fields)
        for f in report["faults"]
        if f["kind"] == kind
    )


def check_prose(data: Data, doc: Document, report: dict) -> list[str]:
    """Faults are exactly the planted ones; records follow the reference."""
    problems = _common(doc.text, report)
    own = split_sentences(doc.text)
    if len(own) != len(doc.sentences) or len(report["structures"]) != len(own):
        return problems + [
            f"{len(report['structures'])} sentences reported, {len(own)} by own split, "
            f"{len(doc.sentences)} generated"
        ]
    spelling, structure, conjugation, records = [], [], [], []
    for index, (planned, tokens) in enumerate(zip(doc.sentences, own)):
        words = planned.words
        if [(w.norm, w.span) for w in words] != [(t, (s, e)) for t, s, e in tokens]:
            problems.append(f"sentence {index}: own split disagrees with the generator")
            continue
        span = [words[0].span[0], words[-1].span[1]]
        known = [i for i, w in enumerate(words) if w.category is not None]
        labels, skipped, matched, rule_id = data.first_match([[words[i].category] for i in known])
        spelling += [(index, w.span, f"unknown word: {w.norm}") for w in words if w.category is None]
        if not matched and labels:
            structure.append((index, tuple(span)))
        conjugation += [(index, words[i].span, rule) for i, rule in planned.conjugation_faults]
        records.append(
            {
                "sentence": index,
                "span": span,
                "labels": list(labels),
                "skipped": [known[i] for i in skipped],
                "matched": matched,
                "rule_id": rule_id,
            }
        )
    if _faults(report, "spelling", "sentence", "spans", "message") != sorted(spelling):
        problems.append("spelling faults are not exactly the planted unknown words")
    if _faults(report, "conjugation", "sentence", "spans", "rule_id") != sorted(conjugation):
        problems.append("conjugation faults are not exactly the planted disagreements")
    if _faults(report, "structure", "sentence", "spans") != sorted(structure):
        problems.append("structure faults differ from the reference first match")
    if report["structures"] != records:
        problems.append("sentence records differ from the reference")
    if report["warnings"]:
        problems.append(f"unexpected warnings: {report['warnings'][:3]}")
    return problems


class LadderReference:
    """Brute-force verdicts of ladder sentences, memoized by their words."""

    def __init__(self, data: Data):
        self.data = data
        self._candidates: dict[str, list[str]] = {}
        self._verdicts: dict[tuple[str, ...], tuple] = {}

    def verdict(self, words: tuple[str, ...]):
        verdict = self._verdicts.get(words)
        if verdict is None:
            lists = []
            for word in words:
                if word not in self._candidates:
                    self._candidates[word] = [a[3] for a in self.data.analyses(word)]
                lists.append(self._candidates[word])
            verdict = self._verdicts[words] = self.data.first_match(lists)
        return verdict


def check_ladder(ref: LadderReference, sentence: LadderSentence, report: dict) -> list[str]:
    """A ladder has one structure fault; a matching sentence has the brute-force match."""
    problems = _common(sentence.text, report)
    own = split_sentences(sentence.text)
    if len(own) != 1:
        return problems + [f"{len(own)} sentences in {sentence.text!r}"]
    tokens = own[0]
    labels, skipped, matched, rule_id = ref.verdict(tuple(t for t, _, _ in tokens))
    span = [tokens[0][1], tokens[-1][2]]
    record = {
        "sentence": 0,
        "span": span,
        "labels": list(labels),
        "skipped": list(skipped),
        "matched": matched,
        "rule_id": rule_id,
    }
    if report["structures"] != [record]:
        problems.append(f"record {report['structures']} is not {record}")
    if sentence.n is None:
        if not matched:
            problems.append(f"matching sentence {sentence.text!r} has no reference match")
        if report["faults"]:
            problems.append(f"matching sentence has faults: {report['faults']}")
    else:
        if matched:
            problems.append(f"ladder n={sentence.n} has reference match {rule_id}")
        wanted = [(0, tuple(span))]
        if len(report["faults"]) != 1 or _faults(report, "structure", "sentence", "spans") != wanted:
            problems.append(f"ladder n={sentence.n} faults {report['faults']} are not one structure fault")
    return problems


def canonical(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)


def check_json_output(output: str, base: str, base_report: dict, copies: int) -> list[str]:
    """The CLI's JSON equals one copy of the base, shifted to each copy.

    `base_report` is the base text analysed alone. Copy c starts at
    character c * len(base) and at sentence c * (sentences per copy).
    """
    report = json.loads(output)
    problems = _common(base, base_report)
    if len(split_sentences(base)) != len(base_report["structures"]):
        problems.append("the base report's sentences differ from own split")
    if canonical(report) + "\n" != output:
        problems.append("output does not re-dump to the same bytes")
    per_copy = len(base_report["structures"])
    n_faults = len(base_report["faults"])
    if len(report["structures"]) != per_copy * copies or len(report["faults"]) != n_faults * copies:
        return problems + [
            f"{len(report['structures'])} records and {len(report['faults'])} faults "
            f"for {copies} copies of {per_copy} sentences"
        ]
    for c in range(copies):
        chars, sentences = c * len(base), c * per_copy
        faults = [
            dict(f, sentence=f["sentence"] + sentences, spans=[[s + chars, e + chars] for s, e in f["spans"]])
            for f in base_report["faults"]
        ]
        records = [
            dict(r, sentence=r["sentence"] + sentences, span=[r["span"][0] + chars, r["span"][1] + chars])
            for r in base_report["structures"]
        ]
        if report["faults"][c * n_faults : (c + 1) * n_faults] != faults:
            problems.append(f"faults of copy {c} differ from the shifted base")
            break
        if report["structures"][c * per_copy : (c + 1) * per_copy] != records:
            problems.append(f"records of copy {c} differ from the shifted base")
            break
    if report["stats"] != {k: v * copies for k, v in base_report["stats"].items()}:
        problems.append(f"stats {report['stats']} are not {copies} x {base_report['stats']}")
    if report["warnings"] != base_report["warnings"] * copies:
        problems.append("warnings differ from the base's, repeated")
    return problems
