"""An independent reading of arabiclint's data files and documented semantics.

Nothing here imports arabiclint. The four data files are read raw, words are
split by trying every cut point, sentences are split by patterns of this
module's own, and the first matching label assignment is found by plain
enumeration. The benchmark builds its inputs and its expected outputs from
this module, so a report is checked against a computation made apart from
the program.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path
from xml.etree import ElementTree as ET

DIACRITICS = frozenset(chr(cp) for cp in range(0x064B, 0x0653))
TATWEEL = "ـ"
ALEF_VARIANTS = frozenset("آأإٱ")
BARE_ALEF = "ا"
TERMINATORS = frozenset(".:;!?؛؟")
PARTICLE = "Particule"
VERB = "Verbe"
PRONOUN = "PronomPersonnel"
NEGATIONS = frozenset({"لم", "لن"})
SUBJECT_FEATURES = {
    "NomPropreFeminin": "feminin-singulier",
    "NomPropreMasculin": "masculin-singulier",
    "NomPluriel": "pluriel",
}
SIMPLE, NEGATED = "PresentSimple", "PresentNegation"
NO_SUBJECT = "sans-sujet"
ANY = "*"

STRIPPED = "".join(sorted(DIACRITICS)) + TATWEEL
_NORMALIZE = str.maketrans({**dict.fromkeys(STRIPPED), **dict.fromkeys(ALEF_VARIANTS, BARE_ALEF)})


def norm(text: str) -> str:
    """Default normalization: drop tashkeel and tatweel, fold alef variants."""
    return text.translate(_NORMALIZE)


class Data:
    """The bundled lexicon, affixes and rules, read straight from the files."""

    def __init__(self, data_dir: Path):
        # base -> [(category, file order)], in file order, duplicates dropped.
        self.entries: dict[str, list[tuple[str, int]]] = {}
        self.categories: list[str] = []
        order = 0
        for element in ET.parse(data_dir / "lexicon.xml").getroot().iter():
            text = (element.text or "").strip()
            if len(element) or not text:
                continue
            if element.tag not in self.categories:
                self.categories.append(element.tag)
            base = norm(text)
            senses = self.entries.setdefault(base, [])
            if all(category != element.tag for category, _ in senses):
                senses.append((element.tag, order))
                order += 1

        groups: dict[str, set[str]] = {}
        for line in (data_dir / "affixes.txt").read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0]
            if "=" in line:
                key, _, value = line.partition("=")
                groups[key.strip()] = {norm(a) for a in value.split()} | {""}
        self.verb_prebases = groups["verb_prebases"]
        self.verb_postbases = groups["verb_postbases"]
        self.prefixes = groups["prefixes"] | self.verb_prebases
        self.suffixes = groups["suffixes"] | self.verb_postbases

        by_lower = {name.lower(): name for name in self.categories}
        self.rules: list[tuple[str, tuple[str, ...], bool]] = []
        rules_root = ET.parse(data_dir / "structure_rules.xml").getroot()
        for element in rules_root.iter("regle"):
            names = (element.text or "").split()
            pattern = tuple(by_lower[name.lower()] for name in names)
            self.rules.append((" ".join(names), pattern, element.get("mode") == "exact"))

        # (key, tense) -> (prebase, postbase)
        self.conjugation: dict[tuple[str, str], tuple[str, str]] = {}
        conj_root = ET.parse(data_dir / "conjugation_rules.xml").getroot()
        for entry in conj_root.iter("PronomPersonnel"):
            valeur = entry.get("valeur")
            key = valeur if valeur in (*SUBJECT_FEATURES.values(), NO_SUBJECT) else norm(valeur)
            for tense in entry:
                pre = (tense.findtext("prebase") or "").strip()
                post = (tense.findtext("PostBase") or "").strip()
                self.conjugation[(key, tense.tag)] = (
                    pre if pre == ANY else norm(pre),
                    post if post == ANY else norm(post),
                )

    def analyses(self, word: str) -> list[tuple[str, str, str, str]]:
        """Every (prefix, base, suffix, category) split, in the documented order.

        Tries every pair of cut points; the order is longest base first, then
        shorter prefix, then lexicon file order.
        """
        found = []
        for i in range(len(word)):
            if word[:i] not in self.prefixes:
                continue
            for j in range(i + 1, len(word) + 1):
                if word[j:] in self.suffixes:
                    for category, order in self.entries.get(word[i:j], ()):
                        found.append((word[:i], word[i:j], word[j:], category, order))
        found.sort(key=lambda a: (-len(a[1]), len(a[0]), a[4]))
        return [a[:4] for a in found]

    def first_match(self, candidate_lists) -> tuple[tuple[str, ...], tuple[int, ...], bool, str | None]:
        """Brute-force disambiguation of one sentence's known words.

        Returns (labels, skipped positions, matched, rule id). Words whose every
        candidate is a particle are set aside; the first assignment in
        lexicographic order whose labels a rule accepts, rules tried in file
        order, wins; with none, every word keeps its first candidate.
        """
        skipped = tuple(
            i for i, cands in enumerate(candidate_lists) if all(c == PARTICLE for c in cands)
        )
        active = [c for i, c in enumerate(candidate_lists) if i not in skipped]
        for labels in itertools.product(*active):
            if not labels:
                return (), skipped, True, None
            for rule_id, pattern, exact in self.rules:
                if labels == pattern if exact else labels[: len(pattern)] == pattern:
                    return labels, skipped, True, rule_id
        return tuple(c[0] for c in active), skipped, False, None


# Terminators and blank lines (a newline, then only spaces or tabs, then
# another newline) end a sentence. A word is a run of letters and digits,
# with the characters normalization strips allowed inside it.
_BOUNDARY = re.compile("[" + re.escape("".join(sorted(TERMINATORS))) + "]|\n[^\\S\n]*\n")
_WORD = re.compile("(?:[^\\W_]|[" + STRIPPED + "])+")


def split_sentences(text: str) -> list[list[tuple[str, int, int]]]:
    """Sentences of (normalized word, start, end), with spans in `text`.

    A span runs from the first to the last character normalization keeps.
    """
    sentences = []
    start = 0
    for boundary in itertools.chain(_BOUNDARY.finditer(text), [None]):
        end = len(text) if boundary is None else boundary.start()
        words = []
        for m in _WORD.finditer(text, start, end):
            word = m.group()
            core = word.strip(STRIPPED)
            if core:
                first = m.start() + len(word) - len(word.lstrip(STRIPPED))
                words.append((norm(core), first, first + len(core)))
        if words:
            sentences.append(words)
        if boundary is not None:
            start = boundary.end()
    return sentences
