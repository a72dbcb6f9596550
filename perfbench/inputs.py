"""Seeded inputs for the three workloads, with what each input must yield.

Every generator takes a `random.Random` made from the run's seed, so the
same seed gives the same inputs. Expectations come from `reference`, never
from arabiclint.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from reference import (
    ANY,
    NEGATED,
    NEGATIONS,
    NO_SUBJECT,
    PARTICLE,
    PRONOUN,
    SIMPLE,
    STRIPPED,
    SUBJECT_FEATURES,
    VERB,
    Data,
)

# Letters for planted unknown words: no alef variants, so they stay as written.
LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوية"
# Tashkeel a vowelized word may carry, and the alef variants that fold to ا.
MARKS = "ًٌٍَُِّْ"
HAMZA_ALEFS = "أإآ"
TERMINATOR_CHOICES = ".؟!؛:;"


def decorate(rng: random.Random, word: str) -> str:
    """Add tashkeel, tatweel and hamza alefs; normalization undoes all three."""
    out = []
    for i, ch in enumerate(word):
        if ch == "ا" and rng.random() < 0.5:
            ch = rng.choice(HAMZA_ALEFS)
        out.append(ch)
        if i + 1 < len(word) and rng.random() < 0.15:
            out.append("ـ")
        if rng.random() < 0.5:
            out.append(rng.choice(MARKS))
    return "".join(out)


def core_span(surface: str, start: int) -> tuple[int, int]:
    """Span of `surface`, placed at `start`, from its first to last kept character."""
    first = start + len(surface) - len(surface.lstrip(STRIPPED))
    return first, first + len(surface.strip(STRIPPED))


class Vocabulary:
    """Affixed lexicon forms that the reference gives exactly one analysis."""

    def __init__(self, data: Data):
        self.data = data
        self.category: dict[str, str] = {}
        self.base: dict[str, str] = {}
        # (prebase, postbase) -> verb forms with exactly that split
        self.verbs: dict[tuple[str, str], list[str]] = {}
        for base in data.entries:
            for prefix in sorted(data.prefixes):
                for suffix in sorted(data.suffixes):
                    form = prefix + base + suffix
                    analyses = data.analyses(form)
                    if len(analyses) != 1 or form in self.category:
                        continue
                    split_prefix, split_base, split_suffix, category = analyses[0]
                    self.category[form] = category
                    self.base[form] = split_base
                    if category == VERB and split_prefix in data.verb_prebases | {""} and (
                        split_suffix in data.verb_postbases | {""}
                    ):
                        self.verbs.setdefault((split_prefix, split_suffix), []).append(form)
        forms = sorted(self.category)
        self.pronouns = [f for f in forms if self.category[f] == PRONOUN]
        self.subjects = [f for f in forms if self.category[f] in SUBJECT_FEATURES]
        self.non_subjects = [
            f for f in forms if self.category[f] not in SUBJECT_FEATURES and self.category[f] != VERB
        ]
        self.tail = [f for f in forms if self.category[f] != VERB]
        self.negations = sorted(NEGATIONS)

    def is_unknown(self, word: str) -> bool:
        return not self.data.analyses(word)

    def verb(self, rng: random.Random, key: str, tense: str, agree: bool) -> str:
        """A verb form that agrees with (key, tense), or one that does not."""
        want_pre, want_post = self.data.conjugation[(key, tense)]

        def agrees(pre, post):
            return (want_pre == ANY or pre == want_pre) and (want_post == ANY or post == want_post)

        splits = sorted(s for s in self.verbs if agrees(*s) == agree)
        return rng.choice(self.verbs[rng.choice(splits)])


@dataclass
class Word:
    surface: str  # as written in the document
    norm: str
    category: str | None  # None for a planted unknown word
    span: tuple[int, int] = (0, 0)


@dataclass
class PlannedSentence:
    words: list[Word]
    conjugation_faults: list[tuple[int, str]] = field(default_factory=list)  # (word, rule id)


@dataclass
class Document:
    text: str
    sentences: list[PlannedSentence]

    @property
    def size(self) -> int:
        return len(self.text.encode("utf-8"))


class ProseStream:
    """Non-repeating documents of affixed lexicon forms in a Zipf-like mix.

    Sentences open with a verbal head whose subject agreement is known by
    construction (pronoun before the verb, proper noun or plural after it,
    or no subject), or with none, followed by a tail of non-verb words.
    Some verbs are planted to disagree; some tail words are planted
    unknown words, part of them new in every document.
    """

    MAX_SENTENCES = 400
    VOWELIZED_SHARE = 0.15
    UNKNOWN_SHARE = 0.03
    DISAGREE_SHARE = 0.15

    def __init__(self, vocab: Vocabulary, rng: random.Random):
        self.vocab = vocab
        self.rng = rng
        # The Zipf ranking is part of the workload, not of the seed, so every
        # seed draws from the same mix.
        ranked = list(vocab.tail)
        random.Random(0).shuffle(ranked)
        self.tail_forms = ranked
        self.tail_weights = list(itertools.accumulate(1 / (rank + 1) for rank in range(len(ranked))))
        self.recurring_unknowns = [self._fresh_unknown() for _ in range(200)]

    def _fresh_unknown(self) -> str:
        while True:
            word = "".join(self.rng.choice(LETTERS) for _ in range(self.rng.randint(4, 8)))
            if self.vocab.is_unknown(word):
                return word

    def _known(self, form: str) -> Word:
        rng = self.rng
        surface = decorate(rng, form) if rng.random() < self.VOWELIZED_SHARE else form
        return Word(surface, form, self.vocab.category[form])

    def _sentence(self) -> PlannedSentence:
        rng, vocab = self.rng, self.vocab
        words: list[Word] = []
        faults: list[tuple[int, str]] = []

        def add_verb(key, tense):
            agree = rng.random() >= self.DISAGREE_SHARE
            if not agree:
                faults.append((len(words), f"{key}/{tense}"))
            words.append(self._known(vocab.verb(rng, key, tense, agree)))

        def add_negation():
            if rng.random() < 0.3:
                words.append(self._known(rng.choice(vocab.negations)))
                return NEGATED
            return SIMPLE

        head = rng.random()
        if head < 0.3:  # pronoun governs the verb
            pronoun = rng.choice(vocab.pronouns)
            words.append(self._known(pronoun))
            tense = add_negation()
            add_verb(vocab.base[pronoun], tense)
        elif head < 0.5:  # subject after the verb
            tense = add_negation()
            subject = rng.choice(vocab.subjects)
            add_verb(SUBJECT_FEATURES[vocab.category[subject]], tense)
            words.append(self._known(subject))
        elif head < 0.65:  # no visible subject
            tense = add_negation()
            add_verb(NO_SUBJECT, tense)
            words.append(self._known(rng.choice(vocab.non_subjects)))

        tail = rng.choices(self.tail_forms, cum_weights=self.tail_weights, k=rng.randint(1, 9))
        for form in tail:
            if rng.random() < self.UNKNOWN_SHARE:
                word = rng.choice(self.recurring_unknowns) if rng.random() < 0.5 else self._fresh_unknown()
                words.append(Word(word, word, None))
            else:
                words.append(self._known(form))
        return PlannedSentence(words, faults)

    def round(self, size: int) -> list[Document]:
        """`size` documents whose sentence counts are log-uniform from 1 to 400.

        Each document draws its count from its own stratum of the range, so
        every round, whatever the seed, covers the range alike.
        """
        strata = [(i + self.rng.random()) / size for i in range(size)]
        self.rng.shuffle(strata)
        return [self.document(int(self.MAX_SENTENCES**share)) for share in strata]

    def document(self, count: int) -> Document:
        rng = self.rng
        sentences = [self._sentence() for _ in range(count)]
        parts: list[str] = []
        offset = 0
        for s, sentence in enumerate(sentences):
            for w, word in enumerate(sentence.words):
                if w:
                    sep = "، " if rng.random() < 0.05 else " "
                    parts.append(sep)
                    offset += len(sep)
                word.span = core_span(word.surface, offset)
                parts.append(word.surface)
                offset += len(word.surface)
            if s + 1 < count:
                end = rng.choice(TERMINATOR_CHOICES) + ("\n\n" if rng.random() < 0.15 else " ")
            else:
                end = rng.choice(TERMINATOR_CHOICES + "\n")
            parts.append(end)
            offset += len(end)
        return Document("".join(parts), sentences)


# The criterion-7 text: 30 one-word sentences repeated past 1 MiB.
CRITERION_7_WORDS = [
    "يبحث", "في", "أصول", "تكوين", "الجملة", "وقواعد", "الإعراب", "أنتم",
    "لم", "تذهبون", "تذهبوا", "إيمان", "أيمن", "ياخذ", "أقراص", "هما",
    "لن", "يذهبان", "يكتبوا", "هم", "التسويق", "هو", "مجموعة", "العمليات",
    "أو", "الأنشطة", "تشبعوا", "رغبات", "العملاء", "ذلك",
]
MIB = 1_048_576


def criterion_7_text(min_bytes: int = MIB) -> tuple[str, int]:
    """(text, copies): the base text repeated until it holds `min_bytes`."""
    base = ". ".join(CRITERION_7_WORDS) + ".\n"
    copies = min_bytes // len(base.encode("utf-8")) + 1
    return base * copies, copies


def criterion_7_base() -> str:
    return criterion_7_text(0)[0]


@dataclass
class LadderSentence:
    text: str
    n: int | None  # ambiguous words of an unmatched ladder; None for a matching sentence


class Ladder:
    """One round of 31 sentences: 28 ladders and 3 matching sentences.

    A ladder is a conjunction and n words with two candidates each
    (pronoun or particle). No rule starts with a conjunction, so all 2**n
    assignments are tried. There is one ladder for each n from 1 to 14 and
    one more for each n from 9 to 12. Ten more n = 8 ladders, trailed by 2,
    4, ..., 20 plain nouns that make each assignment dearer by steps, hold
    the round's middle: the median latency then falls among close values,
    not between a ladder and one twice as costly. A matching sentence is a
    pronoun and an agreeing verb followed by ambiguous words; it matches at
    the first assignment.
    """

    N = [*range(1, 15), 9, 10, 11, 12]
    MIDDLE_N, MIDDLE_NOUNS = 8, range(2, 21, 2)
    MATCHING = 3

    def __init__(self, vocab: Vocabulary, rng: random.Random):
        data = vocab.data
        self.vocab = vocab
        self.rng = rng
        bare = [f for f in vocab.tail if vocab.base[f] == f]
        self.conjunctions = [f for f in bare if vocab.category[f] == "Conjonction"]
        self.nouns = [f for f in bare if vocab.category[f] == "NomCommun"][:3]
        self.ambiguous = "انا"
        if [a[3] for a in data.analyses(self.ambiguous)] != [PRONOUN, PARTICLE]:
            raise RuntimeError("the ladder word no longer has two candidates")
        self.pronouns = [p for p in vocab.pronouns if vocab.base[p] == p]

    def _ambiguous(self) -> str:
        return decorate(self.rng, self.ambiguous) if self.rng.random() < 0.5 else self.ambiguous

    def _ladder(self, n: int, nouns: int = 0) -> LadderSentence:
        rng = self.rng
        words = [rng.choice(self.conjunctions)] + [self._ambiguous() for _ in range(n)]
        words += [rng.choice(self.nouns)] * nouns
        return LadderSentence(" ".join(words) + ".", n)

    def round(self) -> list[LadderSentence]:
        rng = self.rng
        sentences = [self._ladder(n) for n in self.N]
        sentences += [self._ladder(self.MIDDLE_N, nouns) for nouns in self.MIDDLE_NOUNS]
        for _ in range(self.MATCHING):
            pronoun = rng.choice(self.pronouns)
            verb = self.vocab.verb(rng, pronoun, SIMPLE, agree=True)
            words = [pronoun, verb] + [self._ambiguous() for _ in range(rng.randint(1, 4))]
            sentences.append(LadderSentence(" ".join(words) + ".", None))
        rng.shuffle(sentences)
        return sentences
