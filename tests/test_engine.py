import io
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arabiclint.engine as engine_module
from arabiclint import (
    Category,
    Engine,
    FaultKind,
    LexicalEntry,
    Lexicon,
    analyze_word,
    check_conjugation,
    load_conjugation_rules,
    load_structure_rules,
    normalize,
    split_sentences,
)
from arabiclint.render import render_json
from arabiclint.rules import StructureRule
from arabiclint.tagging import disambiguate

from helpers import (
    deadline,
    oracle_any_assignment_matches,
    oracle_sentence_verdict,
    tag_known_words,
)
from test_acceptance import _fuzz_document

TABLE_TEXTS = [
    "يبحث في أصول تكوين الجملة وقواعد الإعراب",
    "و يبحث في أصول تكوين الجمّة وقواعد",
    "يتكون جسم الإنسان من أجهزة مختلفة الوظائف",
    "التسويق هو مجموعة من العمليات والأنشطة",
    "التسويق هو مجموعة من العمليات أو الأنشطة، تشبعوا رغبات العملاء",
    "أنتم لم تذهبون",
    "أنتم لم تذهبوا",
    "ياخذ إيمان أقراص",
    "ياخذ أيمن أقراص",
    "تذهبن إيمان",
    "تذهب إيمان",
    "هما لن يذهبان",
    "لم يكتبوا الجملة",
    "هم لم يكتبوا الجملة",
    "أيمن يذهب",
    "النحو العربي هو علم، تبحث في أصول تكوين الجملة وقواعد الإعراب",
    "يذكر أن في مثل ذلك المكان",
]


def kinds(report):
    return [f.kind for f in report.faults]


class TestConjugationPairs:
    @pytest.mark.parametrize(
        "faulty, correct, verb",
        [
            ("أنتم لم تذهبون", "أنتم لم تذهبوا", "تذهبون"),
            ("تذهبن إيمان", "تذهب إيمان", "تذهبن"),
            ("لم يكتبوا الجملة", "هم لم يكتبوا الجملة", "يكتبوا"),
        ],
    )
    def test_contrast_pairs(self, engine, faulty, correct, verb):
        bad = engine.analyze_text(faulty)
        assert kinds(bad) == [FaultKind.CONJUGATION]
        start, end = bad.faults[0].spans[0]
        assert faulty[start:end] == verb
        good = engine.analyze_text(correct)
        assert good.faults == []

    def test_dual_pronoun_under_negation(self, engine):
        report = engine.analyze_text("هما لن يذهبان")
        assert kinds(report) == [FaultKind.CONJUGATION]
        start, end = report.faults[0].spans[0]
        assert "هما لن يذهبان"[start:end] == "يذهبان"
        assert report.faults[0].rule_id == "هما/PresentNegation"

    def test_correct_dual_form_under_negation_passes(self, engine):
        assert engine.analyze_text("هما لن يذهبا").faults == []

    def test_feminine_subject_after_verb(self, engine):
        report = engine.analyze_text("ياخذ إيمان أقراص")
        assert kinds(report) == [FaultKind.CONJUGATION]
        assert report.faults[0].rule_id == "feminin-singulier/PresentSimple"

    def test_masculine_subject_after_verb_passes(self, engine):
        assert engine.analyze_text("ياخذ أيمن أقراص").faults == []

    def test_plural_subject_right_after_verb(self, engine):
        report = engine.analyze_text("تشبعوا رغبات العملاء")
        assert kinds(report) == [FaultKind.CONJUGATION]
        assert report.faults[0].rule_id == "pluriel/PresentSimple"

    def test_preposition_after_verb_means_no_visible_subject(self, engine):
        # The noun after a preposition is oblique, not a subject.
        assert engine.analyze_text("يبحث في أصول تكوين الجملة وقواعد الإعراب").faults == []

    def test_pronoun_blocked_by_intervening_word(self, engine):
        # هو does not govern تبحث across علم; the verb has no visible subject.
        assert engine.analyze_text("هو علم تبحث في الجملة").faults == []

    def test_negation_particles_are_transparent_for_agreement(self, engine):
        assert engine.analyze_text("هم لم يكتبوا الجملة").faults == []
        report = engine.analyze_text("هم لم يكتبون الجملة")
        assert kinds(report) == [FaultKind.CONJUGATION]
        assert report.faults[0].rule_id == "هم/PresentNegation"

    def test_every_verb_is_checked_independently(self, engine):
        text = "تذهب إيمان و تذهبن إيمان"
        report = engine.analyze_text(text)
        assert kinds(report) == [FaultKind.CONJUGATION]
        start, end = report.faults[0].spans[0]
        assert text[start:end] == "تذهبن"


class TestAnalyzeSentence:
    def test_spelling_fault_excludes_word_from_structure(self, engine):
        report = engine.analyze_text("و يبحث في أصول تكوين الجمّة وقواعد")
        assert kinds(report) == [FaultKind.STRUCTURE, FaultKind.SPELLING]
        spelling = [f for f in report.faults if f.kind is FaultKind.SPELLING][0]
        start, end = spelling.spans[0]
        assert "و يبحث في أصول تكوين الجمّة وقواعد"[start:end] == "الجمّة"
        # The sentence still got a best-effort structure over the known words.
        (record,) = report.structures
        assert record.verdict.labels == ("Conjonction", "Verbe", "NomPluriel", "NomCommun", "NomPluriel")
        assert record.verdict.skipped == (2,)

    def test_only_unknown_words_no_structure_fault(self, engine):
        report = engine.analyze_text("كلمذة مجهولذة")
        assert kinds(report) == [FaultKind.SPELLING, FaultKind.SPELLING]

    def test_only_particles_no_structure_fault(self, engine):
        assert engine.analyze_text("في من على").faults == []

    def test_unmatched_sentence_gets_structure_fault_spanning_it(self, engine):
        text = "يذكر أن في مثل ذلك المكان"
        report = engine.analyze_text(text)
        assert kinds(report) == [FaultKind.STRUCTURE]
        start, end = report.faults[0].spans[0]
        assert text[start:end] == text
        (record,) = report.structures
        assert record.verdict.matched is False and record.verdict.rule_id is None

    def test_matched_sentence_records_its_rule(self, engine):
        report = engine.analyze_text("أنتم لم تذهبوا")
        (record,) = report.structures
        assert record.verdict.matched is True
        assert record.verdict.rule_id == "PronomPersonnel verbe"

    def test_vacuous_match_has_no_rule_id(self, engine):
        report = engine.analyze_text("في من")
        (record,) = report.structures
        assert record.verdict.matched is True and record.verdict.rule_id is None


@pytest.fixture(scope="module")
def fuzz_reports(engine):
    """Reports of the first 300 criterion-6 fuzz documents, each analyzed
    sequentially and with `parallel=True`."""
    rng = random.Random(424242)
    documents = [_fuzz_document(rng) for _ in range(300)]
    return [
        engine.analyze_text(document, parallel=parallel)
        for document in documents
        for parallel in (False, True)
    ]


class TestAnalyzeText:
    def test_empty_text(self, engine):
        report = engine.analyze_text("")
        assert report.faults == [] and report.structures == []
        assert report.stats == {"spelling": 0, "structure": 0, "conjugation": 0}

    def test_two_sentences_carry_their_indices(self, engine):
        text = "أنتم لم تذهبون. تذهبن إيمان"
        report = engine.analyze_text(text)
        assert [f.sentence_index for f in report.faults] == [0, 1]
        assert all(f.kind is FaultKind.CONJUGATION for f in report.faults)
        # Oracle: each half analyzed on its own yields the same single fault.
        for part in ("أنتم لم تذهبون", "تذهبن إيمان"):
            solo = engine.analyze_text(part)
            assert kinds(solo) == [FaultKind.CONJUGATION]

    def test_faults_ordered_by_sentence_span_then_kind(self, engine, fuzz_reports):
        text = "كلمذة ذلك المكان. و يبحث في الجمّة"
        report = engine.analyze_text(text)
        for each in [report] + fuzz_reports:
            keys = [
                (
                    f.sentence_index,
                    f.ordinal,
                    f.spans[0][0],
                    ["spelling", "structure", "conjugation"].index(f.kind.value),
                )
                for f in each.faults
            ]
            assert keys == sorted(keys)
        # Sentence 0: spelling on the first token ties with the structure
        # fault on span start; spelling ranks first.
        first_two = [f.kind for f in report.faults[:2]]
        assert first_two == [FaultKind.SPELLING, FaultKind.STRUCTURE]

    def test_every_fault_span_inside_its_sentence(self, engine, fuzz_reports):
        reports = [engine.analyze_text(text) for text in TABLE_TEXTS]
        for report in reports + fuzz_reports:
            # Record i is sentence i, so the renderers find a fault's sentence by index.
            assert [r.index for r in report.structures] == list(range(len(report.structures)))
            spans = {r.index: r.span for r in report.structures}
            for fault in report.faults:
                lo, hi = spans[fault.sentence_index]
                for start, end in fault.spans:
                    assert lo <= start < end <= hi

    def test_fault_span_shapes(self, engine, fuzz_reports):
        # Word faults carry exactly one span; structure faults cover the
        # whole sentence.
        reports = [engine.analyze_text(text) for text in TABLE_TEXTS]
        for report in reports + fuzz_reports:
            spans = {r.index: r.span for r in report.structures}
            for fault in report.faults:
                assert len(fault.spans) == 1
                if fault.kind is FaultKind.STRUCTURE:
                    assert fault.spans[0] == spans[fault.sentence_index]

    def test_reports_are_deterministic(self, engine):
        text = "\n\n".join(TABLE_TEXTS)
        first = render_json(engine.analyze_text(text))
        second = render_json(engine.analyze_text(text))
        assert first == second

    def test_parallel_equals_sequential(self, engine):
        text = ". ".join(TABLE_TEXTS)
        sequential = engine.analyze_text(text, parallel=False)
        parallel = engine.analyze_text(text, parallel=True)
        assert render_json(sequential) == render_json(parallel)
        # Fault equality includes `ordinal`, which the JSON does not show.
        assert sequential.faults == parallel.faults

    def test_repeated_sentence_faults_point_at_each_copy(self, engine):
        # One sentence with all three fault kinds, written four ways that
        # normalize to the same tokens at different original offsets.
        copies = [
            "و يبحث في أصول تكوين الجمّة، أنتم لم تذهبون",
            "و  يبحـــث في   أصول تكوين الجمّة ،أنتم لم تذهبون",
            "وَ يَبْحَثُ فِي أُصُولِ تَكْوِينِ الْجُمَّةِ، أَنْتُمْ لَمْ تَذْهَبُونَ",
            "و يبحث في أصول\nتكـوين الجمة، أنتم لم تذهبـون",
        ]
        separators = [". ", "؟\n", "\n\n"]
        document, offsets = "", []
        for copy, separator in zip(copies, separators + [""]):
            offsets.append(len(document))
            document += copy + separator
        sentences = split_sentences(normalize(document))
        assert len({tuple(t.surface for t in s.tokens) for s in sentences}) == 1
        assert len(sentences) == len(copies)

        report = engine.analyze_text(document)
        assert sorted({f.kind for f in report.faults}) == sorted(FaultKind)
        for k, (copy, offset) in enumerate(zip(copies, offsets)):
            (record,) = [r for r in report.structures if r.index == k]
            start, end = record.span
            assert offset <= start < end <= offset + len(copy)
            assert normalize(document[start:end]).normalized == normalize(copy).normalized
            for fault in (f for f in report.faults if f.sentence_index == k):
                (span,) = fault.spans
                if fault.kind is FaultKind.STRUCTURE:
                    assert span == record.span
                else:
                    surface = {FaultKind.SPELLING: "الجمة", FaultKind.CONJUGATION: "تذهبون"}
                    assert normalize(document[span[0] : span[1]]).normalized == surface[fault.kind]

        # Oracle: each copy analyzed alone, shifted to its place in the document.
        expected = {"faults": [], "structures": [], "stats": {}, "warnings": []}
        for k, (copy, offset) in enumerate(zip(copies, offsets)):
            solo = engine.analyze_text(copy).to_dict()
            for item in solo["faults"]:
                item["sentence"] += k
                item["spans"] = [[s + offset, e + offset] for s, e in item["spans"]]
                expected["faults"].append(item)
            for item in solo["structures"]:
                item["sentence"] += k
                item["span"] = [item["span"][0] + offset, item["span"][1] + offset]
                expected["structures"].append(item)
            for kind, count in solo["stats"].items():
                expected["stats"][kind] = expected["stats"].get(kind, 0) + count
            expected["warnings"] += solo["warnings"]
        assert report.to_dict() == expected
        parallel = engine.analyze_text(document, parallel=True)
        assert parallel.to_dict() == expected

    def test_stats_count_kinds(self, engine):
        report = engine.analyze_text("و يبحث في أصول تكوين الجمّة وقواعد")
        assert report.stats == {"spelling": 1, "structure": 1, "conjugation": 0}


class TestAnalysisCache:
    def test_cache_stays_bounded_and_analyses_unchanged(self):
        engine = Engine.default()
        cap = engine_module.ANALYSIS_CACHE_SIZE
        letters = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
        surfaces = [
            "".join(p) for p in itertools.islice(itertools.product(letters, repeat=4), cap + 1)
        ]
        first = [engine.analyses(surface).candidates for surface in surfaces]
        assert len(engine._analysis_cache) <= cap
        known = [i for i, analyses in enumerate(first) if analyses]
        assert known  # some four-letter strings are lexicon words
        for i in [0, *known, cap]:
            expected = tuple(analyze_word(surfaces[i], engine.lexicon, engine.affixes))
            assert first[i] == expected
            assert engine.analyses(surfaces[i]).candidates == expected
        assert len(engine._analysis_cache) <= cap


CONTENT_CATEGORIES = [
    "Verbe",
    "PronomPersonnel",
    "NomPropreFeminin",
    "NomPropreMasculin",
    "NomPluriel",
    "NomCommun",
    "Conjonction",
]
BASES = ["كتب", "درس", "سكن", "لعب", "فهم"]
# Words put between the matchable ones: a particle, the two negation
# particles and a word no lexicon holds.
EXTRAS = ["في", "لم", "لن", "qq"]


@st.composite
def sentence_worlds(draw):
    """A drawn lexicon and rule file, and sentences for an engine over them.

    Bases take one to three categories, so their words have several
    candidates, some of them particles. Sentences hold L-1 to L+2 words
    with a non-particle reading, L being the longest rule pattern, and a
    few extras between them.
    """
    entries = [
        LexicalEntry(word, Category(name), 0)
        for word, name in [("انتم", "PronomPersonnel"), ("هما", "PronomPersonnel")]
        + [(word, "Particule") for word in EXTRAS[:3]]
    ]
    for base in draw(st.lists(st.sampled_from(BASES), min_size=1, max_size=4, unique=True)):
        names = draw(
            st.lists(
                st.sampled_from(CONTENT_CATEGORIES + ["Particule"]),
                min_size=1,
                max_size=3,
                unique=True,
            ).filter(lambda names: names != ["Particule"])
        )
        entries += [LexicalEntry(base, Category(name), 0) for name in names]
    categories = [Category(name) for name in CONTENT_CATEGORIES + ["Particule"]]
    lexicon = Lexicon(entries, categories)

    rules = []
    for _ in range(draw(st.integers(1, 5))):
        pattern = draw(st.lists(st.sampled_from(CONTENT_CATEGORIES), min_size=1, max_size=4))
        mode = draw(st.sampled_from(["prefix", "exact"]))
        rules.append(f'<regle mode="{mode}">{" ".join(pattern)}</regle>')
    family = f"<ReglesPhrasesVerbales>{''.join(rules)}</ReglesPhrasesVerbales>"
    xml = f"<ReglesApplicables>{family}</ReglesApplicables>"
    structure_rules = load_structure_rules(io.StringIO(xml), lexicon.category_names())
    longest = max(len(rule.pattern) for rule in structure_rules)

    content = ["انتم", "هما"] + [
        prefix + entry.base + suffix
        for entry in entries
        if entry.base in BASES
        for prefix in ("", "ت", "ي")
        for suffix in ("", "ون", "وا")
    ]
    pool = draw(st.lists(st.sampled_from(sorted(set(content))), min_size=1, max_size=4))
    sentences = []
    for _ in range(draw(st.integers(1, 8))):
        width = draw(st.integers(max(1, longest - 1), longest + 2))
        words = draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width))
        for extra in draw(st.lists(st.sampled_from(EXTRAS), max_size=2)):
            words.insert(draw(st.integers(0, len(words))), extra)
        sentences.append(tuple(words))
    return lexicon, structure_rules, sentences


def fresh_copy(engine):
    """An engine over the same data files, with empty caches."""
    return Engine(
        engine.lexicon, engine.affixes, engine.structure_rules, engine.conjugation_rules, engine.options
    )


class TestStructureTable:
    @settings(max_examples=300, deadline=None)
    @given(sentence_worlds())
    def test_verdicts_equal_whole_sentence_disambiguation(self, engine, world):
        # One engine decides every sentence of the example, so a label key
        # stored from one sentence is reused by sentences of other widths.
        lexicon, structure_rules, sentences = world
        drawn = Engine(
            lexicon, engine.affixes, structure_rules, engine.conjugation_rules, engine.options
        )
        for surfaces in sentences:
            expected = oracle_sentence_verdict(drawn, surfaces)
            assert drawn.analyze_sentence(surfaces) == expected, surfaces

    def test_table_stays_bounded(self, engine, monkeypatch):
        monkeypatch.setattr(engine_module, "ANALYSIS_CACHE_SIZE", 8)
        small = fresh_copy(engine)
        words = ["يبحث", "ايمان", "ايمن", "هم", "مجموعة", "رغبات"]
        sentences = [s for n in (1, 2) for s in itertools.product(words, repeat=n)]
        keys = {tuple(small.analyses(word).labels for word in s) for s in sentences}
        assert len(keys) > 8
        for surfaces in sentences:
            verdict = small.analyze_sentence(surfaces)
            assert len(small._structures) <= 8
            assert verdict == fresh_copy(engine).analyze_sentence(surfaces)


    def test_threads_sharing_the_table_decide_as_one(self, engine, monkeypatch):
        # parallel=True runs one thread per chunk and all of them read, fill
        # and clear one structure table; a small table and a short switch
        # interval make the clears land between other threads' steps.
        monkeypatch.setattr(engine_module, "ANALYSIS_CACHE_SIZE", 8)
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 6)
        words = ["يبحث", "ايمان", "ايمن", "هم", "مجموعة", "رغبات", "انا", "في"]
        text = ". ".join(" ".join(s) for s in itertools.product(words, repeat=3))
        expected = render_json(fresh_copy(engine).analyze_text(text))
        shared = fresh_copy(engine)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with deadline(60):
                for _ in range(3):
                    assert render_json(shared.analyze_text(text, parallel=True)) == expected
                    assert len(shared._structures) <= 8 + 6
        finally:
            sys.setswitchinterval(interval)


class TestConjugationGuard:
    def test_check_conjugation_requires_a_verb(self, engine):
        sentence = split_sentences(normalize("في المكان"))[0]
        tagged = tag_known_words(engine, sentence.tokens)
        assert len(tagged) == len(sentence.tokens)
        disambiguate(tagged, engine.structure_rules)
        chosen = [t.candidates[t.chosen] for t in tagged]
        with pytest.raises(ValueError, match="no chosen verb"):
            check_conjugation(
                tuple(t.surface for t in sentence.tokens), chosen, engine.conjugation_rules
            )

    def test_never_called_without_a_verb_label(self, engine, monkeypatch):
        calls = []
        real = engine_module.check_conjugation

        def counting(surfaces, chosen, rules, *args, **kwargs):
            calls.append(surfaces)
            return real(surfaces, chosen, rules, *args, **kwargs)

        monkeypatch.setattr(engine_module, "check_conjugation", counting)
        engine.analyze_text("التسويق هو مجموعة من العمليات والأنشطة")  # no verb
        assert calls == []
        engine.analyze_text("تذهب إيمان")  # verb present
        assert calls == [("تذهب", "ايمان")]

    def test_missing_rule_is_a_warning_not_a_fault(self, engine):
        tiny_rules = load_conjugation_rules(
            io.StringIO(
                '<PronomPersonnel valeur="أنتم">'
                "<PresentSimple><prebase>ت</prebase><PostBase>ون</PostBase></PresentSimple>"
                "</PronomPersonnel>"
            )
        )
        partial = Engine(
            engine.lexicon,
            engine.affixes,
            engine.structure_rules,
            tiny_rules,
            engine.options,
        )
        report = partial.analyze_text("يبحث في أصول تكوين الجملة وقواعد الإعراب")
        assert report.faults == []
        assert len(report.warnings) == 1
        assert "sans-sujet" in report.warnings[0]


class TestStructureFaultCondition:
    def test_structure_fault_iff_unmatched_with_matchable_words(self, engine):
        # Brute-force agreement: for every corpus sentence, a structure
        # fault appears exactly when no candidate assignment over the known
        # words matches any rule and some non-skipped word remains.
        for text in TABLE_TEXTS:
            nt = normalize(text)
            for sentence in split_sentences(nt):
                tagged = tag_known_words(engine, sentence.tokens)
                matchable = oracle_any_assignment_matches(
                    tagged, engine.structure_rules
                )
                has_active = any(
                    not all(c.category.name == "Particule" for c in t.candidates)
                    for t in tagged
                )
                report = engine.analyze_text(text)
                fault_expected = (not matchable) and has_active
                fault_present = any(
                    f.kind is FaultKind.STRUCTURE
                    and f.sentence_index == sentence.index
                    for f in report.faults
                )
                assert fault_present == fault_expected, text


class TestRuleSetMonotonicity:
    def test_adding_rules_never_adds_structure_faults(self, engine):
        rng = random.Random(5)
        pool = [
            "Verbe",
            "NomCommun",
            "NomPluriel",
            "NomPropreFeminin",
            "NomPropreMasculin",
            "PronomPersonnel",
            "Conjonction",
            "Demonstratif",
            "Particule",
        ]
        text = "\n\n".join(TABLE_TEXTS)
        base_report = engine.analyze_text(text)
        base_faults = {
            f.sentence_index for f in base_report.faults if f.kind is FaultKind.STRUCTURE
        }
        for trial in range(20):
            pattern = tuple(rng.choices(pool, k=rng.randrange(1, 4)))
            extra = StructureRule(id=f"extra-{trial}", kind="Nominal", pattern=pattern)
            grown = Engine(
                engine.lexicon,
                engine.affixes,
                engine.structure_rules + [extra],
                engine.conjugation_rules,
                engine.options,
            )
            grown_report = grown.analyze_text(text)
            grown_faults = {
                f.sentence_index
                for f in grown_report.faults
                if f.kind is FaultKind.STRUCTURE
            }
            assert grown_faults <= base_faults, pattern
