import itertools
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import arabiclint.tagging as tagging_module
from arabiclint import Engine, FaultKind, MatchOutcome, disambiguate, normalize, split_sentences
from arabiclint.rules import StructureRule

from helpers import (
    deadline,
    oracle_any_assignment_matches,
    oracle_first_assignment,
    synthetic_tagged,
    tag_known_words,
)


class TestDisambiguate:
    def test_verb_feminine_pair_matches(self, engine):
        tagged = tag_known_words(engine, split_sentences(normalize("تذهب إيمان"))[0].tokens)
        structure, outcome = disambiguate(tagged, engine.structure_rules)
        assert structure.labels == ("Verbe", "NomPropreFeminin")
        assert outcome == MatchOutcome.for_rule("verbe NomPropreFeminin")
        assert [t.chosen for t in tagged] == [0, 0]

    def test_single_token_without_length_one_rule_is_unmatched(self):
        tagged = [synthetic_tagged(0, ["X"])]
        rules = [StructureRule(id="X Y", kind="Nominal", pattern=("X", "Y"))]
        structure, outcome = disambiguate(tagged, rules)
        assert not outcome.matched
        assert structure.labels == ("X",)
        assert tagged[0].chosen == 0

    def test_ambiguity_resolved_by_the_rule(self):
        # Second token reads as proper noun or verb; only the verb reading
        # completes the nominal pattern.
        tagged = [
            synthetic_tagged(0, ["NomPropreFeminin"]),
            synthetic_tagged(1, ["NomPropreMasculin", "Verbe"]),
        ]
        rules = [
            StructureRule(
                id="NomPropreFeminin verbe",
                kind="Nominal",
                pattern=("NomPropreFeminin", "Verbe"),
            )
        ]
        structure, outcome = disambiguate(tagged, rules)
        assert outcome.matched
        assert structure.labels == ("NomPropreFeminin", "Verbe")
        assert tagged[1].candidates[tagged[1].chosen].category.name == "Verbe"

    def test_function_words_are_skipped(self):
        tagged = [
            synthetic_tagged(0, ["Verbe"]),
            synthetic_tagged(1, ["Particule"]),
            synthetic_tagged(2, ["NomPluriel"]),
        ]
        rules = [StructureRule(id="v p", kind="Verbal", pattern=("Verbe", "NomPluriel"))]
        structure, outcome = disambiguate(tagged, rules)
        assert outcome.matched
        assert structure.labels == ("Verbe", "NomPluriel")
        assert structure.skipped == (1,)
        assert tagged[1].chosen == 0

    def test_token_with_mixed_candidates_is_not_skipped(self):
        tagged = [synthetic_tagged(0, ["Particule", "NomCommun"])]
        rules = [StructureRule(id="n", kind="Nominal", pattern=("NomCommun",))]
        structure, outcome = disambiguate(tagged, rules)
        assert structure.skipped == ()
        assert outcome.matched

    def test_all_particles_is_vacuously_matched(self):
        tagged = [synthetic_tagged(0, ["Particule"]), synthetic_tagged(1, ["Particule"])]
        rules = [StructureRule(id="n", kind="Nominal", pattern=("NomCommun",))]
        structure, outcome = disambiguate(tagged, rules)
        assert outcome.matched and outcome.rule_id is None
        assert structure.labels == ()
        assert structure.skipped == (0, 1)

    def test_empty_sentence_is_vacuously_matched(self):
        structure, outcome = disambiguate([], [])
        assert outcome.matched and structure.labels == ()

    def test_deterministic_across_runs(self):
        def build():
            return [
                synthetic_tagged(0, ["X", "Y", "Z"]),
                synthetic_tagged(1, ["Y", "X"]),
                synthetic_tagged(2, ["Z", "Y"]),
            ]

        rules = [
            StructureRule(id="r1", kind="Nominal", pattern=("Y", "X", "Z")),
            StructureRule(id="r2", kind="Nominal", pattern=("X", "Y")),
        ]
        outcomes = set()
        chosens = set()
        for _ in range(5):
            tagged = build()
            structure, outcome = disambiguate(tagged, rules)
            outcomes.add((structure.labels, outcome.rule_id))
            chosens.add(tuple(t.chosen for t in tagged))
        assert len(outcomes) == 1 and len(chosens) == 1

    def test_first_match_in_lexicographic_order(self):
        # Both (X ...) and (Y ...) assignments match; the lexicographically
        # first assignment (leftmost token on its first candidate) wins.
        tagged = [synthetic_tagged(0, ["X", "Y"])]
        rules = [
            StructureRule(id="y", kind="Nominal", pattern=("Y",)),
            StructureRule(id="x", kind="Nominal", pattern=("X",)),
        ]
        structure, outcome = disambiguate(tagged, rules)
        assert outcome.rule_id == "x"
        assert tagged[0].chosen == 0

    def test_every_token_has_chosen_set_even_when_unmatched(self):
        tagged = [
            synthetic_tagged(0, ["X", "Y"]),
            synthetic_tagged(1, ["Particule"]),
            synthetic_tagged(2, ["Z"]),
        ]
        structure, outcome = disambiguate(tagged, [])
        assert not outcome.matched
        assert all(t.chosen == 0 for t in tagged)

    def test_lazy_enumeration_stops_at_first_match(self, monkeypatch):
        calls = []
        real_match = tagging_module.match_structure

        def counting_match(structure, rules):
            calls.append(1)
            return real_match(structure, rules)

        monkeypatch.setattr(tagging_module, "match_structure", counting_match)
        # 3^9 = 19683 possible assignments, far above the 10^4 cap; the very
        # first assignment matches, so exactly one is ever built.
        tagged = [synthetic_tagged(i, ["X", "Y", "Z"]) for i in range(9)]
        rules = [StructureRule(id="x", kind="Nominal", pattern=("X",))]
        structure, outcome = disambiguate(tagged, rules)
        assert outcome.matched
        assert len(calls) == 1

    def test_soundness_against_exhaustive_enumeration(self):
        categories = ["X", "Y", "Z", "Particule"]
        families = [
            ["X"], ["Y"], ["Z"], ["Particule"],
            ["X", "Y"], ["Y", "Z"], ["X", "Y", "Z"],
        ]
        rules = [
            StructureRule(id="xy", kind="Nominal", pattern=("X", "Y")),
            StructureRule(id="z", kind="Verbal", pattern=("Z",)),
            StructureRule(id="yyx", kind="Nominal", pattern=("Y", "Y", "X")),
            StructureRule(id="xx!", kind="Nominal", pattern=("X", "X"), exact=True),
        ]
        checked = 0
        for length in range(4):
            for combo in itertools.product(families, repeat=length):
                tagged = [synthetic_tagged(i, names) for i, names in enumerate(combo)]
                oracle = oracle_any_assignment_matches(tagged, rules)
                structure, outcome = disambiguate(tagged, rules)
                assert outcome.matched == oracle, combo
                checked += 1
        assert checked == 1 + 7 + 49 + 343

    # Candidate lists may repeat a category name: the index, not the label,
    # decides which analysis the conjugation check sees.
    @settings(max_examples=400, deadline=None)
    @given(
        words=st.lists(
            st.lists(st.sampled_from(["X", "Y", "Z", "Particule"]), min_size=1, max_size=3),
            max_size=6,
        ),
        rules=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["X", "Y", "Z", "Particule"]), min_size=1, max_size=4),
                st.booleans(),
            ),
            max_size=6,
        ),
    )
    def test_equals_the_lexicographic_product(self, words, rules):
        rule_set = [
            StructureRule(id=f"r{i}", kind="Nominal", pattern=tuple(pattern), exact=exact)
            for i, (pattern, exact) in enumerate(rules)
        ]
        tagged = [synthetic_tagged(i, names) for i, names in enumerate(words)]
        expected_chosen, expected_labels, expected_outcome = oracle_first_assignment(
            tagged, rule_set
        )
        structure, outcome = disambiguate(tagged, rule_set)
        assert [t.chosen for t in tagged] == expected_chosen
        assert structure.labels == expected_labels
        assert outcome == expected_outcome

    def test_unmatched_ambiguity_ladder_is_linear(self):
        # و then 40 words that read as pronoun or particle: 2**40 assignments,
        # none of which any bundled rule accepts.
        engine = Engine.default()
        text = "و " + " ".join(["انا"] * 40)
        with deadline(seconds=2):
            started = time.perf_counter()
            report = engine.analyze_text(text)
            elapsed = time.perf_counter() - started
        assert elapsed < 0.05, f"{elapsed:.3f}s"
        assert [f.kind for f in report.faults] == [FaultKind.STRUCTURE]
