import io

import pytest

from arabiclint import (
    MatchOutcome,
    RuleLoadError,
    load_conjugation_rules,
    load_structure_rules,
    match_structure,
)
from arabiclint.rules import StructureRule

KNOWN = {
    "Verbe",
    "NomPropreFeminin",
    "NomPropreMasculin",
    "NomPluriel",
    "NomCommun",
    "PronomPersonnel",
}

FIVE_RULES_XML = """
<ReglesApplicables>
  <ReglesPhrasesVerbales>
    <regle>verbe NomPropreFeminin </regle>
    <regle>verbe NomPropreMasculin </regle>
    <regle>verbe NomPluriel </regle>
  </ReglesPhrasesVerbales>
  <ReglesPhrasesNominales>
    <regle>NomPropreFeminin verbe </regle>
    <regle>NomPropreMasculin verbe </regle>
  </ReglesPhrasesNominales>
</ReglesApplicables>
"""

PRONOUN_TABLE_XML = """
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
"""


class TestLoadStructureRules:
    def test_five_rules_three_verbal_two_nominal(self):
        rules = load_structure_rules(io.StringIO(FIVE_RULES_XML), KNOWN)
        assert len(rules) == 5
        assert sum(1 for r in rules if r.kind == "Verbal") == 3
        assert sum(1 for r in rules if r.kind == "Nominal") == 2

    def test_trailing_space_trimmed_and_verbe_resolved(self):
        rules = load_structure_rules(io.StringIO(FIVE_RULES_XML), KNOWN)
        first = rules[0]
        assert first.id == "verbe NomPropreFeminin"
        assert first.pattern == ("Verbe", "NomPropreFeminin")
        assert first.exact is False

    def test_unknown_category_is_an_error(self):
        xml = (
            "<ReglesApplicables><ReglesPhrasesNominales>"
            "<regle>Adjectif verbe</regle>"
            "</ReglesPhrasesNominales></ReglesApplicables>"
        )
        with pytest.raises(RuleLoadError) as excinfo:
            load_structure_rules(io.StringIO(xml), KNOWN)
        assert "Adjectif" in str(excinfo.value)
        assert "Adjectif verbe" in str(excinfo.value)

    def test_name_matching_case_twins_is_an_error(self):
        # With both Verbe and VERBE, "verbe" used to take whichever the set
        # of category names yielded last under the hash seed.
        xml = (
            "<ReglesApplicables><ReglesPhrasesVerbales>"
            "<regle>verbe NomCommun</regle>"
            "</ReglesPhrasesVerbales></ReglesApplicables>"
        )
        with pytest.raises(RuleLoadError) as excinfo:
            load_structure_rules(io.StringIO(xml), KNOWN | {"VERBE"})
        assert "'verbe'" in str(excinfo.value)
        assert "VERBE, Verbe" in str(excinfo.value)
        # An exact name still resolves beside its case twin.
        (rule,) = load_structure_rules(io.StringIO(xml.replace("verbe", "Verbe")), KNOWN | {"VERBE"})
        assert rule.pattern == ("Verbe", "NomCommun")

    def test_empty_rule_set_is_an_error(self):
        xml = "<ReglesApplicables><ReglesPhrasesVerbales></ReglesPhrasesVerbales></ReglesApplicables>"
        with pytest.raises(RuleLoadError, match="empty"):
            load_structure_rules(io.StringIO(xml), KNOWN)

    def test_unknown_family_is_an_error(self):
        xml = "<ReglesApplicables><Autres><regle>verbe</regle></Autres></ReglesApplicables>"
        with pytest.raises(RuleLoadError, match="Autres"):
            load_structure_rules(io.StringIO(xml), KNOWN)

    def test_exact_mode_attribute(self):
        xml = (
            "<ReglesApplicables><ReglesPhrasesVerbales>"
            '<regle mode="exact">verbe NomPluriel</regle>'
            "</ReglesPhrasesVerbales></ReglesApplicables>"
        )
        (rule,) = load_structure_rules(io.StringIO(xml), KNOWN)
        assert rule.exact is True

    def test_unknown_mode_is_an_error(self):
        xml = (
            "<ReglesApplicables><ReglesPhrasesVerbales>"
            '<regle mode="fuzzy">verbe</regle>'
            "</ReglesPhrasesVerbales></ReglesApplicables>"
        )
        with pytest.raises(RuleLoadError, match="fuzzy"):
            load_structure_rules(io.StringIO(xml), KNOWN)

    def test_wrong_root_is_an_error(self):
        with pytest.raises(RuleLoadError, match="ReglesApplicables"):
            load_structure_rules(io.StringIO("<Regles></Regles>"), KNOWN)


class TestMatchStructure:
    def test_exact_pair_matches(self):
        rules = load_structure_rules(io.StringIO(FIVE_RULES_XML), KNOWN)
        outcome = match_structure(("Verbe", "NomPropreFeminin"), rules)
        assert outcome == MatchOutcome.for_rule("verbe NomPropreFeminin")

    def test_empty_labels_match_vacuously(self):
        rules = load_structure_rules(io.StringIO(FIVE_RULES_XML), KNOWN)
        outcome = match_structure((), rules)
        assert outcome.matched and outcome.rule_id is None

    def test_prefix_semantics(self):
        rules = load_structure_rules(io.StringIO(FIVE_RULES_XML), KNOWN)
        longer = ("Verbe", "NomPluriel", "NomCommun", "NomCommun")
        assert match_structure(longer, rules) == MatchOutcome.for_rule("verbe NomPluriel")

    def test_exact_rule_rejects_longer_sequences(self):
        rule = StructureRule(
            id="verbe NomPluriel", kind="Verbal", pattern=("Verbe", "NomPluriel"), exact=True
        )
        assert match_structure(("Verbe", "NomPluriel"), [rule]).matched
        assert not match_structure(("Verbe", "NomPluriel", "NomCommun"), [rule]).matched

    def test_unmatched(self):
        rules = load_structure_rules(io.StringIO(FIVE_RULES_XML), KNOWN)
        assert match_structure(("NomCommun",), rules) == MatchOutcome.unmatched()

    def test_first_matching_rule_wins(self):
        rules = [
            StructureRule(id="a", kind="Verbal", pattern=("Verbe",)),
            StructureRule(id="b", kind="Verbal", pattern=("Verbe", "NomCommun")),
        ]
        assert match_structure(("Verbe", "NomCommun"), rules).rule_id == "a"


class TestLoadConjugationRules:
    def test_pronoun_entry_yields_two_rules(self):
        rules = load_conjugation_rules(io.StringIO(PRONOUN_TABLE_XML))
        assert len(rules) == 2
        simple = rules.lookup("انتم", "PresentSimple")
        negation = rules.lookup("انتم", "PresentNegation")
        assert (simple.prebase, simple.postbase) == ("ت", "ون")
        assert (negation.prebase, negation.postbase) == ("ت", "وا")

    def test_keys_are_normalized(self):
        rules = load_conjugation_rules(io.StringIO(PRONOUN_TABLE_XML))
        assert rules.lookup("أنتم", "PresentSimple") is None
        assert rules.lookup("انتم", "PresentSimple") is not None

    def test_duplicate_tense_is_an_error(self):
        xml = (
            '<PronomPersonnel valeur="هو">'
            "<PresentSimple><prebase>ي</prebase><PostBase></PostBase></PresentSimple>"
            "<PresentSimple><prebase>ي</prebase><PostBase></PostBase></PresentSimple>"
            "</PronomPersonnel>"
        )
        with pytest.raises(RuleLoadError, match="duplicate"):
            load_conjugation_rules(io.StringIO(xml))

    def test_missing_postbase_is_an_error(self):
        xml = (
            '<PronomPersonnel valeur="هو">'
            "<PresentSimple><prebase>ي</prebase></PresentSimple>"
            "</PronomPersonnel>"
        )
        with pytest.raises(RuleLoadError, match="PostBase"):
            load_conjugation_rules(io.StringIO(xml))

    def test_feature_extension_entry(self):
        xml = (
            '<ReglesConjugaison><PronomPersonnel valeur="feminin-singulier">'
            "<PresentSimple><prebase>ت</prebase><PostBase></PostBase></PresentSimple>"
            "</PronomPersonnel></ReglesConjugaison>"
        )
        rules = load_conjugation_rules(io.StringIO(xml))
        assert len(rules) == 1
        rule = rules.lookup("feminin-singulier", "PresentSimple")
        assert rule.postbase == ""

    def test_no_subject_entry_with_wildcard_prebase(self):
        xml = (
            '<ReglesConjugaison><PronomPersonnel valeur="sans-sujet">'
            "<PresentSimple><prebase>*</prebase><PostBase></PostBase></PresentSimple>"
            "</PronomPersonnel></ReglesConjugaison>"
        )
        rules = load_conjugation_rules(io.StringIO(xml))
        rule = rules.lookup("sans-sujet", "PresentSimple")
        assert rule.prebase == "*"

    def test_unknown_tense_is_an_error(self):
        xml = (
            '<PronomPersonnel valeur="هو">'
            "<Past><prebase>ي</prebase><PostBase></PostBase></Past>"
            "</PronomPersonnel>"
        )
        with pytest.raises(RuleLoadError, match="Past"):
            load_conjugation_rules(io.StringIO(xml))

    def test_missing_valeur_is_an_error(self):
        xml = "<PronomPersonnel><PresentSimple><prebase>ي</prebase><PostBase></PostBase></PresentSimple></PronomPersonnel>"
        with pytest.raises(RuleLoadError, match="valeur"):
            load_conjugation_rules(io.StringIO(xml))

    def test_empty_table_is_an_error(self):
        with pytest.raises(RuleLoadError, match="empty"):
            load_conjugation_rules(io.StringIO("<ReglesConjugaison></ReglesConjugaison>"))

    def test_shipped_table_covers_the_agreement_keys(self, engine):
        rules = engine.conjugation_rules
        for key in ("انتم", "هم", "هما", "هو", "feminin-singulier",
                    "masculin-singulier", "pluriel", "sans-sujet"):
            for tense in ("PresentSimple", "PresentNegation"):
                assert rules.lookup(key, tense) is not None, (key, tense)
