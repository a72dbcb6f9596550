import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arabiclint import (
    AffixInventory,
    AffixLoadError,
    Category,
    LexicalEntry,
    Lexicon,
    LexiconLoadError,
    SpellingVerdict,
    analyze_word,
    check_spelling,
    data_path,
    load_affixes,
    load_lexicon,
    normalize,
)

from helpers import oracle_splits

PROPER_NOUNS_XML = """
<MOTS>
  <Noms>
    <NomsPropres>
      <NomsPropresFeminins>
        <NomPropreFeminin> أسماء </NomPropreFeminin>
        <NomPropreFeminin> أمل </NomPropreFeminin>
        <NomPropreFeminin> إيمان </NomPropreFeminin>
      </NomsPropresFeminins>
    </NomsPropres>
  </Noms>
</MOTS>
"""


class TestLoadLexicon:
    def test_three_feminine_proper_nouns(self):
        lexicon = load_lexicon(io.StringIO(PROPER_NOUNS_XML))
        assert len(lexicon) == 3
        assert {e.category.name for e in lexicon.entries} == {"NomPropreFeminin"}
        assert {e.base for e in lexicon.entries} == {"اسماء", "امل", "ايمان"}

    def test_ancestry_mirrors_nesting(self):
        lexicon = load_lexicon(io.StringIO(PROPER_NOUNS_XML))
        (category,) = lexicon.categories
        assert category.ancestry == ("Noms", "NomsPropres", "NomsPropresFeminins")

    def test_duplicate_entry_collapses_with_warning(self):
        xml = "<MOTS><Verbes><Verbe>ذهب</Verbe><Verbe>ذهب</Verbe></Verbes></MOTS>"
        lexicon = load_lexicon(io.StringIO(xml))
        assert len(lexicon) == 1
        assert len(lexicon.warnings) == 1
        assert "ذهب" in lexicon.warnings[0]

    def test_same_word_in_two_categories_is_kept_twice(self):
        xml = (
            "<MOTS><Verbes><Verbe>أكرم</Verbe></Verbes>"
            "<Noms><NomPropreMasculin>أكرم</NomPropreMasculin></Noms></MOTS>"
        )
        lexicon = load_lexicon(io.StringIO(xml))
        assert len(lexicon) == 2
        assert len(lexicon.lookup_base("اكرم")) == 2
        # Both readings are candidates, in lexicon file order.
        affixes = load_affixes(io.StringIO("prefixes =\nsuffixes ="))
        assert [a.category.name for a in analyze_word("اكرم", lexicon, affixes)] == [
            "Verbe",
            "NomPropreMasculin",
        ]

    def test_empty_document_is_an_error(self):
        with pytest.raises(LexiconLoadError, match="empty lexicon"):
            load_lexicon(io.StringIO("<MOTS></MOTS>"))

    def test_multiple_words_in_a_leaf_is_an_error(self):
        xml = "<MOTS><Verbes><Verbe>ذهب كتب</Verbe></Verbes></MOTS>"
        with pytest.raises(LexiconLoadError, match="Verbe"):
            load_lexicon(io.StringIO(xml))

    def test_malformed_xml_reports_the_line(self):
        with pytest.raises(LexiconLoadError, match="line"):
            load_lexicon(io.StringIO("<MOTS>\n<oops\n</MOTS>"))

    def test_category_under_two_groupings_is_an_error(self):
        xml = (
            "<MOTS><A><Verbe>ذهب</Verbe></A><B><Verbe>كتب</Verbe></B></MOTS>"
        )
        with pytest.raises(LexiconLoadError, match="grouping"):
            load_lexicon(io.StringIO(xml))

    def test_entries_are_normalized(self):
        xml = "<MOTS><Verbes><Verbe>أَخَذَ</Verbe></Verbes></MOTS>"
        lexicon = load_lexicon(io.StringIO(xml))
        assert lexicon.entries[0].base == "اخذ"

    def test_missing_file_is_a_load_error(self, tmp_path):
        with pytest.raises(LexiconLoadError, match="cannot read"):
            load_lexicon(tmp_path / "missing.xml")


class TestLoadAffixes:
    def test_shipped_inventory_shape(self, affixes):
        assert "" in affixes.prefixes and "" in affixes.suffixes
        assert "وال" in affixes.prefixes
        assert "ا" in affixes.verb_postbases  # dual marker under negation
        assert {"ا", "ن", "ت", "ي"} <= affixes.verb_prebases

    def test_unknown_key_is_an_error(self):
        with pytest.raises(AffixLoadError, match="unknown key"):
            load_affixes(io.StringIO("stems = ا ب"))

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(AffixLoadError, match="twice"):
            load_affixes(io.StringIO("prefixes = و\nprefixes = ف\nsuffixes = ة"))

    def test_missing_required_key_is_an_error(self):
        with pytest.raises(AffixLoadError, match="prefixes"):
            load_affixes(io.StringIO("suffixes = ة"))

    def test_terminator_in_affix_is_an_error(self):
        with pytest.raises(AffixLoadError, match="terminator"):
            load_affixes(io.StringIO("prefixes = و.\nsuffixes = ة"))

    def test_comments_and_blank_lines_ignored(self):
        inventory = load_affixes(io.StringIO("# c\n\nprefixes = و # tail\nsuffixes = ة\n"))
        assert inventory.prefixes == frozenset({"", "و"})

    def test_path_with_equals_sign_is_read_as_a_path(self, tmp_path, affixes):
        directory = tmp_path / "a=b"
        directory.mkdir()
        path = directory / "affixes.txt"
        path.write_bytes(data_path("affixes.txt").read_bytes())
        assert load_affixes(str(path)) == affixes
        assert load_affixes(path) == affixes

    def test_empty_affix_always_available(self):
        inventory = AffixInventory(
            prefixes=frozenset({"", "و"}), suffixes=frozenset({"", "ة"})
        )
        assert "" in inventory.all_prefixes() and "" in inventory.all_suffixes()


class TestAnalyzeWord:
    def test_verb_with_prebase_and_postbase(self, lexicon, affixes):
        for word, suffix in (("تذهبون", "ون"), ("تذهب", "")):
            analyses = analyze_word(word, lexicon, affixes)
            assert [(a.prefix, a.base, a.suffix, a.category.name) for a in analyses] == [
                ("ت", "ذهب", suffix, "Verbe")
            ], word

    def test_bare_proper_noun(self, lexicon, affixes):
        for raw in ("أمل", "إيمان"):
            word = normalize(raw).normalized
            analyses = analyze_word(word, lexicon, affixes)
            assert [(a.prefix, a.base, a.suffix, a.category.name) for a in analyses] == [
                ("", word, "", "NomPropreFeminin")
            ], raw

    def test_conjunction_prefix_on_plural(self, lexicon, affixes):
        word = normalize("وقواعد").normalized
        analyses = analyze_word(word, lexicon, affixes)
        assert [(a.prefix, a.base, a.suffix, a.category.name) for a in analyses] == [
            ("و", "قواعد", "", "NomPluriel")
        ]
        assert {(a.prefix, a.base, a.suffix, a.category.name) for a in analyses} == (
            oracle_splits(word, lexicon, affixes)
        )

    def test_reassembly_invariant(self, lexicon, affixes):
        for word in ("تذهبون", "وقواعد", "الجملة", "والانشطة", "ياخذ"):
            for analysis in analyze_word(word, lexicon, affixes):
                assert analysis.prefix + analysis.base + analysis.suffix == word

    def test_ordering_longest_base_first(self, lexicon, affixes):
        # هما is both a pronoun entry and هم + the dual postbase ا.
        analyses = analyze_word("هما", lexicon, affixes)
        assert [(a.prefix, a.base, a.suffix) for a in analyses] == [
            ("", "هما", ""),
            ("", "هم", "ا"),
        ]

    def test_analyses_hold_the_inventory_affix_strings(self, lexicon, affixes):
        # The engine caches analyses for every word it sees; each must point
        # at the inventory's affix strings, not at copies sliced from the word.
        inventory = affixes.all_prefixes() | affixes.all_suffixes()
        (analysis,) = analyze_word("تذهبون", lexicon, affixes)
        assert any(analysis.prefix is affix for affix in inventory)
        assert any(analysis.suffix is affix for affix in inventory)

    def test_empty_word_rejected(self, lexicon, affixes):
        with pytest.raises(ValueError):
            analyze_word("", lexicon, affixes)

    def test_matches_oracle_on_table_vocabulary(self, engine, lexicon, affixes):
        words = """
            يبحث في أصول تكوين الجملة وقواعد الإعراب و الجمّة يتكون جسم
            الإنسان من أجهزة مختلفة الوظائف التسويق هو مجموعة العمليات
            والأنشطة أو الأنشطة تشبعوا رغبات العملاء أنتم لم تذهبون تذهبوا
            ياخذ إيمان أقراص أيمن تذهبن تذهب هما لن يذهبان يكتبوا هم
            النحو العربي علم تبحث يذكر أن مثل ذلك المكان أيمن يذهب
        """.split()
        for raw in words:
            word = normalize(raw).normalized
            got = {
                (a.prefix, a.base, a.suffix, a.category.name)
                for a in analyze_word(word, lexicon, affixes)
            }
            assert got == oracle_splits(word, lexicon, affixes), raw

    @settings(max_examples=300)
    @given(st.data())
    def test_constructed_words_found(self, lexicon, affixes, data):
        prefix = data.draw(st.sampled_from(sorted(affixes.all_prefixes())))
        suffix = data.draw(st.sampled_from(sorted(affixes.all_suffixes())))
        base = data.draw(st.sampled_from(sorted({e.base for e in lexicon.entries})))
        word = prefix + base + suffix
        found = {
            (a.prefix, a.base, a.suffix) for a in analyze_word(word, lexicon, affixes)
        }
        assert (prefix, base, suffix) in found
        got = {
            (a.prefix, a.base, a.suffix, a.category.name)
            for a in analyze_word(word, lexicon, affixes)
        }
        assert got == oracle_splits(word, lexicon, affixes)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_order_matches_sorted_oracle_on_generated_data(self, data):
        # A six-letter alphabet makes affixes and bases collide often.
        letters = st.text("البوهم", min_size=1, max_size=3)
        extra = lambda: data.draw(st.frozensets(letters, max_size=4))
        # Overlapping multi-letter prefixes are always present, and an affix
        # of six letters or more is longer than most words drawn below.
        long_affix = data.draw(st.text("البوهم", min_size=6, max_size=7))
        affixes = AffixInventory(
            prefixes=frozenset({"", "ال", "وال", "بال"}) | extra(),
            suffixes=frozenset({"", long_affix}) | extra(),
            verb_prebases=frozenset({""}) | extra(),
            verb_postbases=frozenset({""}) | extra(),
        )
        # One base spelled like an affix, one listed under two categories.
        affix_base = data.draw(st.sampled_from(sorted(affixes.all_prefixes() - {""})))
        twice = data.draw(letters)
        pairs = [(affix_base, "X"), (twice, "X"), (twice, "Y")]
        pairs += data.draw(st.lists(st.tuples(letters, st.sampled_from("XYZ")), max_size=8))
        categories = {name: Category(name=name) for name in "XYZ"}
        entries, seen = [], set()
        for base, name in pairs:
            if (base, name) not in seen:
                seen.add((base, name))
                entries.append(LexicalEntry(base, categories[name], len(entries)))
        lexicon = Lexicon(entries, categories.values())

        if data.draw(st.booleans()):
            pick = lambda pool: data.draw(st.sampled_from(sorted(pool)))
            bases = {base for base, _ in pairs}
            word = pick(affixes.all_prefixes()) + pick(bases) + pick(affixes.all_suffixes())
        else:
            word = data.draw(st.text("البوهم", min_size=1, max_size=8))
        order = {(e.base, e.category.name): e.order for e in entries}
        expected = sorted(
            oracle_splits(word, lexicon, affixes),
            key=lambda s: (-len(s[1]), len(s[0]), order[s[1], s[3]]),
        )
        got = [
            (a.prefix, a.base, a.suffix, a.category.name)
            for a in analyze_word(word, lexicon, affixes)
        ]
        assert got == expected


class TestCheckSpelling:
    def test_word_with_removed_shadda_is_unknown(self, lexicon, affixes):
        word = normalize("الجمّة").normalized
        assert check_spelling(word, lexicon, affixes) is SpellingVerdict.UNKNOWN

    def test_proper_noun_is_correct(self, lexicon, affixes):
        word = normalize("إيمان").normalized
        assert check_spelling(word, lexicon, affixes) is SpellingVerdict.CORRECT

    def test_definite_noun_is_correct(self, lexicon, affixes):
        word = normalize("الإعراب").normalized
        assert check_spelling(word, lexicon, affixes) is SpellingVerdict.CORRECT

    def test_every_word_of_the_clean_sentence_passes(self, lexicon, affixes):
        for raw in "يبحث في أصول تكوين الجملة وقواعد الإعراب".split():
            word = normalize(raw).normalized
            assert check_spelling(word, lexicon, affixes) is SpellingVerdict.CORRECT, raw

    def test_verdict_iff_analysis_nonempty(self, lexicon, affixes):
        rng = random.Random(11)
        alphabet = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
        for _ in range(500):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12)))
            verdict = check_spelling(word, lexicon, affixes)
            analyses = analyze_word(word, lexicon, affixes)
            assert (verdict is SpellingVerdict.CORRECT) == bool(analyses)
            assert bool(oracle_splits(word, lexicon, affixes)) == bool(analyses)

    def test_membership_is_order_insensitive(self):
        entries = [
            "<Verbe>ذهب</Verbe>",
            "<NomCommun>جملة</NomCommun>",
            "<NomPluriel>قواعد</NomPluriel>",
            "<PronomPersonnel>هم</PronomPersonnel>",
        ]
        affixes = load_affixes(
            io.StringIO("prefixes = و ال\nsuffixes = ة ون\nverb_prebases = ي ت")
        )
        words = ["يذهب", "الجملة", "وقواعد", "هم", "تذهبون", "غريب"]
        verdicts = []
        rng = random.Random(3)
        for _ in range(6):
            rng.shuffle(entries)
            lexicon = load_lexicon(io.StringIO(f"<MOTS><G>{''.join(entries)}</G></MOTS>"))
            verdicts.append(
                tuple(check_spelling(w, lexicon, affixes) for w in words)
            )
        assert len(set(verdicts)) == 1
