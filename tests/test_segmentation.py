import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arabiclint import NormalizationOptions, normalize, split_sentences
from arabiclint.segmentation import SENTENCE_TERMINATORS, scan_sentences

from helpers import has_word, oracle_offset_map, oracle_segments, oracle_sentence_count
from test_acceptance import FUZZ_SEPARATORS, FUZZ_VOCABULARY

ARABIC_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهويىءآأإؤئة"
DIACRITICS = "".join(chr(c) for c in range(0x064B, 0x0653))
MIXED_ALPHABET = ARABIC_LETTERS + DIACRITICS + " \n\t.،؛؟!?:;ـabc123()-"

mixed_text = st.text(alphabet=MIXED_ALPHABET, max_size=80)
# Every character of the criterion-6 fuzz documents: shadda, damma, tatweel
# and alef-hamza among them.
FUZZ_ALPHABET = "".join(sorted(set("".join(FUZZ_VOCABULARY + FUZZ_SEPARATORS))))
fuzz_text = st.text(alphabet=FUZZ_ALPHABET, max_size=80)
# Few letters, many boundary and whitespace characters: long newline runs.
boundary_text = st.text(alphabet="بت \t\n\n.؟،", max_size=60)


class TestNormalize:
    def test_already_normalized_is_identity(self):
        assert normalize("ياخذ").normalized == "ياخذ"

    def test_shadda_removed(self):
        assert normalize("الجمّة").normalized == "الجمة"

    def test_hamza_folding_on_by_default(self):
        assert normalize("يأخذ").normalized == "ياخذ"

    def test_hamza_folding_can_be_disabled(self):
        opts = NormalizationOptions(fold_hamza=False)
        assert normalize("يأخذ", opts).normalized == "يأخذ"

    def test_all_alef_variants_fold(self):
        assert normalize("آأإٱ").normalized == "اااا"

    def test_tatweel_always_removed(self):
        assert normalize("كتـــاب").normalized == "كتاب"
        opts = NormalizationOptions(keep_diacritics=True)
        assert normalize("كتـــاب", opts).normalized == "كتاب"

    def test_keep_diacritics_keeps_marks(self):
        opts = NormalizationOptions(keep_diacritics=True)
        assert normalize("الجمّة", opts).normalized == "الجمّة"

    def test_empty_input(self):
        nt = normalize("")
        assert nt.normalized == "" and tuple(nt.offset_map) == ()

    def test_offset_map_points_at_sources(self):
        nt = normalize("وَقَواعد")
        assert len(nt.offset_map) == len(nt.normalized)
        for i, offset in enumerate(nt.offset_map):
            assert nt.original[offset] in (nt.normalized[i], "أ", "إ", "آ", "ٱ")

    @given(mixed_text)
    def test_idempotent(self, text):
        once = normalize(text)
        twice = normalize(once.normalized)
        assert twice.normalized == once.normalized

    @given(mixed_text)
    def test_offset_map_monotone_and_in_bounds(self, text):
        nt = normalize(text)
        assert len(nt.offset_map) == len(nt.normalized)
        assert all(0 <= o < len(text) for o in nt.offset_map)
        assert all(a < b for a, b in zip(nt.offset_map, nt.offset_map[1:]))

    @settings(max_examples=300)
    @given(fuzz_text | mixed_text, st.booleans(), st.booleans())
    def test_offset_map_matches_character_walk_oracle(self, text, fold, keep):
        opts = NormalizationOptions(fold_hamza=fold, keep_diacritics=keep)
        nt = normalize(text, opts)
        normalized, offsets = oracle_offset_map(text, fold, keep)
        assert nt.normalized == normalized
        assert list(nt.offset_map) == offsets

    def test_normalized_text_hashes_by_identity(self):
        nt = normalize("وَ")
        assert hash(nt) == hash(nt)
        assert nt == nt and nt != normalize("وَ")


class TestSplitSentences:
    def test_single_sentence_seven_tokens(self):
        sentences = split_sentences(normalize("يبحث في أصول تكوين الجملة وقواعد الإعراب"))
        assert len(sentences) == 1
        assert len(sentences[0].tokens) == 7

    def test_empty_text(self):
        assert split_sentences(normalize("")) == []

    def test_full_stop_splits(self):
        sentences = split_sentences(normalize("ذهب أكرم. تذهب إيمان"))
        assert len(sentences) == 2
        assert [t.surface for t in sentences[0].tokens] == ["ذهب", "اكرم"]
        assert sentences[0].terminator == "."
        assert sentences[1].terminator is None

    @pytest.mark.parametrize("terminator", sorted(SENTENCE_TERMINATORS))
    def test_every_terminator_splits(self, terminator):
        sentences = split_sentences(normalize(f"ذهب أكرم{terminator} تذهب إيمان"))
        assert len(sentences) == 2
        assert sentences[0].terminator == terminator

    def test_arabic_comma_is_not_a_boundary(self):
        sentences = split_sentences(normalize("النحو العربي هو علم، تبحث في أصول"))
        assert len(sentences) == 1

    def test_blank_line_is_a_boundary(self):
        sentences = split_sentences(normalize("ذهب أكرم\n\nتذهب إيمان"))
        assert len(sentences) == 2

    def test_blank_line_with_spaces_is_a_boundary(self):
        sentences = split_sentences(normalize("ذهب أكرم\n  \t \nتذهب إيمان"))
        assert len(sentences) == 2

    def test_plain_newline_is_not_a_boundary(self):
        sentences = split_sentences(normalize("ذهب أكرم\nتذهب إيمان"))
        assert len(sentences) == 1

    def test_whitespace_only_segments_dropped(self):
        sentences = split_sentences(normalize("ذهب.  . تذهب"))
        assert len(sentences) == 2
        assert [s.index for s in sentences] == [0, 1]

    def test_terminator_never_inside_tokens(self):
        sentences = split_sentences(normalize("ذهب أكرم. تذهب إيمان!"))
        for sentence in sentences:
            for token in sentence.tokens:
                assert not set(token.surface) & SENTENCE_TERMINATORS

    def test_segments_cover_the_text(self):
        nt = normalize("ذهب أكرم. تذهب إيمان؟ لم يكتبوا\n\nالجملة")
        # Sentences are ordered, non-overlapping, and everything between two
        # consecutive sentences is terminators or whitespace.
        previous_end = 0
        for words, terminator in scan_sentences(nt.normalized):
            start, end = words[0].start(), words[-1].end()
            assert start >= previous_end
            gap = nt.normalized[previous_end:start]
            assert all(ch in SENTENCE_TERMINATORS or ch.isspace() for ch in gap)
            previous_end = end
        assert all(
            ch in SENTENCE_TERMINATORS or ch.isspace()
            for ch in nt.normalized[previous_end:]
        )

    @settings(max_examples=300)
    @given(st.one_of(mixed_text, boundary_text))
    def test_segments_match_character_walk_oracle(self, text):
        normalized = normalize(text).normalized
        segments = [
            (start, end, terminator)
            for start, end, terminator in oracle_segments(normalized)
            if has_word(normalized[start:end])
        ]
        sentences = list(scan_sentences(normalized))
        assert len(sentences) == len(segments)
        for (words, terminator), (start, end, expected) in zip(sentences, segments):
            assert terminator == expected
            assert all(start <= word.start() < word.end() <= end for word in words)

    @settings(max_examples=200)
    @given(mixed_text)
    def test_sentence_count_matches_bruteforce_oracle(self, text):
        nt = normalize(text)
        assert len(split_sentences(nt)) == oracle_sentence_count(nt.normalized)


def tokens_of(nt):
    """The tokens of every sentence of `nt`, in order."""
    return [token for sentence in split_sentences(nt) for token in sentence.tokens]


class TestTokenize:
    def test_three_words(self):
        tokens = tokens_of(normalize("أنتم لم تذهبوا"))
        assert [t.surface for t in tokens] == ["انتم", "لم", "تذهبوا"]

    def test_whitespace_only(self):
        assert split_sentences(normalize("   ")) == []

    def test_comma_dropped_without_splitting_sentence(self):
        tokens = tokens_of(normalize("العمليات أو الأنشطة، تشبعوا"))
        assert [t.surface for t in tokens] == ["العمليات", "او", "الانشطة", "تشبعوا"]

    def test_latin_and_digits_form_opaque_tokens(self):
        tokens = tokens_of(normalize("ذهب abc 123"))
        assert [t.surface for t in tokens] == ["ذهب", "abc", "123"]

    def test_kept_diacritics_stay_inside_tokens(self):
        opts = NormalizationOptions(keep_diacritics=True)
        tokens = tokens_of(normalize("ذَهَبَ أكرم", opts))
        assert [t.surface for t in tokens] == ["ذَهَبَ", "اكرم"]

    def test_spans_point_at_original_words(self):
        original = "و يبحث في أصول تكوين الجمّة وقواعد"
        nt = normalize(original)
        tokens = tokens_of(nt)
        spans = [original[s:e] for s, e in (t.span for t in tokens)]
        assert spans[5] == "الجمّة"  # span includes the interior shadda
        for token, fragment in zip(tokens, spans):
            assert normalize(fragment).normalized == token.surface

    def test_ordinals_and_sentence_index(self):
        sentences = split_sentences(normalize("ذهب أكرم. تذهب إيمان"))
        assert [sentence.index for sentence in sentences] == [0, 1]
        for sentence in sentences:
            for expected_ordinal, token in enumerate(sentence.tokens):
                assert token.ordinal == expected_ordinal

    @settings(max_examples=200)
    @given(mixed_text)
    def test_token_spans_ordered_disjoint_and_renormalizable(self, text):
        nt = normalize(text)
        previous_end = None
        for sentence in split_sentences(nt):
            for token in sentence.tokens:
                start, end = token.span
                assert 0 <= start < end <= len(text)
                if previous_end is not None:
                    assert start >= previous_end
                previous_end = end
                assert normalize(text[start:end]).normalized == token.surface

    def test_random_seeded_fuzz_keeps_span_invariants(self):
        rng = random.Random(77)
        for _ in range(300):
            text = "".join(rng.choice(MIXED_ALPHABET) for _ in range(rng.randrange(120)))
            nt = normalize(text)
            for sentence in split_sentences(nt):
                for token in sentence.tokens:
                    start, end = token.span
                    assert normalize(text[start:end]).normalized == token.surface
