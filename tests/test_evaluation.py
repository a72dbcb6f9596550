import io
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arabiclint import (
    CorpusError,
    EvalSets,
    GoldAnnotation,
    PrecisionResult,
    detection_precision,
    load_corpus,
    run_corpus,
)

from helpers import oracle_precision


class TestDetectionPrecision:
    def test_three_of_four(self):
        sets = EvalSets(
            d_plus={("s", 1), ("s", 2), ("s", 3)},
            detected={("s", 1), ("s", 2), ("s", 3), ("s", 4)},
        )
        result = detection_precision(sets)
        assert result.precision == Fraction(3, 4)
        assert PrecisionResult.render(result.precision) == "0.75"

    def test_all_detections_true(self):
        detected = {("s", i) for i in range(5)}
        sets = EvalSets(d_plus=detected | {("s", 9)}, detected=set(detected))
        result = detection_precision(sets)
        assert result.precision == Fraction(1, 1)
        assert PrecisionResult.render(result.precision) == "1.00"

    def test_nothing_detected_is_undefined(self):
        result = detection_precision(EvalSets(d_plus={("s", 1)}, detected=set()))
        assert result.precision is None
        assert PrecisionResult.render(result.precision) == "n/a"

    def test_precision_is_exact_rational(self):
        sets = EvalSets(d_plus={1, 2}, detected={1, 2, 3})
        assert detection_precision(sets).precision == Fraction(2, 3)

    @given(
        st.sets(st.integers(min_value=0, max_value=30)),
        st.sets(st.integers(min_value=0, max_value=30)),
    )
    def test_agrees_with_naive_oracle(self, d_plus, detected):
        result = detection_precision(EvalSets(d_plus=d_plus, detected=detected))
        expected = oracle_precision(d_plus, detected)
        if expected is None:
            assert result.precision is None
        else:
            assert float(result.precision) == pytest.approx(expected)
            assert 0 <= result.precision <= 1
            if result.precision == 1:
                assert detected and detected <= d_plus

    def test_recall_extension(self):
        sets = EvalSets(d_plus={1, 2, 3, 4}, detected={1, 2})
        result = detection_precision(sets)
        assert result.recall == Fraction(2, 4)
        assert detection_precision(EvalSets()).recall is None


class TestLoadCorpus:
    def test_shipped_corpus_loads(self, corpus_path):
        corpus = load_corpus(corpus_path)
        assert len(corpus) == 17
        assert corpus[14].excluded_from_strict
        # Entries 2, 4, 5, 6, 8, 10, 12, 13, 15 and 17 carry gold faults.
        assert sum(1 for e in corpus if e.gold) == 10

    def test_parse_error_names_the_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(io.StringIO('{"text": "ذهب", "gold": []}\n{broken'))

    def test_bad_gold_item_is_an_error(self):
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(
                io.StringIO('{"text": "ذهب", "gold": [{"kind": "typo", "ordinal": 0}]}')
            )

    def test_missing_text_is_an_error(self):
        with pytest.raises(CorpusError, match="text"):
            load_corpus(io.StringIO('{"gold": []}'))

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(io.StringIO("\n\n"))

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_corpus(tmp_path / "missing.jsonl")

    def test_relative_path_starting_with_a_brace_is_read_as_a_path(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "{x}.jsonl").write_text('{"text": "ذهب"}\n', encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert load_corpus("{x}.jsonl") == [GoldAnnotation(text="ذهب")]


class TestRunCorpus:
    def test_shipped_corpus_hand_audited_counts(self, engine, corpus_path):
        outcome = run_corpus(load_corpus(corpus_path), engine)
        spelling = outcome.results["spelling"]
        structure = outcome.results["structure"]
        conjugation = outcome.results["conjugation"]
        # Hand count over the 17 entries: 3 spelling detections (all true),
        # 2 structure detections (all true), 6 conjugation detections (all
        # true) out of 7 annotated conjugation faults.
        assert (spelling.detected, spelling.hits, spelling.gold) == (3, 3, 3)
        assert (structure.detected, structure.hits, structure.gold) == (2, 2, 2)
        assert (conjugation.detected, conjugation.hits, conjugation.gold) == (6, 6, 7)
        assert spelling.precision == 1
        assert structure.precision == 1
        assert conjugation.precision == 1
        assert conjugation.recall == Fraction(6, 7)

    def test_shipped_corpus_diff_is_only_the_excluded_entry(self, engine, corpus_path):
        outcome = run_corpus(load_corpus(corpus_path), engine)
        assert len(outcome.diffs) == 1
        diff = outcome.diffs[0]
        assert diff.entry == 14 and diff.kind == "conjugation"
        assert diff.expected and not diff.actual
        assert diff.excluded
        assert outcome.strict_failures == []

    def test_engine_detecting_nothing_gives_na_and_misses(self, engine):
        corpus = [
            GoldAnnotation(text="أنتم لم تذهبوا", gold=(("conjugation", 2),)),
        ]
        outcome = run_corpus(corpus, engine)
        assert outcome.results["conjugation"].precision is None
        assert PrecisionResult.render(outcome.results["conjugation"].precision) == "n/a"
        (diff,) = outcome.diffs
        assert diff.expected and not diff.actual and not diff.excluded

    def test_injected_mismatch_is_a_strict_failure(self, engine):
        corpus = [
            GoldAnnotation(text="أنتم لم تذهبون", gold=(("conjugation", 2),)),
            GoldAnnotation(text="أنتم لم تذهبون", gold=()),  # wrong annotation
        ]
        outcome = run_corpus(corpus, engine)
        assert [d.entry for d in outcome.strict_failures] == [1]

    def test_precision_invariant_under_reordering(self, engine, corpus_path):
        corpus = load_corpus(corpus_path)
        baseline = run_corpus(corpus, engine)
        shuffled = list(corpus)
        random.Random(9).shuffle(shuffled)
        reordered = run_corpus(shuffled, engine)
        for kind in ("spelling", "structure", "conjugation"):
            assert (
                reordered.results[kind].precision == baseline.results[kind].precision
            )
            assert reordered.results[kind].detected == baseline.results[kind].detected

    def test_multi_sentence_entry_keys_structure_to_its_sentence(self, engine):
        # Ordinals count across the whole entry; the second sentence's
        # structure fault keys to that sentence's first token (ordinal 3).
        corpus = [
            GoldAnnotation(
                text="أنتم لم تذهبوا. يذكر أن في مثل ذلك المكان",
                gold=(("structure", 3),),
            )
        ]
        outcome = run_corpus(corpus, engine)
        result = outcome.results["structure"]
        assert (result.detected, result.hits, result.gold) == (1, 1, 1)
        assert outcome.diffs == []

    def test_detection_keys_use_token_ordinals(self, engine):
        # The conjugation fault lands on token 2 (تذهبون); annotating token 0
        # must NOT count as a hit even though the verdicts agree.
        corpus = [GoldAnnotation(text="أنتم لم تذهبون", gold=(("conjugation", 0),))]
        outcome = run_corpus(corpus, engine)
        result = outcome.results["conjugation"]
        assert (result.detected, result.hits, result.gold) == (1, 0, 1)
        assert outcome.diffs == []  # verdict view agrees even though keys differ

    def test_repeated_sentence_keys_each_copy_to_its_own_ordinal(self, engine):
        # The second copy reuses the first one's verdict; its fault still
        # keys to its own token, ordinal 5, past the first sentence.
        corpus = [
            GoldAnnotation(
                text="أنتم لم تذهبون. أنتم لم تذهبون",
                gold=(("conjugation", 2), ("conjugation", 5)),
            )
        ]
        outcome = run_corpus(corpus, engine)
        result = outcome.results["conjugation"]
        assert (result.detected, result.hits, result.gold) == (2, 2, 2)
        assert outcome.diffs == []
