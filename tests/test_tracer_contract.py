"""The benchmark's per-layer tracer still finds every layer it wraps.

`perfbench/tracer.py` replaces functions where their callers look them up,
so renaming one of them, or calling it from somewhere else, silently zeroes
its layer. This runs the tracer over a small document and checks that each
wrapped layer was entered.
"""

from pathlib import Path

from arabiclint import Engine, normalize, split_sentences

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_is_called(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    # A verb (conjugation check), an unknown word, and انا, which has two
    # candidates and so goes through the disambiguation search.
    text = "أنتم لم تذهبون. كلمذة انا انا."
    with Tracer().installed() as tracer:
        # A fresh engine, so its analysis cache misses into analyze_word.
        Engine.default().analyze_text(text)
    for layer in (
        "engine.load",
        "segmentation.normalize",
        "segmentation.scan",
        "lexicon.analyses",
        "lexicon.analyze_word",
        "tagging.disambiguate",
        "rules.match_structure",
        "engine.check_conjugation",
        "engine.analyze_sentence",
        "engine.assemble",
    ):
        assert tracer.calls[layer] > 0, layer


def test_analyses_counts_every_token_of_each_distinct_sentence(monkeypatch):
    # The tracer's analysis-cache hit ratio is taken over these lookups, so
    # each word token of each distinct sentence must make exactly one.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    text = "أنتم لم تذهبون. كلمذة انا انا. تذهب إيمان في المكان. هم لن يكتبوا"
    sentences = split_sentences(normalize(text))
    surfaces = [tuple(token.surface for token in s.tokens) for s in sentences]
    assert len(set(surfaces)) == len(surfaces)
    with Tracer().installed() as tracer:
        Engine.default().analyze_text(text)
    assert tracer.calls["lexicon.analyses"] == sum(map(len, surfaces))
