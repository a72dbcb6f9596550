"""The benchmark's per-layer tracer still finds every layer it wraps.

`perfbench/tracer.py` replaces functions where their callers look them up,
so renaming one of them, or calling it from somewhere else, silently zeroes
its layer. This runs the tracer over a small document and checks that each
wrapped layer was entered.
"""

from pathlib import Path

from arabiclint import Engine

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
