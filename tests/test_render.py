import random
import time

from arabiclint.render import render_html

from helpers import deadline, oracle_render_html
from test_acceptance import _fuzz_document


def test_html_equals_the_mark_by_mark_oracle(engine):
    rng = random.Random(424242)
    for _ in range(1000):
        document = _fuzz_document(rng)
        report = engine.analyze_text(document)
        assert render_html(report, document) == oracle_render_html(report, document)


def test_html_time_is_linear_in_document_size(engine):
    rng = random.Random(7)
    documents = []
    size = 0
    while size < 256 * 1024:
        documents.append(_fuzz_document(rng))
        size += len(documents[-1].encode("utf-8")) + 2
    text = "\n\n".join(documents)
    report = engine.analyze_text(text)
    with deadline(seconds=10):
        started = time.perf_counter()
        render_html(report, text)
        elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"256 KiB rendered in {elapsed:.2f}s"
