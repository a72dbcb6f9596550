import random
import re
import time
from dataclasses import replace
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from arabiclint import Engine, Fault, FaultKind, Report, render
from arabiclint.cli import main
from arabiclint.engine import SentenceRecord, SentenceVerdict
from arabiclint.render import ANSI_CODES, canonical_json, render_html, render_json, render_text

from helpers import deadline, oracle_render_html
from test_acceptance import _fuzz_document


class Recorder:
    """A stand-in for stdout that keeps each write."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


# Strings JSON must escape or carry through: quote, backslash, control
# characters, the line and paragraph separators, and non-BMP characters.
awkward = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029", "\U0001f600", "𝔸", "ا"]
)
texts = st.lists(awkward | st.text(max_size=4), max_size=5).map("".join)
rule_ids = st.none() | texts
spans = st.tuples(st.integers(), st.integers())
faults = st.builds(
    Fault,
    kind=st.sampled_from(FaultKind),
    sentence_index=st.integers(min_value=0),
    ordinal=st.integers(min_value=0),
    spans=st.lists(spans, max_size=3).map(tuple),
    message=texts,
    rule_id=rule_ids,
)
verdicts = st.builds(
    SentenceVerdict,
    labels=st.lists(texts, max_size=4).map(tuple),
    skipped=st.lists(st.integers(min_value=0), max_size=3).map(tuple),
    matched=st.booleans(),
    rule_id=rule_ids,
    faults=st.just(()),
    warnings=st.just(()),
)
records = st.builds(SentenceRecord, index=st.integers(min_value=0), span=spans, verdict=verdicts)
reports = st.builds(
    Report,
    faults=st.lists(faults, max_size=5),
    structures=st.lists(records, max_size=5),
    stats=st.dictionaries(texts, st.integers(), max_size=4),
    warnings=st.lists(texts, max_size=4),
)


@given(reports, st.integers(min_value=1, max_value=3))
def test_json_equals_canonical_dump(report, batch):
    expected = canonical_json(report.to_dict())
    streamed = Recorder()
    # Small batches put chunk boundaries inside every array.
    with mock.patch.object(render, "JSON_BATCH", batch):
        assert render_json(report) == expected
        assert render_json(report, streamed) is None
    assert "".join(streamed.chunks) == expected


small = st.integers(min_value=1, max_value=3)
span_lists = st.sampled_from([0, 1, 3]).flatmap(lambda n: st.lists(spans, min_size=n, max_size=n))


@st.composite
def shared_reports(draw):
    """Reports whose records share a few verdict objects, among them equal
    verdicts that are distinct objects and verdicts with equal labels only,
    and whose faults of 0, 1 or 3 spans repeat a few (kind, message,
    rule_id) heads, among them heads that differ only in rule_id."""
    pool = draw(st.lists(verdicts, min_size=1, max_size=3))
    pool += [replace(v) for v in draw(st.lists(st.sampled_from(pool), max_size=3))]
    twins = draw(st.lists(st.sampled_from(pool), max_size=2))
    pool += [replace(v, matched=not v.matched) for v in twins]
    any_head = st.tuples(st.sampled_from(FaultKind), texts, rule_ids)
    heads = draw(st.lists(any_head, min_size=1, max_size=3))
    heads += [(kind, message, f"{rule_id}'") for kind, message, rule_id in heads]
    faults = [
        Fault(kind, draw(st.integers(min_value=0)), 0, tuple(draw(span_lists)), message, rule_id)
        for kind, message, rule_id in draw(st.lists(st.sampled_from(heads), max_size=6))
    ]
    records = [
        SentenceRecord(draw(st.integers(min_value=0)), draw(spans), verdict)
        for verdict in draw(st.lists(st.sampled_from(pool), max_size=6))
    ]
    return Report(faults=faults, structures=records)


@given(shared_reports(), small, small)
def test_json_with_shared_fragments_equals_canonical_dump(report, batch, bound):
    expected = canonical_json(report.to_dict())
    streamed = Recorder()
    # A small cache bound clears the fragments in the middle of each list.
    with mock.patch.object(render, "JSON_BATCH", batch), mock.patch.object(
        render, "JSON_FRAGMENTS", bound
    ):
        assert render_json(report) == expected
        assert render_json(report, streamed) is None
    assert "".join(streamed.chunks) == expected


def test_json_streams_in_batches():
    verdict = SentenceVerdict(("Verbe",), (), True, "V1", (), ())
    report = Report(
        faults=[
            Fault(FaultKind.SPELLING, i, i, ((i, i + 1),), f"unknown word: {i}")
            for i in range(10_000)
        ],
        structures=[SentenceRecord(i, (i, i + 1), verdict) for i in range(10_000)],
        stats={"spelling": 10_000},
    )
    streamed = Recorder()
    render_json(report, streamed)
    assert len(streamed.chunks) < 100
    assert "".join(streamed.chunks) == canonical_json(report.to_dict())


def test_check_json_stdout_is_the_rendered_report(engine, tmp_path, capsys, monkeypatch):
    # Every run uses the shared default engine instead of loading its own.
    monkeypatch.delenv("ARABICLINT_CONFIG", raising=False)
    monkeypatch.setattr(Engine, "from_config", classmethod(lambda cls, config: engine))
    path = tmp_path / "in.txt"
    rng = random.Random(424242)
    for _ in range(200):
        document = _fuzz_document(rng)
        path.write_text(document, encoding="utf-8")
        report = engine.analyze_text(document)
        assert main(["check", "--format", "json", str(path)]) == (1 if report.faults else 0)
        assert capsys.readouterr().out == render_json(report) + "\n"


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


ANSI_ESCAPE = re.compile(r"\x1b\[[0-9;]*m")
PAINTED = re.compile(r"\x1b\[4;([0-9]+)m(.*?)\x1b\[0m", re.DOTALL)


def test_color_text_paints_exactly_each_fault_span(engine):
    defaults = {"spelling": "red", "structure": "yellow", "conjugation": "magenta"}
    rng = random.Random(424242)
    for _ in range(300):
        document = _fuzz_document(rng)
        report = engine.analyze_text(document)
        plain = render_text(report, document)
        for mapping in (None, {"spelling": "cyan"}):
            colored = render_text(report, document, color=True, kind_colors=mapping)
            assert ANSI_ESCAPE.sub("", colored) == plain
            # Each fault paints its kind label, then exactly the text of its spans.
            expected = []
            for fault in report.faults:
                kind = fault.kind.value
                code = ANSI_CODES[(mapping or {}).get(kind, defaults[kind])]
                expected.append((code, kind))
                expected += [(code, document[s:e]) for s, e in fault.spans]
            assert PAINTED.findall(colored) == expected
