"""The benchmark's output checks accept right reports and reject corrupted ones."""

import copy
import json
import random
from pathlib import Path

import pytest

import inputs
import reference
import verify
from arabiclint import Engine
from arabiclint.render import render_json

DATA = Path(__file__).resolve().parent.parent / "src" / "arabiclint" / "data"


@pytest.fixture(scope="module")
def data():
    return reference.Data(DATA)


@pytest.fixture(scope="module")
def vocab(data):
    return inputs.Vocabulary(data)


@pytest.fixture(scope="module")
def engine():
    return Engine.default()


def shift_span(report, kind):
    """Move the first fault of `kind` one character to the right."""
    fault = next(f for f in report["faults"] if f["kind"] == kind)
    fault["spans"] = [[s + 1, e + 1] for s, e in fault["spans"]]
    return report


def drop_fault(report, kind):
    """Remove the first fault of `kind`, keeping the stats consistent with the rest."""
    fault = next(f for f in report["faults"] if f["kind"] == kind)
    report["faults"].remove(fault)
    report["stats"][kind] -= 1
    return report


CORRUPTIONS = [shift_span, drop_fault]


@pytest.fixture(scope="module")
def prose(vocab, engine):
    stream = inputs.ProseStream(vocab, random.Random(3))
    for doc in stream.round(50):
        report = engine.analyze_text(doc.text).to_dict()
        if all(report["stats"][kind] for kind in verify.KINDS):
            return doc, report
    raise AssertionError("no document with every kind of fault")


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("kind", verify.KINDS)
def test_prose_check_rejects_corrupted_report(data, prose, corrupt, kind):
    doc, report = prose
    assert verify.check_prose(data, doc, report) == []
    assert verify.check_prose(data, doc, corrupt(copy.deepcopy(report), kind))


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_ladder_check_rejects_corrupted_report(data, vocab, engine, corrupt):
    ref = verify.LadderReference(data)
    ladder = inputs.Ladder(vocab, random.Random(5))
    for sentence in ladder.round():
        if sentence.n is not None and sentence.n > 6:
            continue
        report = engine.analyze_text(sentence.text).to_dict()
        assert verify.check_ladder(ref, sentence, report) == []
        if sentence.n is None:
            report["structures"][0]["rule_id"] = "NomCommun NomCommun"
            assert verify.check_ladder(ref, sentence, report)
        else:
            assert verify.check_ladder(ref, sentence, corrupt(report, "structure"))


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("kind", verify.KINDS)
def test_json_check_rejects_corrupted_report(engine, corrupt, kind):
    base = inputs.criterion_7_base()
    copies = 3
    base_report = engine.analyze_text(base).to_dict()
    output = render_json(engine.analyze_text(base * copies)) + "\n"
    assert verify.check_json_output(output, base, base_report, copies) == []

    report = json.loads(output)
    # Corrupt the last copy only, so the earlier copies still match.
    report["faults"] = report["faults"][::-1]
    corrupt(report, kind)
    report["faults"] = report["faults"][::-1]
    assert verify.check_json_output(verify.canonical(report) + "\n", base, base_report, copies)


def test_json_check_rejects_other_bytes(engine):
    base = inputs.criterion_7_base()
    base_report = engine.analyze_text(base).to_dict()
    output = json.dumps(base_report, ensure_ascii=False, sort_keys=True, indent=1) + "\n"
    assert verify.check_json_output(output, base, base_report, 1) == [
        "output does not re-dump to the same bytes"
    ]
