"""Byte-identity of every rendered report on fixed inputs.

Each digest is the sha256 of a renderer's output over one input set, every
document's output followed by a NUL byte. The digests were taken from a
build known to be correct; a change that alters any byte of any report on
these inputs fails here. When a change to the output is intended, recompute
them with `python tests/test_golden.py` and say why in the change log.
"""

import contextlib
import hashlib
import io
import os
import random

import pytest

from arabiclint.cli import main
from arabiclint.render import render_html, render_json, render_text

from test_acceptance import FUZZ_VOCABULARY, _fuzz_document

DIGESTS = {
    "criterion7/json": "691bf1f03c2063d82cd82e1acad5e5908f583ab84a3f1afd25eed7e92bed096a",
    "criterion7/text": "3ac6a6bd6adfc1d23f9bbed33291fa34800c363fa86e21bdb55cb1e9fb4112a0",
    "criterion7/html": "bbdee0bf9fb7ac2d3333148563785bc448134c8b4fc11a7bb7400e5b99181f2b",
    "fuzz/json": "cb85310d08833f028d4a11afe911620c3a7b9c46176f67d1fbc532c1edb2519b",
    "fuzz/text": "d5895b3571bb63abb9174f0993dd18e41983779b6fee5fd8c2f3819cd66c6fa3",
    "fuzz/html": "b290d1ba33cfbeaef84812c55849c7cc5e851764e455910963eeca77191180be",
    "ladders/json": "caa759c0fdd78279d851f46f7a4193ec47aa5802ac9ceebf5d3853a54ede5521",
    "ladders/text": "0f74af03a9d8bfcef976fc8c4759563fcc81deca1548911f22db2e2c98115075",
    "ladders/html": "4f444389b316c891ba8fb9584b8099b356dfb717886efeead5f25c713dfbf97d",
    "eval/stdout": "6fdc0cc615d59ea07365e763659e6a788b64d488e6ffa6624cf4753a0cbc1225",
}

RENDERERS = {
    "json": lambda report, text: render_json(report),
    "text": lambda report, text: render_text(report, text),
    "html": render_html,
}


def criterion7_text():
    base = ". ".join(FUZZ_VOCABULARY[:30]) + ".\n"
    return base * ((1_048_576 // len(base.encode("utf-8"))) + 1)


def fuzz_documents():
    rng = random.Random(424242)
    return [_fuzz_document(rng) for _ in range(1000)]


def ladders():
    """A conjunction then n copies of the two-candidate انا, n = 1…18."""
    return [f"{conj} " + " ".join(["انا"] * n) for conj in ("و", "ثم") for n in range(1, 19)]


def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def report_digests(engine, name, texts, parallel=False):
    reports = [(engine.analyze_text(text, parallel=parallel), text) for text in texts]
    return {
        f"{name}/{fmt}": digest(render(report, text) for report, text in reports)
        for fmt, render in RENDERERS.items()
    }


def eval_digest():
    """`arabiclint eval` on the bundled corpus: its exit code, then its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval"])
    return digest([str(code), out.getvalue()])


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("ARABICLINT_CONFIG", raising=False)


def test_criterion7_text(engine):
    assert report_digests(engine, "criterion7", [criterion7_text()]) == {
        k: v for k, v in DIGESTS.items() if k.startswith("criterion7/")
    }


@pytest.mark.parametrize("parallel", [False, True])
def test_fuzz_documents(engine, parallel):
    assert report_digests(engine, "fuzz", fuzz_documents(), parallel) == {
        k: v for k, v in DIGESTS.items() if k.startswith("fuzz/")
    }


def test_ladders(engine):
    assert report_digests(engine, "ladders", ladders()) == {
        k: v for k, v in DIGESTS.items() if k.startswith("ladders/")
    }


def test_eval_stdout(clean_env):
    assert eval_digest() == DIGESTS["eval/stdout"]


if __name__ == "__main__":
    from arabiclint import Engine

    os.environ.pop("ARABICLINT_CONFIG", None)

    engine = Engine.default()
    found = {}
    found.update(report_digests(engine, "criterion7", [criterion7_text()]))
    found.update(report_digests(engine, "fuzz", fuzz_documents()))
    found.update(report_digests(engine, "ladders", ladders()))
    found["eval/stdout"] = eval_digest()
    for key, value in found.items():
        print(f'    "{key}": "{value}",')
