"""Per-layer timing and counts, taken by wrapping arabiclint's public functions.

Each function is replaced where its caller looks it up (for example
`arabiclint.engine.disambiguate`, which `Engine.analyze_sentence` calls), so
nothing in the package changes. A layer's time is its self time: the
wall time of its calls minus the time of the traced calls made inside them.
Garbage-collector pauses come from `gc.callbacks` and overlap the layers.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import arabiclint.cli
import arabiclint.engine
import arabiclint.tagging
from arabiclint.engine import Engine, Report

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.assignments_max = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._children = [0.0]  # time of traced calls inside each open span
        self._gc_started = 0.0

    def _close(self, name: str, started: float) -> None:
        elapsed = clock() - started
        self.self_s[name] += elapsed - self._children.pop()
        self._children[-1] += elapsed
        self.calls[name] += 1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, started)

        return traced

    def wrap_generator(self, name: str, fn):
        """Time each step of a generator; its items count as calls of `name`."""

        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                self._children.append(0.0)
                started = clock()
                try:
                    item = next(steps)
                except StopIteration:
                    self._close(name, started)
                    self.calls[name] -= 1
                    return
                self._close(name, started)
                yield item

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = clock()
        else:
            self.gc_s += clock() - self._gc_started
            self.gc_collections += 1

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        match_structure = self.wrap("rules.match_structure", arabiclint.tagging.match_structure)
        disambiguate = self.wrap("tagging.disambiguate", arabiclint.engine.disambiguate)

        def disambiguate_counting(*args, **kwargs):
            before = self.calls["rules.match_structure"]
            try:
                return disambiguate(*args, **kwargs)
            finally:
                tried = self.calls["rules.match_structure"] - before
                self.assignments_max = max(self.assignments_max, tried)

        analyses = Engine.analyses

        def analyses_counting(engine, surface):
            self.calls["lexicon.analyses"] += 1
            return analyses(engine, surface)

        patches = [
            (arabiclint.engine, "normalize", self.wrap("segmentation.normalize", arabiclint.engine.normalize)),
            (arabiclint.engine, "scan_sentences", self.wrap_generator("segmentation.scan", arabiclint.engine.scan_sentences)),
            (arabiclint.engine, "analyze_word", self.wrap("lexicon.analyze_word", arabiclint.engine.analyze_word)),
            (arabiclint.engine, "disambiguate", disambiguate_counting),
            (arabiclint.tagging, "match_structure", match_structure),
            (arabiclint.engine, "check_conjugation", self.wrap("engine.check_conjugation", arabiclint.engine.check_conjugation)),
            (Engine, "analyses", analyses_counting),
            (Engine, "analyze_sentence", self.wrap("engine.analyze_sentence", Engine.analyze_sentence)),
            (Engine, "analyze_text", self.wrap("engine.assemble", Engine.analyze_text)),
            (Engine, "from_config", classmethod(self.wrap("engine.load", Engine.from_config.__func__))),
            (Report, "to_dict", self.wrap("render.to_dict", Report.to_dict)),
            (arabiclint.cli, "render_json", self.wrap("render.render_json", arabiclint.cli.render_json)),
            (arabiclint.cli, "main", self.wrap("cli.main", arabiclint.cli.main)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def metrics(self, rounds: int, output_bytes: int) -> dict[str, float]:
        """Per-layer figures, each time and count given per round."""
        s, n = self.self_s, self.calls
        sentences = n["segmentation.scan"]
        return {
            "segmentation.normalize_s": s["segmentation.normalize"] / rounds,
            "segmentation.scan_s": s["segmentation.scan"] / rounds,
            "segmentation.sentences": sentences / rounds,
            "lexicon.analyze_word_s": s["lexicon.analyze_word"] / rounds,
            "lexicon.analyze_word_calls": n["lexicon.analyze_word"] / rounds,
            "lexicon.cache_hit_ratio": _hit_ratio(n["lexicon.analyze_word"], n["lexicon.analyses"]),
            "tagging.disambiguate_s": s["tagging.disambiguate"] / rounds,
            "rules.match_structure_s": s["rules.match_structure"] / rounds,
            "rules.match_structure_calls": n["rules.match_structure"] / rounds,
            "tagging.assignments_max": self.assignments_max,
            "engine.load_s": s["engine.load"] / max(n["engine.load"], 1),
            "engine.analyze_sentence_s": s["engine.analyze_sentence"] / rounds,
            "engine.check_conjugation_s": s["engine.check_conjugation"] / rounds,
            "engine.assemble_s": s["engine.assemble"] / rounds,
            "engine.sentence_memo_hit_ratio": _hit_ratio(n["engine.analyze_sentence"], sentences),
            "render.to_dict_s": s["render.to_dict"] / rounds,
            "render.render_json_s": s["render.render_json"] / rounds,
            "render.output_mib": output_bytes / rounds / 1_048_576,
            "cli.main_self_s": s["cli.main"] / rounds,
            "python.gc_s": self.gc_s / rounds,
            "python.gc_collections": self.gc_collections / rounds,
        }


def _hit_ratio(misses: int, lookups: int) -> float:
    """Share of lookups that did not fall through to the work behind them."""
    return 1 - misses / lookups if lookups else 0.0
