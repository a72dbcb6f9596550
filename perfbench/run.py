#!/usr/bin/env python3
"""Benchmark arabiclint on three closed-loop workloads, in one thread.

    python3 perfbench/run.py --workload prose_novel --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. Each operation is sent only after the previous one returns, and
every output is checked. With `--trace 0` the last line of standard output
is a JSON object holding the end-to-end metrics; with `--trace 1` it holds
the per-layer metrics of a traced run and the tracing overhead. The full
record of a run is also written to `perfbench/results/`. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "arabiclint" / "data"
WORK = HERE / "_work"
RESULTS = HERE / "results"
MIB = 1_048_576

clock = time.perf_counter

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); sys.path.append(sys.argv[2]); "
    "import yardstick; slowdown = yardstick.slowdown(); started = time.perf_counter(); "
    "import arabiclint; arabiclint.Engine.default(); print(time.perf_counter() - started, slowdown)"
)
# Share of --seconds the untraced half of a traced run measures; the traced
# half then repeats the same rounds.
TRACE_SHARE = 0.4


class SetupTimer:
    """Seconds from a fresh interpreter to a loaded engine, once per process.

    Each process times the yardstick just before it imports the package, and
    its set-up time is scaled by that slowdown. The samples are spread over
    the measured part of the run, not taken back to back. A first,
    unmeasured process writes the bytecode cache.
    """

    REPEATS = 9

    def __init__(self, seconds: float):
        self.command = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)]
        self.every = seconds / self.REPEATS
        self.samples: list[tuple[float, float]] = []  # (seconds, slowdown)
        subprocess.run(self.command, check=True, capture_output=True, timeout=60)

    def _sample(self) -> None:
        done = subprocess.run(self.command, check=True, capture_output=True, text=True, timeout=60)
        seconds, slowdown = map(float, done.stdout.split())
        self.samples.append((seconds, slowdown))

    def after_round(self, busy: float) -> None:
        while len(self.samples) < self.REPEATS and busy >= (len(self.samples) + 1) * self.every:
            self._sample()

    def finish(self) -> list[tuple[float, float]]:
        while len(self.samples) < self.REPEATS:
            self._sample()
        return self.samples


class SpeedSampler:
    """Times the yardstick every `every` seconds of wall time, from a timer signal.

    Used around one long call: `samples` holds the slowdowns seen during it,
    and `spent` the time the samples took, which the call's time leaves out.
    """

    def __init__(self, every: float):
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        started = clock()
        self.samples.append(yardstick.slowdown(repeats=1))
        self.spent += clock() - started


class Sink:
    """Stands in for stdout: encodes what is written, hashes and counts it."""

    def __init__(self, keep: bool = False):
        self.digest = hashlib.sha256()
        self.bytes = 0
        self.parts: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.bytes += len(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class ProseNovel:
    """A stream of novel documents, each one `analyze_text` call on one engine."""

    DOCS_PER_ROUND = 21
    SAMPLE_EVERY_S = None
    # The analysis cache grows with every new word, so peak memory is read
    # after a fixed 1,008 documents, not after however many a run reaches.
    RSS_ROUNDS = 48

    def __init__(self, seed: int, vocab):
        self.seed, self.vocab, self.data = seed, vocab, vocab.data
        self.rewind()
        self.makeup = Counter()
        self.sizes: list[int] = []
        self.sentence_lengths: list[int] = []
        self.surfaces: set[str] = set()

    def rewind(self) -> None:
        """Start the input stream over, so that it yields the same documents again."""
        from inputs import ProseStream

        self.stream = ProseStream(self.vocab, random.Random(self.seed))

    def start(self):
        return arabiclint.Engine.default()

    def rounds(self):
        while True:
            yield self.stream.round(self.DOCS_PER_ROUND)

    def size(self, doc) -> int:
        return doc.size

    def call(self, engine, doc):
        return engine.analyze_text(doc.text)

    def check(self, doc, report) -> list[str]:
        self._record(doc)
        return verify.check_prose(self.data, doc, report.to_dict())

    def finish(self) -> list[str]:
        return []

    def _record(self, doc) -> None:
        m = self.makeup
        m["documents"] += 1
        self.sizes.append(doc.size)
        seen = set()
        for sentence in doc.sentences:
            key = tuple(w.norm for w in sentence.words)
            m["sentences"] += 1
            m["repeated_in_document"] += key in seen
            seen.add(key)
            self.sentence_lengths.append(len(key))
            for w in sentence.words:
                m["words"] += 1
                m["unknown"] += w.category is None
                m["decorated"] += w.surface != w.norm
                self.surfaces.add(w.norm)
            m["conjugation_planted"] += len(sentence.conjugation_faults)

    def inputs(self) -> dict:
        m = self.makeup
        return {
            "documents": m["documents"],
            "document_bytes": _summary(self.sizes),
            "sentences": m["sentences"],
            "repeated_sentence_share": m["repeated_in_document"] / m["sentences"],
            "sentence_words": _summary(self.sentence_lengths),
            "words": m["words"],
            "distinct_surfaces": len(self.surfaces),
            "unknown_word_share": m["unknown"] / m["words"],
            "vowelized_share": m["decorated"] / m["words"],
            "planted_disagreements": m["conjugation_planted"],
        }


class AmbiguityLadder:
    """One sentence per `analyze_text` call: ladders of 2**n assignments."""

    RSS_ROUNDS = 1
    SAMPLE_EVERY_S = None

    def __init__(self, seed: int, vocab):
        self.seed, self.vocab = seed, vocab
        self.reference = verify.LadderReference(vocab.data)
        self.kinds = Counter()
        self.rewind()

    def rewind(self) -> None:
        from inputs import Ladder

        self.ladder = Ladder(self.vocab, random.Random(self.seed))

    def start(self):
        return arabiclint.Engine.default()

    def rounds(self):
        while True:
            yield self.ladder.round()

    def size(self, sentence) -> int:
        return len(sentence.text.encode("utf-8"))

    def call(self, engine, sentence):
        return engine.analyze_text(sentence.text)

    def check(self, sentence, report) -> list[str]:
        self.kinds["ladder" if sentence.n else "matching"] += 1
        return verify.check_ladder(self.reference, sentence, report.to_dict())

    def finish(self) -> list[str]:
        return []

    def inputs(self) -> dict:
        return {
            "ladder_n": [min(self.ladder.N), max(self.ladder.N)],
            "sentences_per_round": len(self.ladder.N) + len(self.ladder.MIDDLE_NOUNS) + self.ladder.MATCHING,
            "ladders": self.kinds["ladder"],
            "matching": self.kinds["matching"],
        }


class CheckJson1MiB:
    """`arabiclint check --format json FILE` on the criterion-7 text, in-process."""

    RSS_ROUNDS = 1
    # A pass lasts seconds, longer than the machine's speed phases, so the
    # yardstick at its two ends would not describe it: it is sampled during
    # the pass instead.
    SAMPLE_EVERY_S = 0.25

    def __init__(self, seed: int, vocab):
        from inputs import criterion_7_base, criterion_7_text

        self.base = criterion_7_base()
        self.text, self.copies = criterion_7_text()
        data = self.text.encode("utf-8")
        self.bytes = len(data)
        WORK.mkdir(exist_ok=True)
        self.path = WORK / "criterion_7.txt"
        self.path.write_bytes(data)
        self.argv = ["check", "--format", "json", str(self.path)]
        self.digests: set[str] = set()
        self.first_pass = True

    def rewind(self) -> None:
        pass

    def start(self):
        return None

    def rounds(self):
        while True:
            yield [self.path]

    def size(self, path) -> int:
        return self.bytes

    def call(self, engine, path):
        # The first pass keeps its output for the full check; later passes
        # must hash to the same bytes.
        sink = Sink(keep=self.first_pass)
        self.first_pass = False
        with contextlib.redirect_stdout(sink):
            code = arabiclint.cli.main(self.argv)
        return code, sink

    def check(self, path, result) -> list[str]:
        code, sink = result
        self.digests.add(sink.digest.hexdigest())
        self.output_bytes = sink.bytes
        problems = [] if code == 1 else [f"exit code {code}, expected 1"]
        if sink.parts is not None:
            output = "".join(sink.parts)
            sink.parts = None
            base_report = arabiclint.Engine.default().analyze_text(self.base).to_dict()
            problems += verify.check_json_output(output, self.base, base_report, self.copies)
        return problems

    def finish(self) -> list[str]:
        return [] if len(self.digests) == 1 else [f"{len(self.digests)} distinct outputs across passes"]

    def inputs(self) -> dict:
        from reference import split_sentences

        sentences = split_sentences(self.base)
        surfaces = [[w for w, _, _ in s] for s in sentences]
        words = [w for s in surfaces for w in s]
        data = reference_data()
        return {
            "bytes": self.bytes,
            "copies": self.copies,
            "sentences": len(sentences) * self.copies,
            "repeated_sentence_share": 1 - len(set(map(tuple, surfaces))) / (len(sentences) * self.copies),
            "distinct_surfaces": len(set(words)),
            "unknown_word_share": sum(not data.analyses(w) for w in words) / len(words),
            "vowelized_share": sum(
                1 for s in sentences for w, a, b in s if self.base[a:b] != w
            ) / len(words),
        }


WORKLOADS = {
    "prose_novel": ProseNovel,
    "check_json_1mib": CheckJson1MiB,
    "ambiguity_ladder": AmbiguityLadder,
}


def reference_data():
    from reference import Data

    return Data(DATA)


def measure(
    workload,
    seconds: float | None,
    rounds_limit: int | None = None,
    after_round=None,
    calls=contextlib.nullcontext,
) -> dict:
    """Run whole rounds until `seconds` of timed work, or `rounds_limit` rounds.

    Only the calls into the program are timed, each inside a `calls()`
    context. The yardstick is timed before the first round and after each
    one, and a round's times are also given scaled by the mean slowdown at
    its two ends. When `workload.SAMPLE_EVERY_S` is set, the yardstick is
    also sampled during each call, and a call that saw samples is scaled by
    their mean instead. A round's outputs are checked after the round;
    peak memory is read before the checks, once `workload.RSS_ROUNDS`
    rounds are done, or at the end of a shorter run.
    """
    with calls():
        engine = workload.start()
    latencies: list[float] = []
    scaled: list[float] = []
    slowdowns = [yardstick.slowdown()]
    total_bytes = attempted = failed = rounds = 0
    busy = scaled_busy = 0.0
    problems: list[str] = []
    peak_rss = None
    sampler = SpeedSampler(workload.SAMPLE_EVERY_S) if workload.SAMPLE_EVERY_S else None
    for ops in workload.rounds():
        if rounds == rounds_limit or (seconds is not None and busy >= seconds):
            break
        results = []
        times = []
        seen = []  # mean slowdown sampled during each call, if any
        for op in ops:
            attempted += 1
            try:
                with calls(), sampler or contextlib.nullcontext():
                    started = clock()
                    result = workload.call(engine, op)
                    elapsed = clock() - started
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            if sampler and sampler.samples:
                elapsed -= sampler.spent
                seen.append(statistics.fmean(sampler.samples))
            else:
                seen.append(None)
            times.append(elapsed)
            total_bytes += workload.size(op)
            results.append((op, result))
        slowdowns.append(yardstick.slowdown())
        ends = (slowdowns[-2] + slowdowns[-1]) / 2
        rounds += 1
        round_scaled = [t / (s or ends) for t, s in zip(times, seen)]
        latencies += times
        scaled += round_scaled
        busy += sum(times)
        scaled_busy += sum(round_scaled)
        if rounds == workload.RSS_ROUNDS:
            peak_rss = _peak_rss_mib()
        for op, result in results:
            problems += workload.check(op, result)
        del results
        if after_round is not None:
            after_round(busy)
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy,
        "scaled_busy_s": scaled_busy,
        "bytes": total_bytes,
        "slowdowns": slowdowns,
        "latencies": latencies,
        "scaled_latencies": scaled,
        "peak_rss_mib": peak_rss if peak_rss is not None else _peak_rss_mib(),
        "problems": problems,
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    timer = SetupTimer(seconds)
    workload = WORKLOADS[name](seed, _vocabulary())
    run = measure(workload, seconds, after_round=timer.after_round)
    setup = timer.finish()
    run["problems"] += workload.finish()

    def figures(setup_times, busy, latencies):
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_mib_s": (run["bytes"] / MIB / busy, "MiB/s"),
            "doc_latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "doc_latency_p99_ms": (percentile(latencies, 0.99) * 1000, "ms"),
            "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        }

    metrics = figures([t / f for t, f in setup], run["scaled_busy_s"], run["scaled_latencies"])
    raw = figures([t for t, _ in setup], run["busy_s"], run["latencies"])
    details = {"unscaled_metrics": raw, "setup": setup, "inputs": workload.inputs(), **run}
    return metrics, details


def traced(name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Untraced, then traced, over the same rounds; report layers and overhead."""
    from tracer import Tracer

    workload = WORKLOADS[name](seed, _vocabulary())
    plain = measure(workload, seconds * TRACE_SHARE)
    workload.rewind()
    tracer = Tracer()
    run = measure(workload, None, rounds_limit=plain["rounds"], calls=tracer.installed)
    run["problems"] += plain["problems"] + workload.finish()
    run["failed"] += plain["failed"]
    run["attempted"] += plain["attempted"]
    layers = tracer.metrics(run["rounds"], getattr(workload, "output_bytes", 0) * run["rounds"])
    metrics = {key: (value, _unit(key)) for key, value in layers.items()}
    metrics["trace.overhead_pct"] = ((run["scaled_busy_s"] / plain["scaled_busy_s"] - 1) * 100, "%")
    details = {"untraced_scaled_busy_s": plain["scaled_busy_s"], "inputs": workload.inputs(), **run}
    return metrics, details


def _unit(metric: str) -> str:
    if metric == "engine.load_s":
        return "s"
    if metric.endswith("_s"):
        return "s/round"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_mib"):
        return "MiB/round"
    if metric == "tagging.assignments_max":
        return "count"
    return "count/round"


def _vocabulary():
    from inputs import Vocabulary

    return Vocabulary(reference_data())


def _summary(values: list[int]) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arabiclint" / "__init__.py").is_file():
        print(f"error: no arabiclint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global arabiclint, verify, yardstick
    import arabiclint
    import arabiclint.cli
    import verify
    import yardstick

    if Path(arabiclint.__file__).resolve().parent != SRC / "arabiclint":
        print(f"error: imported arabiclint from {arabiclint.__file__}", file=sys.stderr)
        return 2
    os.environ.pop("ARABICLINT_CONFIG", None)

    run = traced if args.trace else end_to_end
    metrics, details = run(args.workload, args.seed, args.seconds)
    problems = details.pop("problems")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "result": result, **details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
