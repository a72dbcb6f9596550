"""Independent oracles and small builders shared across test modules.

The oracles deliberately reimplement contracts by brute force (exhaustive
enumeration, naive scanning, naive set arithmetic) so they stay independent
of the code paths they check.
"""

import html
import itertools
import signal
from contextlib import contextmanager

from arabiclint import (
    Category,
    FaultKind,
    LexicalEntry,
    MatchOutcome,
    MorphAnalysis,
    TaggedToken,
    analyze_word,
    disambiguate,
)
from arabiclint.engine import (
    NEGATION_PARTICLES,
    NO_SUBJECT_KEY,
    SUBJECT_FEATURES,
    TENSE_NEGATION,
    TENSE_SIMPLE,
    SentenceVerdict,
)
from arabiclint.rules import ANY_AFFIX
from arabiclint.segmentation import ARABIC_MARKS, SENTENCE_TERMINATORS


def oracle_splits(word, lexicon, affixes):
    """Every (prefix, base, suffix, category) split, by trying all cut points."""
    splits = set()
    prefixes = affixes.all_prefixes()
    suffixes = affixes.all_suffixes()
    for i in range(len(word) + 1):
        for j in range(i + 1, len(word) + 1):  # base word[i:j] non-empty
            prefix, base, suffix = word[:i], word[i:j], word[j:]
            if prefix in prefixes and suffix in suffixes:
                for entry in lexicon.lookup_base(base):
                    splits.add((prefix, base, suffix, entry.category.name))
    return splits


def oracle_sentence_count(normalized):
    """Count sentences by naive splitting on terminators and blank lines."""
    marked = "".join("\x00" if ch in SENTENCE_TERMINATORS else ch for ch in normalized)
    # Collapse blank-line runs into a boundary marker.
    lines = marked.split("\n")
    pieces = []
    current = []
    for line in lines:
        if line.strip("\x00").strip() == "" and line.strip() == "":
            pieces.append(" ".join(current))
            current = []
        else:
            current.append(line)
    pieces.append(" ".join(current))
    segments = []
    for piece in pieces:
        segments.extend(piece.split("\x00"))
    return sum(1 for segment in segments if has_word(segment))


def has_word(segment):
    """Whether a segment holds a word character: a letter, digit or Arabic mark."""
    return any(ch.isalnum() or ch in ARABIC_MARKS for ch in segment)


def oracle_offset_map(text, fold_hamza, keep_diacritics):
    """(normalized, offset map) of `text`, walking one character at a time.

    Tatweel (U+0640) is always dropped and tashkeel (U+064B..U+0652) unless
    kept; every other character survives, an alef variant as bare alef when
    folding, and maps back to its own index.
    """
    folds = {"\u0622": "\u0627", "\u0623": "\u0627", "\u0625": "\u0627", "\u0671": "\u0627"}
    normalized, offsets = [], []
    for i, ch in enumerate(text):
        if ch == "\u0640" or (not keep_diacritics and "\u064b" <= ch <= "\u0652"):
            continue
        normalized.append(folds.get(ch, ch) if fold_hamza else ch)
        offsets.append(i)
    return "".join(normalized), offsets


def oracle_segments(normalized):
    """(start, end, terminator) between boundaries, walking one character at a time.

    A terminator is a one-character boundary. A newline followed, after
    intra-line whitespace only, by another newline starts a blank-line
    boundary that runs through the last newline reachable that way.
    """
    segments = []
    seg_start = i = 0
    n = len(normalized)
    while i < n:
        ch = normalized[i]
        if ch in SENTENCE_TERMINATORS:
            segments.append((seg_start, i, ch))
            seg_start = i + 1
        elif ch == "\n":
            last_newline = i
            j = i + 1
            while j < n and normalized[j] != "\n" and normalized[j].isspace():
                j += 1
            while j < n and normalized[j] == "\n":
                last_newline = j
                j += 1
                while j < n and normalized[j] != "\n" and normalized[j].isspace():
                    j += 1
            if last_newline > i:
                segments.append((seg_start, i, None))
                seg_start = last_newline + 1
                i = last_newline
        i += 1
    if seg_start < n:
        segments.append((seg_start, n, None))
    return segments


def oracle_first_assignment(tagged, rules, skip_categories=("Particule",)):
    """(chosen indices, labels, outcome) of the first matching assignment.

    Walks every candidate assignment in lexicographic order and tries every
    rule in file order against each; when none matches, every token keeps
    its first candidate and the outcome is unmatched.
    """
    active = [
        t
        for t in tagged
        if not all(c.category.name in skip_categories for c in t.candidates)
    ]
    for assignment in itertools.product(*(range(len(t.candidates)) for t in active)):
        labels = tuple(t.candidates[j].category.name for t, j in zip(active, assignment))
        chosen = dict(zip(map(id, active), assignment))
        indices = [chosen.get(id(t), 0) for t in tagged]
        if not labels:
            return indices, labels, MatchOutcome(matched=True)
        for rule in rules:
            if rule.exact:
                if labels == rule.pattern:
                    return indices, labels, MatchOutcome.for_rule(rule.id)
            elif labels[: len(rule.pattern)] == rule.pattern:
                return indices, labels, MatchOutcome.for_rule(rule.id)
    labels = tuple(t.candidates[0].category.name for t in active)
    return [0] * len(tagged), labels, MatchOutcome.unmatched()


def oracle_any_assignment_matches(tagged, rules, skip_categories=("Particule",)):
    """Exhaustively try every candidate assignment against every rule."""
    return oracle_first_assignment(tagged, rules, skip_categories)[2].matched


def oracle_render_html(report, text):
    """render_html by brute force: every mark is tested against every sentence."""
    marks = []
    for fault in report.faults:
        if fault.kind is FaultKind.STRUCTURE:
            continue
        for span in fault.spans:
            marks.append((span[0], span[1], fault.kind.value))
    marks.sort()

    structure_fault_sentences = {
        f.sentence_index for f in report.faults if f.kind is FaultKind.STRUCTURE
    }

    body = []
    for record in report.structures:
        start, end = record.span
        classes = ["sentence"]
        if record.index in structure_fault_sentences:
            classes.append("fault-structure")
        inner = []
        cursor = start
        for s, e, kind in marks:
            if s < start or e > end:
                continue
            inner.append(html.escape(text[cursor:s]))
            inner.append(f'<mark class="fault-{kind}">{html.escape(text[s:e])}</mark>')
            cursor = e
        inner.append(html.escape(text[cursor:end]))
        body.append(f'<p class="{" ".join(classes)}" dir="rtl">{"".join(inner)}</p>')

    summary = ", ".join(
        f"{report.stats.get(kind.value, 0)} {kind.value}" for kind in FaultKind
    )
    style = (
        "mark.fault-spelling{background:#fbb}"
        "mark.fault-conjugation{background:#fbf}"
        "p.fault-structure{background:#ffd}"
    )
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<style>{style}</style></head>\n<body>\n"
        + "\n".join(body)
        + f"\n<p class=\"summary\">{summary}</p>\n</body></html>\n"
    )


def oracle_precision(d_plus, detected):
    """Naive set-intersection precision; None when nothing was detected."""
    if not detected:
        return None
    return len(set(d_plus) & set(detected)) / len(detected)


def tag_known_words(engine, tokens):
    """TaggedTokens of the known words among `tokens`, labelled as the engine does.

    Each known word gets every analysis from `engine.analyses`, the cache
    `Engine.analyze_sentence` labels from; unknown words are left out.
    """
    return [
        TaggedToken(token.ordinal, token.surface, candidates)
        for token in tokens
        if (candidates := engine.analyses(token.surface).candidates)
    ]


def oracle_sentence_verdict(engine, surfaces):
    """The verdict of one sentence, decided over the whole sentence at once.

    Every known word is tagged with all of its analyses, the whole sequence
    is disambiguated, and conjugation reads the TaggedTokens' choices. The
    engine's table, which decides a sentence from its first words, must agree.
    """
    faults, tagged = [], []
    for ordinal, surface in enumerate(surfaces):
        candidates = tuple(analyze_word(surface, engine.lexicon, engine.affixes))
        if candidates:
            tagged.append(TaggedToken(ordinal, surface, candidates))
        else:
            faults.append((FaultKind.SPELLING, ordinal, f"unknown word: {surface}", None))
    structure, outcome = disambiguate(tagged, engine.structure_rules)
    if not outcome.matched and structure.labels:
        faults.append((FaultKind.STRUCTURE, 0, "sentence structure matches no rule", None))
    warnings = ()
    if "Verbe" in structure.labels:
        conj_faults, conj_warnings = oracle_check_conjugation(
            surfaces, tagged, engine.conjugation_rules
        )
        faults.extend(conj_faults)
        warnings = tuple(conj_warnings)
    rank = {FaultKind.SPELLING: 0, FaultKind.STRUCTURE: 1, FaultKind.CONJUGATION: 2}
    faults.sort(key=lambda f: (f[1], rank[f[0]]))
    return SentenceVerdict(
        structure.labels,
        structure.skipped,
        outcome.matched,
        outcome.rule_id,
        tuple(faults),
        warnings,
    )


def oracle_check_conjugation(surfaces, tagged, rules):
    """Conjugation faults and warnings, reading choices off disambiguated TaggedTokens."""
    chosen = {}
    verbs = []
    for t in tagged:
        analysis = chosen[t.ordinal] = t.candidates[t.chosen]
        if analysis.category.name == "Verbe":
            verbs.append((t.ordinal, t.surface, analysis))
    faults, warnings = [], []
    for ordinal, surface, verb in verbs:
        previous = surfaces[ordinal - 1] if ordinal > 0 else None
        tense = TENSE_NEGATION if previous in NEGATION_PARTICLES else TENSE_SIMPLE
        key = None
        i = ordinal - 1
        while i >= 0 and surfaces[i] in NEGATION_PARTICLES:
            i -= 1
        if i >= 0:
            analysis = chosen.get(i)
            if analysis is not None and analysis.category.name == "PronomPersonnel":
                key = analysis.base
        if key is None and ordinal + 1 < len(surfaces):
            analysis = chosen.get(ordinal + 1)
            if analysis is not None:
                key = SUBJECT_FEATURES.get(analysis.category.name)
        if key is None:
            key = NO_SUBJECT_KEY
        rule = rules.lookup(key, tense)
        if rule is None:
            warnings.append(f"no conjugation rule for ({key}, {tense}); verb {surface} not checked")
            continue
        prebase_ok = rule.prebase == ANY_AFFIX or verb.prefix == rule.prebase
        postbase_ok = rule.postbase == ANY_AFFIX or verb.suffix == rule.postbase
        if prebase_ok and postbase_ok:
            continue
        wanted = []
        if not prebase_ok:
            wanted.append(f"prebase {rule.prebase or '(none)'}")
        if not postbase_ok:
            wanted.append(f"postbase {rule.postbase or '(none)'}")
        message = (
            f"verb {surface} does not agree with {key} ({tense}): expected {', '.join(wanted)}"
        )
        faults.append((FaultKind.CONJUGATION, ordinal, message, rule.id))
    return faults, warnings


def synthetic_tagged(ordinal, category_names):
    """A TaggedToken with one single-split candidate per category name."""
    surface = f"w{ordinal}"
    candidates = []
    for order, name in enumerate(category_names):
        entry = LexicalEntry(base=surface, category=Category(name=name), order=order)
        candidates.append(MorphAnalysis(prefix="", suffix="", entry=entry))
    return TaggedToken(ordinal, surface, tuple(candidates))


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when the block runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
