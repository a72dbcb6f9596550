"""Report rendering: colored terminal text, canonical JSON, and HTML.

Each fault kind has its own color class so faults stay tellable apart at a
glance. Text output is emitted in logical character order; right-to-left
display is the terminal's job and no reordering ever happens here.
"""

from __future__ import annotations

import html
import json
from bisect import bisect_left

from .engine import FaultKind, Report

ANSI_CODES = {
    "red": "31",
    "green": "32",
    "yellow": "33",
    "blue": "34",
    "magenta": "35",
    "cyan": "36",
}

DEFAULT_KIND_COLORS = {
    FaultKind.SPELLING.value: "red",
    FaultKind.STRUCTURE.value: "yellow",
    FaultKind.CONJUGATION.value: "magenta",
}


def paint(text: str, color: str) -> str:
    """Wrap text in an underlined ANSI color."""
    return f"\x1b[4;{ANSI_CODES[color]}m{text}\x1b[0m"


def render_json(report: Report) -> str:
    """Canonical JSON: parsing and re-dumping reproduces identical bytes."""
    return json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True, indent=2)


def canonical_json(obj) -> str:
    """Re-render a parsed report with the same canonical settings."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)


def render_text(
    report: Report,
    text: str,
    color: bool = False,
    kind_colors: dict[str, str] | None = None,
) -> str:
    """Human-readable report; fault spans are colored when `color` is set."""
    colors = dict(DEFAULT_KIND_COLORS)
    if kind_colors:
        colors.update(kind_colors)
    lines: list[str] = []
    spans_by_sentence = {s.index: s.span for s in report.structures}
    for fault in report.faults:
        kind = fault.kind.value
        label = paint(kind, colors[kind]) if color else kind
        lines.append(f"sentence {fault.sentence_index + 1}: {label}: {fault.message}")
        sent_span = spans_by_sentence.get(fault.sentence_index)
        if sent_span is not None:
            lines.append("    " + _excerpt(text, sent_span, fault, color, colors[kind]))
    total = len(report.faults)
    if total:
        per_kind = ", ".join(
            f"{report.stats.get(kind.value, 0)} {kind.value}" for kind in FaultKind
        )
        lines.append(f"{total} fault(s): {per_kind}")
    else:
        lines.append("no faults")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _excerpt(text: str, sent_span, fault, color: bool, color_name: str) -> str:
    start, end = sent_span
    sentence = text[start:end]
    if not color:
        return sentence
    pieces = []
    cursor = start
    for span in sorted(fault.spans):
        s = max(span[0], start)
        e = min(span[1], end)
        if s < cursor or e <= s:
            continue
        pieces.append(sentence[cursor - start : s - start])
        pieces.append(paint(sentence[s - start : e - start], color_name))
        cursor = e
    pieces.append(sentence[cursor - start :])
    return "".join(pieces)


def render_html(report: Report, text: str) -> str:
    """Minimal standalone page with class-tagged <mark> spans per fault kind."""
    # Token faults get inline marks; structure faults class the sentence block.
    marks: list[tuple[int, int, str]] = []
    for fault in report.faults:
        if fault.kind is FaultKind.STRUCTURE:
            continue
        for span in fault.spans:
            marks.append((span[0], span[1], fault.kind.value))
    marks.sort()

    structure_fault_sentences = {
        f.sentence_index for f in report.faults if f.kind is FaultKind.STRUCTURE
    }

    body: list[str] = []
    for record in report.structures:
        start, end = record.span
        classes = ["sentence"]
        if record.index in structure_fault_sentences:
            classes.append("fault-structure")
        inner: list[str] = []
        cursor = start
        # Marks are sorted, so this sentence's are a run starting at its start.
        for i in range(bisect_left(marks, (start,)), len(marks)):
            s, e, kind = marks[i]
            if s > end:
                break
            if e > end:
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
