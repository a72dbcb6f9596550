"""Report rendering: colored terminal text, canonical JSON, and HTML.

Each fault kind has its own color class so faults stay tellable apart at a
glance. Text output is emitted in logical character order; right-to-left
display is the terminal's job and no reordering ever happens here.

Canonical JSON is written by a direct emitter that walks the `Report` and
lays out `json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True,
indent=2)` by hand: keys in sorted order, two-space indent, `[]` for an
empty list, and every string escaped by `json.encoder.encode_basestring`,
the function `json.dumps` itself uses without `ensure_ascii`. With `indent`
set, `json.dumps` runs its pure-Python encoder over every value of the
report; the emitter instead builds the fixed text of each verdict, and of
each fault's kind, message and rule id, once per call, so that a record
costs only its sentence index and span ints. It can stream the document in
batches of records. `canonical_json(report.to_dict())` is its oracle: the
tests hold the two byte-identical on generated reports.
"""

from __future__ import annotations

import html
import json
from itertools import islice
from json.encoder import encode_basestring

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


def render_json(report: Report, out=None) -> str | None:
    """Canonical JSON: parsing and re-dumping reproduces identical bytes.

    Returns the document; or, when `out` is given, writes it to `out` in
    chunks of at most JSON_BATCH records and returns None. Either way there
    is no trailing newline.
    """
    chunks = _json_chunks(report)
    if out is None:
        return "".join(chunks)
    for chunk in chunks:
        out.write(chunk)
    return None


# Records per chunk that `render_json` writes to `out`.
JSON_BATCH = 256

# Most verdicts, and most fault heads, whose fixed text one `render_json`
# call keeps: on novel text nearly every record has its own verdict.
JSON_FRAGMENTS = 1024


def _json_chunks(report: Report):
    stats = ",\n".join(
        [f"    {encode_basestring(k)}: {_json_scalar(v)}" for k, v in sorted(report.stats.items())]
    )
    yield '{\n  "faults": '
    yield from _json_batches(_json_faults(report.faults))
    yield f',\n  "stats": {{\n{stats}\n  }}' if stats else ',\n  "stats": {}'
    yield ',\n  "structures": '
    yield from _json_batches(_json_structures(report.structures))
    yield ',\n  "warnings": '
    yield from _json_batches(f"    {encode_basestring(w)}" for w in report.warnings)
    yield "\n}"


def _json_batches(items):
    """The array of a top-level key, JSON_BATCH rendered `items` per chunk."""
    batch = list(islice(items, JSON_BATCH))
    if not batch:
        yield "[]"
        return
    yield "[\n" + ",\n".join(batch)
    while batch := list(islice(items, JSON_BATCH)):
        yield ",\n" + ",\n".join(batch)
    yield "\n  ]"


def _json_list(items, pad: str) -> str:
    """An array of rendered `items` whose closing bracket sits at indent `pad`."""
    inner = f",\n{pad}  ".join(items)
    return f"[\n{pad}  {inner}\n{pad}]" if inner else "[]"


def _json_scalar(value) -> str:
    """A JSON null, boolean, string or integer."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return encode_basestring(value)
    return int.__repr__(value)


def _json_faults(faults):
    """Each fault's JSON, its text up to the sentence index built once per
    (kind, message, rule_id)."""
    heads: dict = {}
    for fault in faults:
        key = (fault.kind, fault.message, fault.rule_id)
        if (head := heads.get(key)) is None:
            if len(heads) >= JSON_FRAGMENTS:
                heads.clear()
            head = heads[key] = (
                f'    {{\n      "kind": {encode_basestring(fault.kind.value)},'
                f'\n      "message": {encode_basestring(fault.message)},'
                f'\n      "rule_id": {_json_scalar(fault.rule_id)},\n      "sentence": '
            )
        if len(fault.spans) == 1:
            ((start, end),) = fault.spans
            spans = f"[\n        [\n          {start},\n          {end}\n        ]\n      ]"
        else:
            spans = [_json_list(map(int.__repr__, span), "        ") for span in fault.spans]
            spans = _json_list(spans, "      ")
        yield f'{head}{fault.sentence_index},\n      "spans": {spans}\n    }}'


def _json_structures(records):
    """Each record's JSON, the text around its sentence index built once per
    verdict. The report keeps every verdict alive, so their ids differ."""
    fragments: dict = {}
    for record in records:
        verdict = record.verdict
        if (pair := fragments.get(id(verdict))) is None:
            if len(fragments) >= JSON_FRAGMENTS:
                fragments.clear()
            labels = _json_list(map(encode_basestring, verdict.labels), "      ")
            skipped = _json_list(map(int.__repr__, verdict.skipped), "      ")
            pair = fragments[id(verdict)] = (
                f'    {{\n      "labels": {labels},'
                f'\n      "matched": {_json_scalar(verdict.matched)},'
                f'\n      "rule_id": {_json_scalar(verdict.rule_id)},\n      "sentence": ',
                f',\n      "skipped": {skipped},\n      "span": [\n        ',
            )
        start, end = record.span
        yield f"{pair[0]}{record.index}{pair[1]}{start},\n        {end}\n      ]\n    }}"


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
    colors = {**DEFAULT_KIND_COLORS, **(kind_colors or {})}

    def painted(piece: str, fault) -> str:
        return paint(piece, colors[fault.kind.value])

    lines: list[str] = []
    for fault in report.faults:
        kind = fault.kind.value
        label = paint(kind, colors[kind]) if color else kind
        lines.append(f"sentence {fault.sentence_index + 1}: {label}: {fault.message}")
        start, end = report.structures[fault.sentence_index].span
        excerpt = _highlight(text, start, end, (fault,), str, painted) if color else text[start:end]
        lines.append("    " + excerpt)
    if report.faults:
        lines.append(f"{len(report.faults)} fault(s): {_summary(report)}")
    else:
        lines.append("no faults")
    lines.extend(f"warning: {warning}" for warning in report.warnings)
    return "\n".join(lines) + "\n"


def _highlight(text: str, start: int, end: int, faults, plain, wrap) -> str:
    """`text[start:end]`, each of `faults`' spans passed through
    `wrap(piece, fault)` and the text between them through `plain`. The
    spans must lie inside the range, in order and without overlap."""
    pieces = []
    cursor = start
    for fault in faults:
        for s, e in fault.spans:
            pieces.append(plain(text[cursor:s]))
            pieces.append(wrap(text[s:e], fault))
            cursor = e
    pieces.append(plain(text[cursor:end]))
    return "".join(pieces)


def _summary(report: Report) -> str:
    """The fault count of each kind, as `N spelling, N structure, N conjugation`."""
    return ", ".join(f"{report.stats.get(kind.value, 0)} {kind.value}" for kind in FaultKind)


def _mark(piece: str, fault) -> str:
    return f'<mark class="fault-{fault.kind.value}">{html.escape(piece)}</mark>'


def render_html(report: Report, text: str) -> str:
    """Minimal standalone page with class-tagged <mark> spans per fault kind."""
    # One pass over the sentences, one cursor through the faults, which come in
    # the same order. Token faults get inline marks; structure faults class the
    # sentence block.
    faults = report.faults
    i = 0
    body: list[str] = []
    for record in report.structures:
        classes = "sentence"
        marks = []
        while i < len(faults) and faults[i].sentence_index == record.index:
            if faults[i].kind is FaultKind.STRUCTURE:
                classes = "sentence fault-structure"
            else:
                marks.append(faults[i])
            i += 1
        inner = _highlight(text, *record.span, marks, html.escape, _mark)
        body.append(f'<p class="{classes}" dir="rtl">{inner}</p>')

    style = (
        "mark.fault-spelling{background:#fbb}"
        "mark.fault-conjugation{background:#fbf}"
        "p.fault-structure{background:#ffd}"
    )
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<style>{style}</style></head>\n<body>\n"
        + "\n".join(body)
        + f"\n<p class=\"summary\">{_summary(report)}</p>\n</body></html>\n"
    )
