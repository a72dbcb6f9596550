"""Command-line driver.

Subcommands:

    arabiclint check [INPUT]           analyze a file (or - for stdin)
    arabiclint eval [CORPUS]           precision over an annotated corpus
    arabiclint rules validate          load all databases, print counts
    arabiclint lexicon lookup WORD     print every analysis of one word

Exit codes: 0 clean, 1 faults found (or strict-mode eval mismatch),
2 usage or configuration error. The environment variable ARABICLINT_CONFIG
may point at a key = value file supplying defaults for any flag.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import Engine, EngineConfig, data_path, default_config
from .errors import ArabicLintError
from .evaluation import PrecisionResult, load_corpus, run_corpus
from .lexicon import SpellingVerdict, _read_text
from .render import ANSI_CODES, DEFAULT_KIND_COLORS, render_html, render_json, render_text
from .rules import VERBAL
from .segmentation import normalize

CONFIG_ENV_VAR = "ARABICLINT_CONFIG"

_FORMATS = ("text", "json", "html")
_COLORS = ("auto", "always", "never")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _choice(allowed):
    def parse(value: str) -> str:
        if value not in allowed:
            raise argparse.ArgumentTypeError(
                f"expected one of {', '.join(allowed)}, got {value!r}"
            )
        return value

    return parse


# Config file key -> parser of its value, the same check as the equivalent flag.
_CONFIG_KEYS = {
    "lexicon": str,
    "affixes": str,
    "structure-rules": str,
    "conjugation-rules": str,
    "fold-hamza": _parse_bool,
    "keep-diacritics": _parse_bool,
    "format": _choice(_FORMATS),
    "color": _choice(_COLORS),
}


def _load_env_config() -> dict:
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    # _read_text's "cannot read 'PATH': why", saying where PATH came from.
    named = f"cannot read {CONFIG_ENV_VAR} file"
    content = _read_text(path, lambda msg: ArabicLintError(msg.replace("cannot read", named, 1)))
    values = {}
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ArabicLintError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in _CONFIG_KEYS:
            raise ArabicLintError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except argparse.ArgumentTypeError as exc:
            raise ArabicLintError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def _add_engine_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--lexicon", metavar="PATH", help="word database XML")
    parser.add_argument("--affixes", metavar="PATH", help="affix inventory file")
    parser.add_argument("--structure-rules", metavar="PATH", help="structure rules XML")
    parser.add_argument("--conjugation-rules", metavar="PATH", help="conjugation rules XML")
    parser.add_argument(
        "--fold-hamza", type=_parse_bool, default=None, metavar="BOOL",
        help="fold alef-hamza variants to bare alef (default: true)",
    )
    parser.add_argument(
        "--keep-diacritics", type=_parse_bool, default=None, metavar="BOOL",
        help="keep tashkeel instead of stripping it (default: false)",
    )


def _build_config(args) -> EngineConfig:
    config = default_config()
    # An empty path keeps the bundled file.
    if args.lexicon:
        config.lexicon_path = args.lexicon
    if args.affixes:
        config.affixes_path = args.affixes
    if args.structure_rules:
        config.structure_rules_path = args.structure_rules
    if args.conjugation_rules:
        config.conjugation_rules_path = args.conjugation_rules
    if args.fold_hamza is not None:
        config.fold_hamza = args.fold_hamza
    if args.keep_diacritics is not None:
        config.keep_diacritics = args.keep_diacritics
    return config


def _read_input(path: str) -> str:
    # Bytes, decoded whole: spans index the input as given, with no newline
    # translation.
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        return data.decode("utf-8")
    except OSError as exc:  # strerror omits the path
        raise ArabicLintError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ArabicLintError(f"cannot read {path!r}: not valid UTF-8: {exc}") from exc


def _want_color(choice: str, stream) -> bool:
    if choice == "always":
        return True
    if choice == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _parse_color_map(value: str | None) -> dict[str, str]:
    if not value:
        return {}
    mapping: dict[str, str] = {}
    for item in value.split(","):
        kind, _, name = item.partition("=")
        kind = kind.strip()
        name = name.strip()
        if kind not in DEFAULT_KIND_COLORS or name not in ANSI_CODES:
            raise ArabicLintError(f"bad --colors entry {item!r}")
        mapping[kind] = name
    return mapping


def cmd_check(args) -> int:
    kind_colors = _parse_color_map(args.colors)
    config = _build_config(args)
    text = _read_input(args.input)
    report = Engine.from_config(config).analyze_text(text)
    status = 1 if report.faults else 0

    fmt = args.format or "text"
    out = sys.stdout
    try:
        if fmt == "json":
            render_json(report, out)
            out.write("\n")
        elif fmt == "html":
            out.write(render_html(report, text))
        else:
            use_color = _want_color(args.color or "auto", out)
            out.write(render_text(report, text, color=use_color, kind_colors=kind_colors))
        out.flush()
    except BrokenPipeError:
        # The reader went away (`| head`). The verdict stands; point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return status


def cmd_eval(args) -> int:
    config = _build_config(args)
    corpus = load_corpus(args.corpus)
    engine = Engine.from_config(config)
    outcome = run_corpus(corpus, engine)

    print("kind          precision  recall*   |R|  |D+ ∩ R|  |D+|")
    for kind, result in outcome.results.items():
        print(
            f"{kind:<13} {PrecisionResult.render(result.precision):>9}"
            f"  {PrecisionResult.render(result.recall):>7}"
            f"  {result.detected:>4}  {result.hits:>8}  {result.gold:>4}"
        )
    print("* recall is an extension; the original metric is precision only")

    if outcome.diffs:
        print()
        for diff in outcome.diffs:
            mark = " (excluded from strict)" if diff.excluded else ""
            print(
                f"entry {diff.entry + 1} [{diff.kind}]: expected "
                f"{'+' if diff.expected else '-'}, got "
                f"{'+' if diff.actual else '-'}{mark}: {diff.text}"
            )
    else:
        print("\nno verdict differences")

    if args.strict and outcome.strict_failures:
        return 1
    return 0


def cmd_rules_validate(args) -> int:
    engine = Engine.from_config(_build_config(args))
    lexicon, affixes = engine.lexicon, engine.affixes
    structure_rules = engine.structure_rules

    print(f"lexicon: {len(lexicon)} entries, {len(lexicon.categories)} categories")
    print(
        f"affixes: {len(affixes.all_prefixes())} prefixes, "
        f"{len(affixes.all_suffixes())} suffixes (empty affix included)"
    )
    verbal = sum(1 for r in structure_rules if r.kind == VERBAL)
    print(
        f"structure rules: {len(structure_rules)} "
        f"({verbal} verbal, {len(structure_rules) - verbal} nominal)"
    )
    print(f"conjugation rules: {len(engine.conjugation_rules)}")
    for warning in lexicon.warnings:
        print(f"warning: {warning}")
    return 0


def cmd_lexicon_lookup(args) -> int:
    config = _build_config(args)
    word = normalize(args.word, config.normalization).normalized
    if not word:
        raise ArabicLintError(f"word {args.word!r} is empty after normalization")
    engine = Engine.from_config(config)
    analyses = engine.analyses(word).candidates
    verdict = SpellingVerdict.CORRECT if analyses else SpellingVerdict.UNKNOWN
    print(f"{args.word} -> {word}: {verdict.value}")
    for analysis in analyses:
        print(
            f"  {analysis.prefix or '∅'} + {analysis.base} + {analysis.suffix or '∅'}"
            f"  [{analysis.category.name}]"
        )
    return 0 if verdict is SpellingVerdict.CORRECT else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arabiclint",
        description="Spelling, structure and conjugation fault detection "
        "for non-vowelized Arabic text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="analyze a text file or stdin")
    check.add_argument("input", nargs="?", default="-", help="input path or - for stdin")
    _add_engine_flags(check)
    check.add_argument("--format", choices=_FORMATS, default=None)
    check.add_argument("--color", choices=_COLORS, default=None)
    check.add_argument(
        "--colors", metavar="KIND=COLOR,...",
        help="override fault colors, e.g. spelling=red,structure=cyan",
    )
    check.set_defaults(func=cmd_check)

    evaluate = sub.add_parser("eval", help="evaluate detection precision over a corpus")
    evaluate.add_argument(
        "corpus", nargs="?", default=str(data_path("corpus/table_4_1.jsonl")),
        help="JSONL corpus path (default: bundled regression corpus)",
    )
    evaluate.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any verdict difference not marked excluded",
    )
    _add_engine_flags(evaluate)
    evaluate.set_defaults(func=cmd_eval)

    rules = sub.add_parser("rules", help="rule database utilities")
    rules_sub = rules.add_subparsers(dest="rules_command", required=True)
    validate = rules_sub.add_parser("validate", help="load all databases and print counts")
    _add_engine_flags(validate)
    validate.set_defaults(func=cmd_rules_validate)

    lexicon = sub.add_parser("lexicon", help="lexicon utilities")
    lexicon_sub = lexicon.add_subparsers(dest="lexicon_command", required=True)
    lookup = lexicon_sub.add_parser("lookup", help="print every analysis of a word")
    lookup.add_argument("word")
    _add_engine_flags(lookup)
    lookup.set_defaults(func=cmd_lexicon_lookup)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A flag beats ARABICLINT_CONFIG, which beats the built-in default.
        settings = vars(args)
        for key, value in _load_env_config().items():
            name = key.replace("-", "_")
            if name in settings and settings[name] is None:
                settings[name] = value
        return args.func(args)
    except ArabicLintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():  # pragma: no cover - thin wrapper for the console script
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry_point()
