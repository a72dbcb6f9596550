"""Rule-driven fault detection for non-vowelized Arabic text.

The pipeline runs five phases over each document: sentence segmentation,
lexical analysis against an XML word database, morphosyntactic labelling,
disambiguation against structure rules, and fault detection proper
(spelling, sentence structure, verb conjugation). All linguistic knowledge
lives in data files; the engine itself is pure mechanism.
"""

from .engine import (
    Engine,
    EngineConfig,
    Fault,
    FaultKind,
    Report,
    check_conjugation,
    data_path,
    default_config,
)
from .errors import (
    AffixLoadError,
    ArabicLintError,
    CorpusError,
    LexiconLoadError,
    RuleLoadError,
)
from .evaluation import (
    EvalSets,
    GoldAnnotation,
    PrecisionResult,
    detection_precision,
    load_corpus,
    run_corpus,
)
from .lexicon import (
    AffixInventory,
    Category,
    LexicalEntry,
    Lexicon,
    MorphAnalysis,
    SpellingVerdict,
    analyze_word,
    check_spelling,
    load_affixes,
    load_lexicon,
)
from .rules import (
    ConjugationRule,
    ConjugationRuleSet,
    MatchOutcome,
    StructureRule,
    load_conjugation_rules,
    load_structure_rules,
    match_structure,
)
from .segmentation import (
    NormalizationOptions,
    NormalizedText,
    Sentence,
    Token,
    normalize,
    split_sentences,
)
from .tagging import SentenceStructure, TaggedToken, disambiguate

__version__ = "0.1.0"

__all__ = [
    "AffixInventory",
    "AffixLoadError",
    "ArabicLintError",
    "Category",
    "ConjugationRule",
    "ConjugationRuleSet",
    "CorpusError",
    "Engine",
    "EngineConfig",
    "EvalSets",
    "Fault",
    "FaultKind",
    "GoldAnnotation",
    "LexicalEntry",
    "Lexicon",
    "LexiconLoadError",
    "MatchOutcome",
    "MorphAnalysis",
    "NormalizationOptions",
    "NormalizedText",
    "PrecisionResult",
    "Report",
    "RuleLoadError",
    "Sentence",
    "SentenceStructure",
    "SpellingVerdict",
    "StructureRule",
    "TaggedToken",
    "Token",
    "analyze_word",
    "check_conjugation",
    "check_spelling",
    "data_path",
    "default_config",
    "detection_precision",
    "disambiguate",
    "load_affixes",
    "load_conjugation_rules",
    "load_corpus",
    "load_lexicon",
    "load_structure_rules",
    "match_structure",
    "normalize",
    "run_corpus",
    "split_sentences",
]
