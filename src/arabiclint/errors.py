"""Exception types raised by loaders and the analysis pipeline."""


class ArabicLintError(Exception):
    """Base class for all errors raised by this package."""


class LexiconLoadError(ArabicLintError):
    """The word database could not be loaded or is malformed."""


class AffixLoadError(ArabicLintError):
    """The affix inventory file could not be loaded or is malformed."""


class RuleLoadError(ArabicLintError):
    """A structure or conjugation rule file could not be loaded."""


class CorpusError(ArabicLintError):
    """An annotated corpus file could not be parsed."""

