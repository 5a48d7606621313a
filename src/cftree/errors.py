"""Exception hierarchy shared across the package.

Every error carries a stable ``code`` string; the CLI prints it and maps any
of these to exit status 2.
"""


class CFTreeError(Exception):
    code = "ERROR"


class AlphabetError(CFTreeError):
    code = "ALPHABET"


class UnknownLetterError(CFTreeError):
    code = "UNKNOWN_LETTER"


class UnknownStateError(CFTreeError):
    code = "UNKNOWN_STATE"


class UnknownNodeError(CFTreeError):
    code = "UNKNOWN_NODE"


class NotDeterministicError(CFTreeError):
    """Two distinct transitions share start state and label."""

    code = "NOT_DETERMINISTIC"

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotReducedError(CFTreeError):
    """A transition path reads a letter immediately followed by its inverse."""

    code = "NOT_REDUCED"

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NondeterministicTreeError(CFTreeError):
    code = "NONDETERMINISTIC_TREE"


class RadiusMismatchError(CFTreeError):
    code = "RADIUS_MISMATCH"


class WordNotInLanguageError(CFTreeError):
    code = "WORD_NOT_IN_LANGUAGE"


class MaterializationLimitError(CFTreeError):
    """A finite expansion would exceed the configured node budget."""

    code = "LIMIT_EXCEEDED"


class UsageError(CFTreeError):
    code = "USAGE"


class SchemaError(CFTreeError):
    """A JSON document does not match the expected shape."""

    code = "BAD_DOCUMENT"
