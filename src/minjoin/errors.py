"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base error for all engine failures."""


class QuerySyntaxError(EngineError):
    """Malformed query text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DataFileError(EngineError):
    """Unreadable query file, missing relation file, arity mismatch, or a
    non-integer cell."""


class IntractableQueryError(EngineError):
    """The requested task is classified intractable for this query."""

    def __init__(self, verdict):
        super().__init__(f"intractable: {verdict}")
        self.verdict = verdict


class UnsupportedPredicateError(EngineError):
    """Predicate touches existential variables in a configuration with no
    sound tuple-removal rewrite; the instance is refused rather than
    answered incorrectly."""


class OutOfBoundsError(EngineError):
    """Direct-access index is past the last answer. This is a contractual
    signal, not a failure: counting via access probes relies on it."""


class OracleGuardError(EngineError):
    """Brute-force oracle refused an instance above its size guard."""


class InternalInvariantError(EngineError):
    """An internal structural invariant broke; indicates a bug or a
    violated precondition upstream."""
