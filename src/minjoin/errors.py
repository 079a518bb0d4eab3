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
    """The requested task is refused for this query: `verdict`, which
    names the witness, is not tractable."""

    def __init__(self, verdict, message: str | None = None):
        super().__init__(message or f"intractable: {verdict}")
        self.verdict = verdict


class UnsupportedPredicateError(IntractableQueryError):
    """A refusal for no fold site (an inequality through an existential
    variable that no relation's tuples decide), a limit of restriction
    and not a lower bound; or, with verdict None, the CLI's refusal of a
    ranking declared next to a predicate."""


class OutOfBoundsError(EngineError):
    """Direct-access index is past the last answer. This is a contractual
    signal, not a failure: counting via access probes relies on it."""


class OracleGuardError(EngineError):
    """Brute-force oracle refused an instance above its size guard."""


class InternalInvariantError(EngineError):
    """An internal structural invariant broke; indicates a bug or a
    violated precondition upstream."""
