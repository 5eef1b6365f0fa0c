"""Exception types shared across the package.

The errors of bad input are the `ValueError`s among them, and the CLI
exits with code 2 on those, with 1 on every other `DynatrackError`.
"""


class DynatrackError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DynatrackError, ValueError):
    """Input file is syntactically malformed.

    Carries enough positional context (line number or JSON path) in the
    message to locate the problem.
    """


class SequenceValidationError(DynatrackError, ValueError):
    """Input parsed but violates a structural invariant.

    Examples: a member appearing in two clusters of one snapshot, an
    empty cluster, a gap in CSV snapshot indices.
    """


class SequencingError(DynatrackError, RuntimeError):
    """Snapshots were processed out of order against the tracking state."""


class TrackingInvariantError(DynatrackError, AssertionError):
    """The tracker broke an invariant of its own output, such as two
    clusters of the newest snapshot carrying one dynamic-cluster id."""


class GenerationError(DynatrackError, ValueError):
    """A scenario specification cannot be realised (e.g. an event would
    detach an empty or a complete cluster)."""


class OracleSizeError(DynatrackError, ValueError):
    """Instance exceeds the size the brute-force reference accepts."""


class OracleInvariantError(DynatrackError, AssertionError):
    """The brute-force reference produced a grouping that fails its own
    post-hoc minimality audit."""


class SchemaError(DynatrackError, ValueError):
    """A result document is missing required fields or has the wrong
    schema version."""
