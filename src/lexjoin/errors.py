"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: bad input is 2, out-of-bounds
and not-an-answer are 3, broken internal invariants are 4.
"""


class LexjoinError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LexjoinError):
    """Malformed user input: files, queries, parameters, unbound symbols.

    ``at`` names the part at fault when the check knows it, as a path into the
    checked object: ``("atoms", 1)`` is its second atom and ``("atoms", 1, 0)``
    that atom's first variable.
    """

    def __init__(self, *args, at: tuple = ()):
        super().__init__(*args)
        self.at = at


class ParseError(InputError):
    """Query text rejected; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class OutOfBoundsError(LexjoinError):
    """Requested answer index is >= the number of answers."""


class NotAnAnswerError(LexjoinError):
    """Tuple passed to rank() is not an answer of the query."""


class InternalError(LexjoinError):
    """An internal invariant failed; signals a bug, not bad input."""
