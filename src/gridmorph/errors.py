"""Exception hierarchy.

The library raises two branches: InputError for defects in what the user
handed us (files, flags, indices), NumericalError for computations that
are impossible or unstable on otherwise well-formed data; the message
tells the cases apart. The CLI maps them to exit codes 2 and 3 respectively.
"""

from __future__ import annotations


class GridmorphError(Exception):
    pass


class InputError(GridmorphError):
    pass


class NumericalError(GridmorphError):
    pass


class ParseError(InputError):
    """Malformed input file; carries a 1-based line or row number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

