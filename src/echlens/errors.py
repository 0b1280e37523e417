"""The three errors the library raises for its callers to tell apart."""


class EchLensError(Exception):
    """Bad input, for which the CLI exits 2; the base of the other two."""


class ResourceLimit(EchLensError):
    """A budget was exceeded: the CLI exits 3."""


class ParseError(EchLensError):
    """Text input failed to parse; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
