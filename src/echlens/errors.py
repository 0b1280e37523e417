"""Exception hierarchy shared by all echlens modules."""


class EchLensError(Exception):
    """Base class for all library errors."""


class DomainError(EchLensError):
    """A candidate boundary failed validation."""


class EmptyBoundary(DomainError):
    pass


class EndpointNotOnRay(DomainError):
    pass


class VertexOutsideCone(DomainError):
    pass


class NotGraphOfFunction(DomainError):
    pass


class ComplementNotConvex(DomainError):
    pass


class PathError(EchLensError):
    """A candidate lattice path failed validation."""


class ZeroEdge(PathError):
    pass


class MismatchedN(EchLensError):
    pass


class DeltaTooLarge(EchLensError):
    pass


class DegenerateEdge(EchLensError):
    pass


class InvalidVertex(EchLensError):
    pass


class ResourceLimit(EchLensError):
    pass


class NonPositivePeriod(EchLensError):
    pass


class InsufficientLength(EchLensError):
    pass


class HomologyNotZero(EchLensError):
    pass


class ParseError(EchLensError):
    """Text input failed to parse; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
