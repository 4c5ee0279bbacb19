"""Exception types shared across the package.

Every law-violation error carries a ``witness`` attribute with the indices
of the first offending tuple, so callers can report concrete counterexamples
instead of bare booleans.
"""


class ValidationError(Exception):
    """Base class for structural or equational defects in input data."""


class TableShapeError(ValidationError):
    """An operation table has the wrong shape or an out-of-range entry."""


class _WitnessError(ValidationError):
    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message} at {witness}")
        self.witness = witness


class LatticeLawViolation(_WitnessError):
    """A lattice identity (commutativity, associativity, absorption, bounds) fails."""


class MonoidLawViolation(_WitnessError):
    """The multiplicative monoid is not commutative/associative or lacks its unit."""


class ResiduationViolation(_WitnessError):
    """The adjunction between product and implication fails on some triple."""


class DistributivityViolation(_WitnessError):
    """meet does not distribute over join."""


class OperationNotPreserved(_WitnessError):
    """A map fails to commute with an operation or constant."""

    def __init__(self, message, op=None, witness=None):
        super().__init__(message, witness)
        self.op = op


class NotClosed(ValidationError):
    """A carrier subset is not closed under the ambient operations."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidSystem(ValidationError):
    """A diagram of algebras is not a valid directed system."""


class NotPseudocomplemented(ValidationError):
    """A lattice element lacks a pseudocomplement."""


class InvalidArgument(ValueError):
    """An argument lies outside a function's domain: a negative count, or
    an element name the host does not have."""


class SizeLimitExceeded(Exception):
    """A construction or search would exceed the configured size bound."""

    def __init__(self, message, limit=None):
        super().__init__(message)
        self.limit = limit


class ParseError(Exception):
    """Malformed algebra or system file; carries 1-based line and column."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col
