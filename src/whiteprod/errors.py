"""Exception types shared across the calculator."""


class CalcError(Exception):
    """Base class for every error raised by this package."""


class TableMismatch(CalcError):
    """Two elements from different group tables were combined."""


class SubgroupMismatch(CalcError):
    """Coset comparison across different subgroups."""


class UnknownGenerator(CalcError):
    """A generator name is not declared and matches no family."""


class DegreeMismatch(CalcError):
    """Composition, suspension or bracket with incompatible signatures."""


class MixedTargets(CalcError):
    """Operands of a sum or bracket live over different target spaces."""


class NoSuspensionFamily(CalcError):
    """A generator has no declared suspension one step up."""


class NotASuspension(CalcError):
    """Smash realization requires suspension classes."""


class ConflictingRelations(CalcError):
    """Two relations share a left-hand side but disagree on the right."""


class MissingTable(CalcError):
    """An operation needs a group table that is not loaded."""


class UndeterminedResult(CalcError):
    """The relation database cannot certify the requested value."""


class UnknownQuery(CalcError):
    """known_results received a case outside the catalog."""


class UnknownScenario(CalcError):
    """Scenario name not registered."""


class BadLevels(CalcError):
    """Quotient-ring levels outside 0 <= a < b <= r-1."""


class NotInRing(CalcError):
    """Cohomology class with support outside the ring basis."""


class StepLimitExceeded(CalcError):
    """Rewriting did not reach a fixed point within the step budget."""


class FlattenLimitExceeded(CalcError):
    """Flattening would build a formal sum with more atoms than its limit."""


class DepthLimitExceeded(CalcError):
    """Bracket expansion nested deeper than its depth budget."""


class DisplayLimitExceeded(CalcError):
    """A result coefficient has more digits than Python turns into text."""


class RelationsFileError(CalcError):
    """Malformed line in a relations file."""

    def __init__(self, message: str, path: str = "", lineno: int = 0):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}" if lineno else message)


class ExprSyntaxError(CalcError):
    """Surface-syntax error; carries 1-based line/column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class ListingLimitExceeded(CalcError):
    """A basis listing would hold more entries than its limit."""
