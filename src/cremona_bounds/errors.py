"""Exception types and the checker report, shared across the package."""

from types import SimpleNamespace


class DomainError(ValueError):
    """Input is outside the mathematical domain of an operation."""


class NotCyclotomicProduct(DomainError):
    """A monic integer polynomial is not a product of cyclotomic polynomials."""


class NotFiniteOrder(DomainError):
    """An integer matrix has no finite multiplicative order."""


class VerificationError(AssertionError):
    """A checked invariant did not hold: a bug, or a counterexample."""


class Report(SimpleNamespace):
    """Result of a checker. The attributes are its JSON keys, in order; the
    last one lists the failures, and the check passed when it is empty."""

    @property
    def passed(self) -> bool:
        return not list(vars(self).values())[-1]

    def to_dict(self) -> dict:
        return {**vars(self), "passed": self.passed}
