"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of an operation."""


class NotCyclotomicProduct(Exception):
    """A monic integer polynomial is not a product of cyclotomic polynomials."""


class NotFiniteOrder(Exception):
    """An integer matrix has no finite multiplicative order."""


class VerificationError(AssertionError):
    """A checked invariant did not hold: a bug, or a counterexample."""
