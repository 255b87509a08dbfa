"""Exception types, the immutable record and the checker report, shared
across the package."""

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


class Record:
    """Immutable record whose fields are the concrete class's __slots__:
    built from them by position or name, compared, hashed, shown, copied,
    pickled and turned into a dict in field order. A subclass that validates
    defines its own __init__ and ends it with super().__init__; one on a hot
    path may set its fields with object.__setattr__ instead. A cache that is
    not a field is a slot of a base class, so equality, hash, repr, to_dict
    and copies ignore it."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in dict(zip(names, args), **kwargs).items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def to_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))
