"""The piecewise rank bound for p-elementary subgroups of the plane Cremona
group as a function of (p, t), with field descriptors that compute t."""

from dataclasses import asdict, dataclass
from math import lcm

from .errors import DomainError
from .numth import (
    check_order_divides,
    check_prime,
    euler_phi,
    multiplicative_order,
    prime_power_decomposition,
    theorem_bound,
)


@dataclass(frozen=True)
class FiniteField:
    q: int

    def __post_init__(self):
        if prime_power_decomposition(self.q) is None:
            raise DomainError(f"q = {self.q} is not a prime power")

    def __str__(self):
        return f"F_{self.q}"


@dataclass(frozen=True)
class Rationals:
    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class CyclotomicExtension:
    """Q with a primitive m-th root of unity adjoined."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("cyclotomic extension index must be >= 1")

    def __str__(self):
        return f"Q(zeta_{self.m})"


@dataclass(frozen=True)
class AlgebraicallyClosed:
    def __str__(self):
        return "algebraically closed"


@dataclass(frozen=True)
class CremonaBound:
    p: int
    t: int
    rank_bound: int
    attained_by: str

    def to_dict(self) -> dict:
        return asdict(self)


# Example of each rank a 2-dimensional torus attains, theorem_bound(2, t).
_TORUS_EXAMPLES = {
    2: "rank-2 torus witness",
    1: "rank-1 torus witness, t in {3, 4, 6}",
    0: "none (rank bound 0)",
}


def _table_row(p: int, t: int) -> tuple:
    """(rank bound, attaining example): P1 x P1 for p = 2, the Fermat cubic
    for (3, 1), else the bound floor(2 / phi(t)) of a 2-dimensional torus."""
    check_order_divides(p, t)
    if p == 2:
        return 4, "(Z/2)^4 acting on P1 x P1"
    if p == 3 and t == 1:
        return 3, "Fermat cubic surface, rank 3"
    rank = theorem_bound(2, t)
    return rank, _TORUS_EXAMPLES[rank]


def attaining_example(p: int, t: int) -> str:
    """Fixed descriptive identifier of the construction attaining the bound."""
    return _table_row(p, t)[1]


def cremona_rank_bound(p: int, t: int) -> CremonaBound:
    """Maximal rank of a p-elementary subgroup of the plane Cremona group
    over a perfect field with p-th roots of unity of degree t."""
    rank, example = _table_row(p, t)
    return CremonaBound(p=p, t=t, rank_bound=rank, attained_by=example)


def t_for_field(k, p: int) -> int:
    """Degree of the extension of k generated by a primitive p-th root of unity."""
    check_prime(p)
    if isinstance(k, FiniteField):
        if k.q % p == 0:
            raise DomainError(f"p = {p} is the characteristic of {k}")
        return multiplicative_order(k.q, p)
    if isinstance(k, Rationals):
        return p - 1
    if isinstance(k, CyclotomicExtension):
        return euler_phi(lcm(k.m, p)) // euler_phi(k.m)
    if isinstance(k, AlgebraicallyClosed):
        return 1
    raise DomainError(f"unsupported field descriptor: {k!r}")

