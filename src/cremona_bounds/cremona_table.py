"""The piecewise rank bound for p-elementary subgroups of the plane Cremona
group as a function of (p, t), with field descriptors that compute t."""

from dataclasses import dataclass
from math import lcm

from .errors import DomainError
from .numth import (
    check_prime,
    euler_phi,
    multiplicative_order,
    prime_power_decomposition,
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
        return {
            "p": self.p,
            "t": self.t,
            "rank_bound": self.rank_bound,
            "attained_by": self.attained_by,
        }


def _check_pair(p: int, t: int):
    check_prime(p)
    if t < 1 or (p - 1) % t != 0:
        raise DomainError(
            f"t = {t} does not divide p - 1 = {p - 1}: no perfect field realizes this pair"
        )


def attaining_example(p: int, t: int) -> str:
    """Fixed descriptive identifier of the construction attaining the bound."""
    _check_pair(p, t)
    if p == 2:
        return "(Z/2)^4 acting on P1 x P1"
    if p == 3 and t == 1:
        return "Fermat cubic surface, rank 3"
    if t in (1, 2):
        return "rank-2 torus witness"
    if t in (3, 4, 6):
        return "rank-1 torus witness, t in {3, 4, 6}"
    return "none (rank bound 0)"


def cremona_rank_bound(p: int, t: int) -> CremonaBound:
    """Maximal rank of a p-elementary subgroup of the plane Cremona group
    over a perfect field with p-th roots of unity of degree t."""
    _check_pair(p, t)
    if p == 2:
        rank = 4
    elif p == 3 and t == 1:
        rank = 3
    elif t in (1, 2):
        rank = 2
    elif t in (3, 4, 6):
        rank = 1
    else:
        rank = 0
    return CremonaBound(p=p, t=t, rank_bound=rank, attained_by=attaining_example(p, t))


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

