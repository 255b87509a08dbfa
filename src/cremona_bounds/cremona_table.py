"""The piecewise rank bound for p-elementary subgroups of the plane Cremona
group as a function of (p, t), with field descriptors that compute t."""

from .errors import DomainError, Record
from .numth import (
    check_order_divides,
    check_prime,
    factorize,
    multiplicative_order,
    theorem_bound,
)


MAX_FIELD_SIZE = 2**20


def check_field_size(q: int) -> int:
    """Validate a field size: a prime power q in [2, 2^20], bounded before factoring."""
    if type(q) is not int or not 2 <= q <= MAX_FIELD_SIZE or len(factorize(q)) != 1:
        raise DomainError(f"q = {q} is not a prime power in [2, 2^20]")
    return q


class FiniteField(Record):
    __slots__ = ("q",)

    def __init__(self, q):
        super().__init__(check_field_size(q))


class Rationals(Record):
    __slots__ = ()


class CyclotomicExtension(Record):
    """Q with a primitive m-th root of unity adjoined."""

    __slots__ = ("m",)

    def __init__(self, m):
        if type(m) is not int or m < 1:
            raise DomainError(f"cyclotomic extension index must be an integer >= 1: {m!r}")
        super().__init__(m)


class AlgebraicallyClosed(Record):
    __slots__ = ()


class CremonaBound(Record):
    __slots__ = ("p", "t", "rank_bound", "attained_by")


# Example attaining each rank: P1 x P1 for p = 2, the Fermat cubic for
# (3, 1), else a 2-dimensional torus, whose bound floor(2 / phi(t)) is 0-2.
_EXAMPLES = {
    4: "(Z/2)^4 acting on P1 x P1",
    3: "Fermat cubic surface, rank 3",
    2: "rank-2 torus witness",
    1: "rank-1 torus witness, t in {3, 4, 6}",
    0: "none (rank bound 0)",
}


def cremona_rank_bound(p: int, t: int) -> CremonaBound:
    """Maximal rank of a p-elementary subgroup of the plane Cremona group
    over a perfect field with p-th roots of unity of degree t."""
    check_order_divides(p, t)
    rank = 4 if p == 2 else 3 if p == 3 and t == 1 else theorem_bound(2, t)
    return CremonaBound(p=p, t=t, rank_bound=rank, attained_by=_EXAMPLES[rank])


def t_for_field(k, p: int) -> int:
    """Degree of the extension of k generated by a primitive p-th root of unity."""
    check_prime(p)
    if isinstance(k, FiniteField):
        if k.q % p == 0:
            raise DomainError(f"p = {p} is the characteristic of F_{k.q}")
        return multiplicative_order(k.q, p)
    if isinstance(k, Rationals):
        return p - 1
    if isinstance(k, CyclotomicExtension):
        # Q(zeta_m) meets Q(zeta_p) only in Q unless p | m
        return 1 if k.m % p == 0 else p - 1
    if isinstance(k, AlgebraicallyClosed):
        return 1
    raise DomainError(f"unsupported field descriptor: {k!r}")

