"""Ground truth over finite fields.

A torus over F_q with Frobenius acting on the cocharacter lattice by a
finite-order integer matrix sigma has rational points forming the cokernel of
q*sigma - I. Its Smith invariants give the exact abelian group structure,
from which the p-elementary rank is read off and cross-checked against the
eigenspace computation of the torus-rank module.

Convention: arithmetic Frobenius acts by sigma (not its inverse); the
oracle/eigenspace equivalence sweep in the test suite pins this choice.
"""

from dataclasses import dataclass

from .cremona_table import FiniteField, t_for_field
from .errors import DomainError, VerificationError
from .intlinalg import IntMatrix, matrix_order, smith_normal_form
from .numth import (
    check_order_divides,
    check_prime,
    multiplicative_order,
    prime_power_decomposition,
)

MAX_FIELD_SIZE = 2**20


@dataclass(frozen=True)
class FiniteFieldTorus:
    q: int
    sigma: IntMatrix

    def __post_init__(self):
        check_field_size(self.q)
        matrix_order(self.sigma)  # raises NotFiniteOrder if infinite

    @property
    def dimension(self) -> int:
        return self.sigma.dimension

    def point_matrix(self) -> IntMatrix:
        return self.sigma.scale(self.q) - IntMatrix.identity(self.dimension)


def check_field_size(q: int) -> int:
    """Validate a field size: a prime power q in [2, 2^20]."""
    if prime_power_decomposition(q) is None or q > MAX_FIELD_SIZE:
        raise DomainError(f"q = {q} is not a prime power in [2, 2^20]")
    return q


def rational_points_structure(tor: FiniteFieldTorus) -> tuple:
    """Invariant factors of T(F_q), unit factors retained (length = d)."""
    invariants = smith_normal_form(tor.point_matrix())
    if any(s == 0 for s in invariants):
        raise VerificationError(
            "q*sigma - I is singular; impossible for finite-order sigma and q >= 2"
        )
    return invariants


def p_elementary_rank(invariants, p: int) -> int:
    """Rank of the p-elementary subgroup of a finite abelian group."""
    check_prime(p)
    return sum(1 for s in invariants if s % p == 0)


def t_of_finite_field(q: int, p: int) -> int:
    """Degree of F_q with a primitive p-th root of unity adjoined: ord of q mod p."""
    return t_for_field(FiniteField(q), p)


def group_order(tor: FiniteFieldTorus) -> int:
    """|T(F_q)| = |det(q*sigma - I)|."""
    return abs(tor.point_matrix().det())


def smallest_field_with_t(p: int, t: int) -> int:
    """Smallest prime power q with p not dividing q and ord of q mod p equal t."""
    check_order_divides(p, t)
    for q in range(2, MAX_FIELD_SIZE + 1):
        if q % p == 0 or prime_power_decomposition(q) is None:
            continue
        if multiplicative_order(q, p) == t:
            return q
    raise VerificationError(f"no admissible field for p={p}, t={t}")  # unreachable

