"""Weyl group of PGL4 (= S4) on its cocharacter lattice, and the audit used
in the cubic-surface step of the main bound.

Lattice model: Z^4 / Z*(1,1,1,1), basis = images of e0, e1, e2; the image of
e3 is -(e0+e1+e2). Coordinate permutations descend to 3x3 integer matrices.
"""

from itertools import permutations
from math import prod

from .cyclotomic import IntPoly, cyclotomic_poly, order_t_multiplicity
from .errors import DomainError, Record, Report
from .intlinalg import IntMatrix, finite_order_indices
from .numth import check_prime

ALLOWED_INDICES = {1, 2, 3, 4}


class WeylElement(Record):
    __slots__ = ("permutation", "matrix")


def _quotient_matrix(perm) -> IntMatrix:
    rows = [[0] * 3 for _ in range(3)]
    for j in range(3):
        image = perm[j]
        if image < 3:
            rows[image][j] = 1
        else:
            for i in range(3):
                rows[i][j] = -1
    return IntMatrix(rows)


def enumerate_weyl() -> list:
    """All 24 coordinate permutations with their induced lattice matrices,
    in lexicographic permutation order."""
    return [
        WeylElement(permutation=perm, matrix=_quotient_matrix(perm))
        for perm in permutations(range(4))
    ]


def audit_pgl4(p: int = 3) -> Report:
    """Verify, over all 24 elements: factorization indices lie in {1,2,3,4},
    no element acts as -I, no characteristic polynomial equals (X+1)^3, and
    the multiplicity of -1 mod p as a root of the reduced characteristic
    polynomial never exceeds 2. The char poly is the product of Phi_d over
    the indices of `finite_order_indices`, the one checked route, so the
    multiplicity is the sum over those indices of the lemma's order-2 cell,
    -1 being the only residue of order 2. The prime p must be odd: mod 2,
    -1 is the root 1, of multiplicity 3 for the identity."""
    check_prime(p)
    if p == 2:
        raise DomainError("the audit needs an odd prime: -1 and 1 coincide mod 2")
    elements, violations = [], []
    max_mult = 0
    minus_identity = IntMatrix.identity(3).shift(-1, 0)
    x_plus_1_cubed = IntPoly((1, 1)) ** 3
    for elem in enumerate_weyl():
        indices = finite_order_indices(elem.matrix)
        f = prod(map(cyclotomic_poly, indices), start=IntPoly((1,)))
        mult = sum(order_t_multiplicity(d, p, 2) for d in indices)
        row = {
            "permutation": list(elem.permutation),
            "char_poly": str(f),
            "indices": list(indices),
            "minus_one_multiplicity": mult,
        }
        elements.append(row)
        max_mult = max(max_mult, mult)
        if not set(indices) <= ALLOWED_INDICES:
            violations.append({**row, "fact": "index_outside_{1,2,3,4}"})
        if elem.matrix == minus_identity:
            violations.append({**row, "fact": "minus_identity_present"})
        if f == x_plus_1_cubed:
            violations.append({**row, "fact": "char_poly_(X+1)^3"})
        if mult > 2:
            violations.append({**row, "fact": "minus_one_multiplicity>2"})
    return Report(p=p, element_count=len(elements), elements=elements,
                  max_minus_one_multiplicity=max_mult, violations=violations)

