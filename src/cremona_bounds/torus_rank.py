"""Rank bound for p-torsion of algebraic tori with an explicit Galois action.

A torus presentation is a lattice dimension d, the integer matrix by which a
chosen Galois element acts on the cocharacter lattice, and the order t of the
cyclotomic character at that element. The bound floor(d / phi(t)) is computed
together with the actual eigenspace rank mod p, and sharpness witnesses are
constructed from companion blocks.

The full Galois group is modeled by the single element g: over a finite field
this is exact (Frobenius topologically generates), over other fields it gives
an upper bound only.
"""

import math

from .cyclotomic import cyclotomic_poly, reduce_mod, root_multiplicity
from .errors import DomainError, Record, Report, VerificationError
from .intlinalg import (
    MAX_DIMENSION,
    IntMatrix,
    companion_matrix,
    finite_order_indices,
    kernel_dim_mod_p,
)
from .numth import euler_phi, residues_of_order, theorem_bound


class GaloisTorusPresentation(Record):
    __slots__ = ("dimension", "sigma", "chi_order")

    def __init__(self, dimension, sigma, chi_order):
        if sigma.dimension != dimension:
            raise DomainError("action matrix dimension must match torus dimension")
        if chi_order < 1:
            raise DomainError("character order must be >= 1")
        finite_order_indices(sigma)  # raises NotFiniteOrder if infinite
        super().__init__(dimension, sigma, chi_order)

    @property
    def char_poly_indices(self) -> tuple:
        """Cyclotomic indices of the char poly of sigma, computed once."""
        return finite_order_indices(self.sigma)


class RankCertificate(Record):
    __slots__ = ("upper_bound", "eigenspace_rank", "char_poly_indices", "eps_used")

    @classmethod
    def from_chain(cls, pres: GaloisTorusPresentation, chain: Report) -> "RankCertificate":
        """The chain's bound and its eigenspace rank at the canonical eigenvalue;
        VerificationError if that rank exceeds the bound."""
        rank, bound = chain.per_eps_eigenspace_rank[chain.eps], chain.total_bound
        if rank > bound:
            raise VerificationError(
                f"eigenspace rank {rank} exceeds bound {bound}: theorem violated"
            )
        return cls(bound, rank, pres.char_poly_indices, chain.eps)


def fixed_point_rank(pres: GaloisTorusPresentation, p: int) -> RankCertificate:
    """Eigenspace rank of the mod-p action at the inverse character value,
    read from `multiplicity_chain_check`, which lists the eigenvalues and
    takes the kernels; VerificationError if it exceeds floor(d / phi(t))."""
    return RankCertificate.from_chain(pres, multiplicity_chain_check(pres, p))


def multiplicity_chain_check(pres: GaloisTorusPresentation, p: int) -> Report:
    """Check mult_eps(Phi_{d_i} mod p) <= phi(d_i)/phi(t) factor by factor.

    Also records the eigenspace rank at every order-t residue and checks it
    against the chain sum, which is the same at every such residue (fact (a)):
    when p does not divide the order N of sigma, X^N - 1 is separable mod p,
    so sigma mod p is diagonalisable, the rank equals the sum and one kernel
    at the canonical residue gives every entry; otherwise it is at most the
    sum, the ranks may differ across residues, and each has its own kernel.
    `RankCertificate.from_chain` reads the certificate of `fixed_point_rank`
    and `torus-rank` from the entry at eps, so they list no residue and take
    no kernel of their own.
    """
    t = pres.chi_order
    # the canonical eigenvalue eps comes first: the inverse mod p of the
    # smallest residue of order t; DomainError unless p is prime and t
    # divides p - 1 (no Galois element realizes t)
    eigenvalues = [pow(residue, -1, p) for residue in residues_of_order(p, t)]
    eps = eigenvalues[0]
    divides = math.lcm(*pres.char_poly_indices) % p == 0
    if divides:
        per_eps = {e: kernel_dim_mod_p(pres.sigma.shift(1, e), p) for e in eigenvalues}
    else:
        per_eps = dict.fromkeys(eigenvalues, kernel_dim_mod_p(pres.sigma.shift(1, eps), p))
    phi_t = euler_phi(t)
    factors, violations = [], []
    total = 0
    for d_i in pres.char_poly_indices:
        mult = root_multiplicity(reduce_mod(cyclotomic_poly(d_i), p), eps)
        total += mult
        factors.append({
            "index": d_i,
            "phi": euler_phi(d_i),
            "multiplicity": mult,
            "bound_numerator": euler_phi(d_i),
            "bound_denominator": phi_t,
        })
        if mult * phi_t > euler_phi(d_i):
            violations.append(
                {"index": d_i, "multiplicity": mult, "phi": euler_phi(d_i),
                 "phi_t": phi_t}
            )
    total_bound = theorem_bound(pres.dimension, t)
    if total > total_bound:
        violations.append({"total_multiplicity": total, "total_bound": total_bound})
    for rank in sorted(set(per_eps.values())):
        if rank > total or (rank < total and not divides):
            violations.append({"eigenspace_rank": rank, "total_multiplicity": total,
                               "p_divides_order": divides})
    return Report(p=p, t=t, eps=eps, factors=factors, total_multiplicity=total,
                  total_bound=total_bound, per_eps_eigenspace_rank=per_eps,
                  violations=violations)


def sharp_construction(d: int, t: int) -> GaloisTorusPresentation:
    """Torus attaining the bound: floor(d/phi(t)) companion blocks of Phi_t
    padded by an identity block; d is checked against the cap first."""
    if not 1 <= d <= MAX_DIMENSION:
        raise DomainError(f"dimension {d} outside [1, {MAX_DIMENSION}]")
    copies = theorem_bound(d, t)
    if not copies:
        raise DomainError(f"phi({t}) > d = {d}: the bound is 0, no witness exists")
    phi_t = euler_phi(t)
    blocks = [companion_matrix(cyclotomic_poly(t))] * copies
    pad = d - copies * phi_t
    if pad:
        blocks.append(IntMatrix.identity(pad))
    return GaloisTorusPresentation(
        dimension=d, sigma=IntMatrix.block_diagonal(blocks), chi_order=t
    )

