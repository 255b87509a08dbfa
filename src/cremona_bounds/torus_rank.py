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

from dataclasses import asdict, dataclass

from .cyclotomic import cyclotomic_poly, reduce_mod, root_multiplicity
from .errors import DomainError, Report, VerificationError
from .intlinalg import IntMatrix, companion_matrix, finite_order_indices, kernel_dim_mod_p
from .numth import euler_phi, residues_of_order, theorem_bound


@dataclass(frozen=True)
class GaloisTorusPresentation:
    dimension: int
    sigma: IntMatrix
    chi_order: int

    def __post_init__(self):
        if self.sigma.dimension != self.dimension:
            raise DomainError("action matrix dimension must match torus dimension")
        if self.chi_order < 1:
            raise DomainError("character order must be >= 1")
        finite_order_indices(self.sigma)  # raises NotFiniteOrder if infinite

    @property
    def char_poly_indices(self) -> tuple:
        """Cyclotomic indices of the char poly of sigma, computed once."""
        return finite_order_indices(self.sigma)


@dataclass(frozen=True)
class RankCertificate:
    upper_bound: int
    eigenspace_rank: int
    char_poly_indices: tuple
    eps_used: int

    def to_dict(self) -> dict:
        return asdict(self)


def canonical_eps(p: int, t: int) -> int:
    """Inverse mod p of the smallest positive residue of order t; DomainError
    unless p is prime and t divides p - 1 (no Galois element realizes t)."""
    a = residues_of_order(p, t)[0]
    return pow(a, -1, p)


def _eigenspace_rank(sigma: IntMatrix, eps: int, p: int) -> int:
    """dim ker(sigma - eps*I) over Z/p."""
    return kernel_dim_mod_p(sigma - IntMatrix.identity(sigma.dimension).scale(eps), p)


def fixed_point_rank(pres: GaloisTorusPresentation, p: int) -> RankCertificate:
    """Eigenspace rank of the mod-p action at the inverse character value."""
    eps = canonical_eps(p, pres.chi_order)
    rank = _eigenspace_rank(pres.sigma, eps, p)
    bound = theorem_bound(pres.dimension, pres.chi_order)
    if rank > bound:
        raise VerificationError(
            f"eigenspace rank {rank} exceeds bound {bound}: theorem violated"
        )
    return RankCertificate(
        upper_bound=bound,
        eigenspace_rank=rank,
        char_poly_indices=pres.char_poly_indices,
        eps_used=eps,
    )


def multiplicity_chain_check(pres: GaloisTorusPresentation, p: int) -> Report:
    """Check mult_eps(Phi_{d_i} mod p) <= phi(d_i)/phi(t) factor by factor.

    Also records the eigenspace rank at every order-t residue: when p divides
    the order of the action those ranks may differ across residues, so they
    are reported, not asserted equal.
    """
    t = pres.chi_order
    eps = canonical_eps(p, t)
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
    inverses = (pow(residue, -1, p) for residue in residues_of_order(p, t))
    per_eps = {e: _eigenspace_rank(pres.sigma, e, p) for e in inverses}
    return Report(p=p, t=t, eps=eps, factors=factors, total_multiplicity=total,
                  total_bound=total_bound, per_eps_eigenspace_rank=per_eps,
                  violations=violations)


def sharp_construction(d: int, t: int) -> GaloisTorusPresentation:
    """Torus attaining the bound: floor(d/phi(t)) companion blocks of Phi_t
    padded by an identity block."""
    copies = theorem_bound(d, t)
    phi_t = euler_phi(t)
    if not copies:
        raise DomainError(
            f"phi({t}) = {phi_t} > d = {d}: the bound is 0, no witness exists"
        )
    blocks = [companion_matrix(cyclotomic_poly(t))] * copies
    pad = d - copies * phi_t
    if pad:
        blocks.append(IntMatrix.identity(pad))
    return GaloisTorusPresentation(
        dimension=d, sigma=IntMatrix.block_diagonal(blocks), chi_order=t
    )

