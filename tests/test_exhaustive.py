"""The rank bound on every finite-order sigma in a small box.

For d = 2 and d = 3 the box is every d x d matrix with entries in
{-1, 0, 1} that `finite_order_indices` accepts. For d = 2 it meets every
conjugacy class of finite-order elements of GL_2(Z) (Kuzmanovich and
Pavlichenkov, "Finite groups of matrices whose entries are integers", Amer.
Math. Monthly 109 (2002)): seven classes, told apart here by the char poly
and the Smith form of sigma - I. For d = 3 it meets all 10 char-poly types
with sum phi(d_i) = 3; whether it meets every Z-class (Tahara, Nagoya Math.
J. 41 (1971)) is not tested.

Block sums of box matrices would check nothing new at 4 <= d <= 6: ranks,
chain sums and Smith p-ranks add over blocks, and floor(d / phi(t)) is
superadditive. So those sizes take the companion matrix of every product of
distinct Phi_m of degree 4 to 6: a cyclic lattice, which can differ from
the block sum of its factors when p divides the order N of sigma.

Every case checks, for each p in SWEEP_P and each t | p - 1, that the
multiplicity chain passes, that every per-eps rank equals dim ker(sigma -
eps I mod p), computed here for each eps, and is at most floor(d / phi(t)),
that fixed_point_rank certifies that kernel at the canonical eps with the
bound floor(d / phi(t)), and that the rank at the canonical eps equals the
chain sum when p does not divide N (X^N - 1 is then separable mod p) and is
at most it otherwise; and, for each q in SWEEP_Q and each p not dividing q,
that the p-elementary rank of T(F_q) equals dim ker(q sigma - I mod p),
both at most floor(d / phi(ord_p q)).
"""

from functools import cache
from itertools import combinations, product
from math import lcm, prod

import pytest

from cremona_bounds.cyclotomic import IntPoly, cyclotomic_poly
from cremona_bounds.errors import NotFiniteOrder
from cremona_bounds.ff_oracle import (
    FiniteFieldTorus,
    p_elementary_rank,
    rational_points_structure,
)
from cremona_bounds.intlinalg import (
    IntMatrix,
    companion_matrix,
    finite_order_indices,
    kernel_dim_mod_p,
    smith_normal_form,
)
from cremona_bounds.numth import divisors, euler_phi, multiplicative_order
from cremona_bounds.sweeps import SWEEP_P, SWEEP_Q
from cremona_bounds.torus_rank import (
    GaloisTorusPresentation,
    fixed_point_rank,
    multiplicity_chain_check,
)


@cache
def finite_order_box(d: int) -> tuple:
    """Every d x d matrix with entries in {-1, 0, 1} of finite order."""
    out = []
    for entries in product((-1, 0, 1), repeat=d * d):
        sigma = IntMatrix([entries[i * d:(i + 1) * d] for i in range(d)])
        try:
            finite_order_indices(sigma)
        except NotFiniteOrder:
            continue
        out.append(sigma)
    return tuple(out)


@cache
def cyclic_lattices() -> tuple:
    """Companion matrices of every product of distinct Phi_m of degree 4 to 6."""
    small = [m for m in range(1, 19) if euler_phi(m) <= 6]
    return tuple(
        companion_matrix(prod(map(cyclotomic_poly, ms), start=IntPoly((1,))))
        for r in range(1, len(small) + 1)
        for ms in combinations(small, r)
        if 4 <= sum(map(euler_phi, ms)) <= 6
    )


def chain_cases(matrices) -> tuple:
    """(cases, cases with rank < chain sum) over every sigma, p in SWEEP_P
    and t | p - 1; asserts the chain, that every per-eps entry is the kernel
    dimension of sigma - eps I mod p and within the bound, that
    fixed_point_rank certifies that kernel at the report's eps with the bound
    floor(d / phi(t)), and the equality rule."""
    cases = strict = 0
    for sigma in matrices:
        d, indices = sigma.dimension, finite_order_indices(sigma)
        order = lcm(*indices)
        for p in SWEEP_P:
            for t in divisors(p - 1):
                pres = GaloisTorusPresentation(d, sigma, t)
                report = multiplicity_chain_check(pres, p)
                case = (sigma, p, t)
                assert report.passed, case
                bound = d // euler_phi(t)
                kernels = {}
                for e, r in report.per_eps_eigenspace_rank.items():
                    # the chain takes one kernel for every eps when p does not
                    # divide N; the kernel at each eps is computed here
                    kernels[e] = kernel_dim_mod_p(sigma.shift(1, e), p)
                    assert r == kernels[e] <= bound, (case, e)
                cert = fixed_point_rank(pres, p)
                assert cert.eigenspace_rank == kernels[report.eps], case
                assert (cert.upper_bound, cert.eps_used) == (bound, report.eps), case
                rank = report.per_eps_eigenspace_rank[report.eps]
                if order % p:
                    assert rank == report.total_multiplicity, case
                else:
                    assert rank <= report.total_multiplicity, case
                    strict += rank < report.total_multiplicity
                cases += 1
    return cases, strict


def oracle_cases(matrices) -> int:
    """Number of (sigma, q, p) with p not dividing q; asserts p-rank of
    T(F_q) == dim ker(q sigma - I mod p) <= floor(d / phi(ord_p q))."""
    checks = 0
    for sigma in matrices:
        for q in SWEEP_Q:
            tor = FiniteFieldTorus(q, sigma)
            invariants, points = rational_points_structure(tor), tor.point_matrix()
            for p in SWEEP_P:
                if q % p == 0:
                    continue
                rank = p_elementary_rank(invariants, p)
                assert rank == kernel_dim_mod_p(points, p), (sigma, q, p)
                assert rank <= sigma.dimension // euler_phi(multiplicative_order(q, p))
                checks += 1
    return checks


# d: (finite-order sigma, char-poly types, chain cases, rank < chain sum, oracle checks)
BOX_COUNTS = {2: (24, 6, 480, 20, 840), 3: (1584, 10, 31680, 1576, 55440)}


@pytest.mark.parametrize("d", sorted(BOX_COUNTS))
def test_box(d):
    matrices = finite_order_box(d)
    types = {finite_order_indices(sigma) for sigma in matrices}
    assert all(sum(map(euler_phi, indices)) == d for indices in types)
    counts = (len(matrices), len(types), *chain_cases(matrices), oracle_cases(matrices))
    assert counts == BOX_COUNTS[d]


def test_box_meets_every_gl2z_class():
    # by Latimer-MacDuffee each of Phi_3, Phi_4, Phi_6 is one class, as Z[zeta]
    # is a PID; X^2 - 1 is two: Z^2 is ker(sigma - 1) + ker(sigma + 1) for
    # diag(1, -1), where sigma - I has Smith form (2, 0), not for the swap
    invariants = {(finite_order_indices(sigma), smith_normal_form(sigma.shift(1, 1)))
                  for sigma in finite_order_box(2)}
    assert len(invariants) == 7
    assert {((1, 2), (1, 0)), ((1, 2), (2, 0))} <= invariants


def test_cyclic_lattices_d4_to_d6():
    matrices = cyclic_lattices()
    assert len(matrices) == len(set(matrices)) == 48
    assert {sigma.dimension for sigma in matrices} == {4, 5, 6}
    assert chain_cases(matrices) == (960, 72)
    assert oracle_cases(matrices) == 1680
