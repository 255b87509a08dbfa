import random
import time

import pytest

from cremona_bounds import cyclotomic, intlinalg, torus_rank
from cremona_bounds.cyclotomic import IntPoly, cyclotomic_poly, reduce_mod, root_multiplicity
from cremona_bounds.errors import DomainError, VerificationError
from cremona_bounds.ff_oracle import (
    FiniteFieldTorus,
    p_elementary_rank,
    rational_points_structure,
    smallest_field_with_t,
)
from cremona_bounds.intlinalg import IntMatrix, companion_matrix
from cremona_bounds.numth import divisors, euler_phi, is_prime, residues_of_order
from cremona_bounds.sampling import random_finite_order_matrix, random_unimodular
from cremona_bounds.torus_rank import (
    GaloisTorusPresentation,
    RankCertificate,
    fixed_point_rank,
    multiplicity_chain_check,
    sharp_construction,
    theorem_bound,
)

SHARP_T = (1, 2, 3, 4, 6)


def smallest_primes_with(t, count):
    out = []
    p = 2
    while len(out) < count:
        if is_prime(p) and (p - 1) % t == 0:
            out.append(p)
        p += 1
    return out


class TestEulerPhi:
    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 2), (12, 4)])
    def test_examples(self, n, expected):
        assert euler_phi(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            euler_phi(0)


class TestTheoremBound:
    @pytest.mark.parametrize("d,t,expected", [(2, 1, 2), (3, 4, 1), (1, 3, 0)])
    def test_examples(self, d, t, expected):
        assert theorem_bound(d, t) == expected

    def test_bad_args(self):
        with pytest.raises(DomainError):
            theorem_bound(0, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 64])
    def test_zero_past_two_d_squared_is_exact(self, d):
        # phi(t) >= sqrt(t / 2) > d for t > 2 d^2, where t is not factored
        for t in range(max(1, 2 * d * d - 200), 2 * d * d + 200):
            assert theorem_bound(d, t) == d // euler_phi(t), (d, t)


class TestPresentation:
    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            GaloisTorusPresentation(3, IntMatrix.identity(2), 1)

    def test_character_order_below_1(self):
        with pytest.raises(DomainError, match="^character order must be >= 1$"):
            GaloisTorusPresentation(1, IntMatrix([[1]]), 0)

    def test_infinite_order_rejected(self):
        from cremona_bounds.errors import NotFiniteOrder

        with pytest.raises(NotFiniteOrder):
            GaloisTorusPresentation(2, IntMatrix([[1, 1], [0, 1]]), 1)


class TestFixedPointRank:
    def test_split_torus(self):
        pres = GaloisTorusPresentation(2, IntMatrix.identity(2), 1)
        cert = fixed_point_rank(pres, 5)
        assert (cert.eigenspace_rank, cert.upper_bound) == (2, 2)
        assert cert.eps_used == 1

    def test_norm_one_torus(self):
        pres = GaloisTorusPresentation(1, IntMatrix([[-1]]), 2)
        cert = fixed_point_rank(pres, 3)
        assert (cert.eigenspace_rank, cert.upper_bound) == (1, 1)
        assert cert.eps_used == 2

    def test_order_four_block(self):
        pres = GaloisTorusPresentation(
            2, companion_matrix(cyclotomic_poly(4)), 4
        )
        cert = fixed_point_rank(pres, 5)
        assert (cert.eigenspace_rank, cert.upper_bound) == (1, 1)
        assert cert.char_poly_indices == (4,)

    def test_unrealizable_character_order(self):
        pres = GaloisTorusPresentation(2, IntMatrix.identity(2), 4)
        with pytest.raises(DomainError):
            fixed_point_rank(pres, 7)

    def test_bound_holds_on_random_corpus(self):
        rng = random.Random(31)
        for _ in range(100):
            d = rng.randint(1, 6)
            sigma = random_finite_order_matrix(rng, d)
            t = rng.choice(SHARP_T)
            p = smallest_primes_with(t, 1)[0]
            cert = fixed_point_rank(GaloisTorusPresentation(d, sigma, t), p)
            assert cert.eigenspace_rank <= cert.upper_bound


class TestCanonicalEps:
    def test_order_one(self):
        pres = GaloisTorusPresentation(1, IntMatrix([[1]]), 1)
        assert fixed_point_rank(pres, 7).eps_used == 1

    def test_order_four_mod_five(self):
        # smallest residue of order 4 mod 5 is 2; eps = 2^-1 = 3
        pres = GaloisTorusPresentation(2, companion_matrix(cyclotomic_poly(4)), 4)
        assert fixed_point_rank(pres, 5).eps_used == 3

    def test_not_dividing(self):
        pres = GaloisTorusPresentation(2, companion_matrix(cyclotomic_poly(4)), 4)
        with pytest.raises(DomainError):
            fixed_point_rank(pres, 7)


class TestMultiplicityChain:
    def test_identity_three(self):
        pres = GaloisTorusPresentation(3, IntMatrix.identity(3), 1)
        report = multiplicity_chain_check(pres, 7)
        assert report.passed
        assert [f["index"] for f in report.factors] == [1, 1, 1]
        assert all(f["multiplicity"] == 1 for f in report.factors)

    def test_phi20_block(self):
        pres = GaloisTorusPresentation(
            8, companion_matrix(cyclotomic_poly(20)), 4
        )
        report = multiplicity_chain_check(pres, 5)
        assert report.passed
        (factor,) = report.factors
        assert factor["multiplicity"] == 4
        assert euler_phi(20) // euler_phi(4) == 4

    def test_phi3_block_order_two(self):
        pres = GaloisTorusPresentation(
            2, companion_matrix(cyclotomic_poly(3)), 2
        )
        report = multiplicity_chain_check(pres, 5)
        assert report.passed
        assert report.total_multiplicity == 0

    def test_per_eps_recorded(self):
        pres = GaloisTorusPresentation(
            2, companion_matrix(cyclotomic_poly(4)), 4
        )
        report = multiplicity_chain_check(pres, 5)
        assert set(report.per_eps_eigenspace_rank) == {2, 3}
        assert all(v == 1 for v in report.per_eps_eigenspace_rank.values())

    def test_one_residue_list(self, monkeypatch):
        # eps is the first key of per_eps_eigenspace_rank, the inverse of the
        # smallest order-t residue, so the list is built once
        calls = []
        original = torus_rank.residues_of_order
        monkeypatch.setattr(torus_rank, "residues_of_order",
                            lambda p, t: calls.append((p, t)) or original(p, t))
        pres = GaloisTorusPresentation(2, companion_matrix(cyclotomic_poly(4)), 4)
        report = multiplicity_chain_check(pres, 13)
        assert calls == [(13, 4)]
        eps_used = fixed_point_rank(pres, 13).eps_used
        assert report.eps == eps_used == next(iter(report.per_eps_eigenspace_rank))

    def test_report_key_order(self):
        pres = GaloisTorusPresentation(1, IntMatrix([[-1]]), 2)
        assert list(multiplicity_chain_check(pres, 3).to_dict()) == [
            "p", "t", "eps", "factors", "total_multiplicity", "total_bound",
            "per_eps_eigenspace_rank", "violations", "passed",
        ]

    def test_violations_fail_the_report(self, monkeypatch):
        # multiplicity 2 of eps in Phi_2 exceeds phi(2) / phi(2) = 1, the
        # total exceeds floor(1 / phi(2)) = 1, and 3 does not divide the order
        # 2 of sigma, so the eigenspace rank 1 must equal the total 2
        monkeypatch.setattr(torus_rank, "order_t_multiplicity", lambda n, p, t: 2)
        pres = GaloisTorusPresentation(1, IntMatrix([[-1]]), 2)
        report = multiplicity_chain_check(pres, 3)
        assert report.violations == [
            {"index": 2, "multiplicity": 2, "phi": 1, "phi_t": 1},
            {"total_multiplicity": 2, "total_bound": 1},
            {"eigenspace_rank": 1, "total_multiplicity": 2, "p_divides_order": False},
        ]
        assert report.to_dict()["passed"] is False

    @pytest.mark.parametrize("blocks,t,p,indices", [
        ([IntMatrix.identity(8)], 1, 7, [1] * 8),
        ([IntMatrix.identity(3), IntMatrix([[-1]]), IntMatrix([[-1]]),
          companion_matrix(cyclotomic_poly(4))], 2, 5, [1, 1, 1, 2, 2, 4]),
    ], ids=["identity-8", "repeated-1-and-2"])
    def test_one_cell_per_distinct_index(self, monkeypatch, blocks, t, p, indices):
        # a repeated index runs its order-t cell once, and every factor that
        # repeats it reads that cell's multiplicity
        calls = []
        original = torus_rank.order_t_multiplicity
        monkeypatch.setattr(torus_rank, "order_t_multiplicity",
                            lambda n, p, t: calls.append(n) or original(n, p, t))
        sigma = IntMatrix.block_diagonal(blocks)
        report = multiplicity_chain_check(GaloisTorusPresentation(sigma.dimension, sigma, t), p)
        assert calls == sorted(set(indices))
        assert [f["index"] for f in report.factors] == indices
        expected = [original(n, p, t) for n in indices]
        assert [f["multiplicity"] for f in report.factors] == expected
        assert report.total_multiplicity == sum(expected)

    def test_disagreeing_residues_fail_loudly(self, monkeypatch):
        # Phi_4 planted as (X - 2)^2 (X - 3) = X^3 - 7X^2 + 16X - 12, through a
        # wrapper that keeps the cache of cyclotomic_poly clean: mod 5 the
        # order-4 residues 2 and 3 are roots of multiplicities 2 and 1. One
        # residue read alone gives 1 at eps = 3; the lemma's cell sees both
        pres = GaloisTorusPresentation(2, companion_matrix(cyclotomic_poly(4)), 4)
        true_poly = cyclotomic.cyclotomic_poly
        planted = IntPoly((-12, 16, -7, 1))
        for module in (cyclotomic, torus_rank):
            monkeypatch.setattr(module, "cyclotomic_poly",
                                lambda n: planted if n == 4 else true_poly(n))
        with pytest.raises(VerificationError, match=r"^order-4 residues disagree on "
                           r"multiplicity for n=4, p=5: 1 of 2 have multiplicity 1$"):
            multiplicity_chain_check(pres, 5)

    def test_factors_match_the_single_residue_reference(self):
        # each factor's multiplicity, read from the lemma's order-t cell, is
        # root_multiplicity's at every order-t residue, one residue at a time
        rng = random.Random(36)
        primes = [p for p in range(2, 32) if is_prime(p)]
        for _ in range(24):
            d = rng.randint(1, 12)
            sigma = random_finite_order_matrix(rng, d)
            for p in primes:
                for t in divisors(p - 1):
                    report = multiplicity_chain_check(GaloisTorusPresentation(d, sigma, t), p)
                    residues = residues_of_order(p, t)
                    for factor in report.factors:
                        pbar = reduce_mod(cyclotomic_poly(factor["index"]), p)
                        assert ({root_multiplicity(pbar, e) for e in residues}
                                == {factor["multiplicity"]}), (factor, p, t)

    @pytest.mark.parametrize("sigma,t,p,divides", [
        ([[1]], 1, 3, False),  # rank 1 = chain sum 1, p does not divide 1
        ([[0, -1], [1, 0]], 4, 5, False),  # rank 1 = chain sum 1, p does not divide 4
        ([[0, 1], [1, 0]], 1, 2, True),  # X^2 - 1 = (X - 1)^2 mod 2: rank 1 < chain sum 2
    ])
    def test_rank_against_chain_sum(self, monkeypatch, sigma, t, p, divides):
        # the true ranks pass; a rank above the chain sum breaks the rule, and
        # one below it does only when p does not divide the order of sigma
        pres = GaloisTorusPresentation(len(sigma), IntMatrix(sigma), t)
        report = multiplicity_chain_check(pres, p)
        assert report.passed
        total = report.total_multiplicity
        for rank, breach in ((total + 1, True), (total - 1, not divides)):
            monkeypatch.setattr(torus_rank, "kernel_dim_mod_p", lambda m, q, r=rank: r)
            expected = {"eigenspace_rank": rank, "total_multiplicity": total,
                        "p_divides_order": divides}
            violations = multiplicity_chain_check(pres, p).violations
            assert violations == ([expected] if breach else [])

    @pytest.mark.parametrize("index,t,p,divides", [
        (4, 4, 13, False),
        (12, 12, 13, False),
        (1, 6, 7, False),
        (5, 4, 5, True),
        (11, 10, 11, True),
        (13, 12, 13, True),
    ])
    def test_one_kernel_unless_p_divides_the_order(self, monkeypatch, index, t, p,
                                                   divides):
        # p not dividing N makes sigma mod p diagonalisable, so one kernel at
        # the canonical eps gives every entry; p | N keeps one kernel per eps
        sigma = companion_matrix(cyclotomic_poly(index))
        calls = []

        def spy(m, q):
            calls.append(m)
            return intlinalg.kernel_dim_mod_p(m, q)

        monkeypatch.setattr(torus_rank, "kernel_dim_mod_p", spy)
        pres = GaloisTorusPresentation(sigma.dimension, sigma, t)
        report = multiplicity_chain_check(pres, p)
        assert report.passed
        assert len(calls) == (euler_phi(t) if divides else 1)
        inverses = [pow(r, -1, p) for r in residues_of_order(p, t)]
        assert list(report.per_eps_eigenspace_rank) == inverses
        for eps, rank in report.per_eps_eigenspace_rank.items():
            assert rank == intlinalg.kernel_dim_mod_p(sigma.shift(1, eps), p), eps


class TestSharpConstruction:
    def test_d1_t1(self):
        pres = sharp_construction(1, 1)
        assert pres.sigma == IntMatrix([[1]])
        assert fixed_point_rank(pres, 5).eigenspace_rank == 1

    def test_d2_t4(self):
        pres = sharp_construction(2, 4)
        assert pres.sigma == IntMatrix([[0, -1], [1, 0]])
        assert fixed_point_rank(pres, 5).eigenspace_rank == 1

    def test_d4_t3(self):
        pres = sharp_construction(4, 3)
        expected = IntMatrix.block_diagonal(
            [companion_matrix(cyclotomic_poly(3))] * 2
        )
        assert pres.sigma == expected
        assert fixed_point_rank(pres, 7).eigenspace_rank == 2

    def test_no_witness(self):
        with pytest.raises(DomainError):
            sharp_construction(1, 3)

    @pytest.mark.parametrize("d", [0, -1, 65, 10**5])
    def test_dimension_outside_cap_builds_nothing(self, d, monkeypatch):
        monkeypatch.setattr(torus_rank, "companion_matrix", None)
        with pytest.raises(DomainError, match=rf"dimension {d} outside \[1, 64\]"):
            sharp_construction(d, 1)

    def test_attains_for_three_smallest_primes(self):
        for t in SHARP_T:
            for d in range(euler_phi(t), 7):
                pres = sharp_construction(d, t)
                for p in smallest_primes_with(t, 3):
                    cert = fixed_point_rank(pres, p)
                    assert cert.eigenspace_rank == theorem_bound(d, t), (d, t, p)


class TestBasisInvariance:
    def test_conjugation_preserves_rank(self):
        rng = random.Random(37)
        for _ in range(20):
            d = rng.randint(1, 6)
            sigma = random_finite_order_matrix(rng, d)
            t = rng.choice(SHARP_T)
            p = smallest_primes_with(t, 1)[0]
            base = fixed_point_rank(GaloisTorusPresentation(d, sigma, t), p)
            for _ in range(10):
                u, u_inv = random_unimodular(rng, d)
                conj = u @ sigma @ u_inv
                cert = fixed_point_rank(GaloisTorusPresentation(d, conj, t), p)
                assert cert.eigenspace_rank == base.eigenspace_rank
                assert cert.char_poly_indices == base.char_poly_indices


def prime_order_classes(ell, dims):
    """(a, b, c, sigma) for every Z-class of order ell in each dimension d in
    dims: sigma is [1]^a + C(Phi_ell)^b + (ell-cycle)^c with b + c >= 1 and
    a + (ell - 1)b + ell c = d, conjugated by random_unimodular(Random(19), d)."""
    cycle = IntMatrix([[int(j == (i + 1) % ell) for j in range(ell)] for i in range(ell)])
    blocks = (IntMatrix.identity(1), companion_matrix(cyclotomic_poly(ell)), cycle)
    for d in dims:
        u, u_inv = random_unimodular(random.Random(19), d)
        for c in range(d // ell + 1):
            for b in range(c == 0, (d - ell * c) // (ell - 1) + 1):
                a = d - ell * c - (ell - 1) * b
                sigma = IntMatrix.block_diagonal(
                    [blocks[0]] * a + [blocks[1]] * b + [blocks[2]] * c)
                yield a, b, c, u @ sigma @ u_inv


class TestPrimeOrderClasses:
    """Every Z-class of prime order ell <= 19 is Z^a + Z[zeta_ell]^b +
    Z[C_ell]^c (Diederichsen, Reiner: Q(zeta_ell) has class number 1). Mod
    ell, sigma is unipotent and each indecomposable block has a
    one-dimensional fixed space, so the rank at p = ell, t = 1 is a + b + c
    in closed form, against a chain sum of (a + c) + (ell - 1)(b + c). All
    815 classes with d <= 16 are checked; ell = 19 first has one at d = 18.
    At d = 64 the classes of order 11 to 19 run the chain at p | d_i, where
    the lemma's cell takes the Frobenius step of Phi_ell = (X - 1)^(ell - 1)."""

    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13, 17])
    def test_rank_in_closed_form(self, ell):
        q = smallest_field_with_t(ell, 1)
        classes = 0
        for a, b, c, sigma in prime_order_classes(ell, range(1, 17)):
            classes += 1
            rank = a + b + c
            report = multiplicity_chain_check(
                GaloisTorusPresentation(sigma.dimension, sigma, 1), ell)
            assert report.passed, (a, b, c)
            assert report.per_eps_eigenspace_rank == {1: rank}, (a, b, c)
            assert report.total_multiplicity == (a + c) + (ell - 1) * (b + c), (a, b, c)
            points = rational_points_structure(FiniteFieldTorus(q, sigma))
            assert p_elementary_rank(points, ell) == rank, (a, b, c)
        assert classes == {2: 508, 3: 187, 5: 64, 7: 33, 11: 13, 13: 9, 17: 1}[ell]

    @pytest.mark.parametrize("ell", [11, 13, 17, 19])
    def test_rank_in_closed_form_at_dimension_64(self, ell):
        classes = 0
        for a, b, c, sigma in prime_order_classes(ell, [64]):
            classes += 1
            rank = a + b + c
            pres = GaloisTorusPresentation(64, sigma, 1)
            report = multiplicity_chain_check(pres, ell)
            assert report.passed, (a, b, c)
            assert report.per_eps_eigenspace_rank == {1: rank}, (a, b, c)
            assert report.total_multiplicity == (a + c) + (ell - 1) * (b + c), (a, b, c)
            cert = RankCertificate.from_chain(pres, report)
            assert (cert.eigenspace_rank, cert.upper_bound) == (rank, 64), (a, b, c)
        assert classes == {11: 25, 13: 19, 17: 10, 19: 9}[ell]


class TestFactorOnce:
    def test_one_char_poly_per_torus(self, monkeypatch):
        calls = []
        original = intlinalg._residues
        monkeypatch.setattr(intlinalg, "_residues",
                            lambda m: calls.append(m) or original(m))
        sigma = random_finite_order_matrix(random.Random(41), 12)
        pres = GaloisTorusPresentation(12, sigma, 4)
        cert = fixed_point_rank(pres, 5)
        report = multiplicity_chain_check(pres, 5)
        assert calls == [sigma]
        assert cert.char_poly_indices == pres.char_poly_indices
        assert [f["index"] for f in report.factors] == list(pres.char_poly_indices)

    def test_indices_not_compared(self):
        sigma = IntMatrix([[0, -1], [1, 0]])
        assert GaloisTorusPresentation(2, sigma, 4) == GaloisTorusPresentation(2, sigma, 4)
        with pytest.raises(TypeError):
            GaloisTorusPresentation(2, sigma, 4, (4,))

    def test_dimension_64_in_interactive_time(self):
        # the target is 0.5 s; 2 s leaves room for a slow shared machine
        sigma = random_finite_order_matrix(random.Random(43), 64)
        start = time.perf_counter()
        pres = GaloisTorusPresentation(64, sigma, 4)
        cert = fixed_point_rank(pres, 5)
        report = multiplicity_chain_check(pres, 5)
        elapsed = time.perf_counter() - start
        assert cert.eigenspace_rank <= cert.upper_bound == 32
        assert report.passed
        assert sum(euler_phi(i) for i in pres.char_poly_indices) == 64
        assert elapsed < 2.0
