import random
import time

import pytest

from cremona_bounds import intlinalg, torus_rank
from cremona_bounds.cyclotomic import cyclotomic_poly
from cremona_bounds.errors import DomainError
from cremona_bounds.intlinalg import IntMatrix, companion_matrix
from cremona_bounds.numth import euler_phi, is_prime
from cremona_bounds.sampling import random_finite_order_matrix, random_unimodular
from cremona_bounds.torus_rank import (
    GaloisTorusPresentation,
    canonical_eps,
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


class TestPresentation:
    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            GaloisTorusPresentation(3, IntMatrix.identity(2), 1)

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
        assert canonical_eps(7, 1) == 1

    def test_order_four_mod_five(self):
        # smallest residue of order 4 mod 5 is 2; eps = 2^-1 = 3
        assert canonical_eps(5, 4) == 3

    def test_not_dividing(self):
        with pytest.raises(DomainError):
            canonical_eps(7, 4)


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

    def test_report_key_order(self):
        pres = GaloisTorusPresentation(1, IntMatrix([[-1]]), 2)
        assert list(multiplicity_chain_check(pres, 3).to_dict()) == [
            "p", "t", "eps", "factors", "total_multiplicity", "total_bound",
            "per_eps_eigenspace_rank", "violations", "passed",
        ]

    def test_violations_fail_the_report(self, monkeypatch):
        # multiplicity 2 of eps in Phi_2 exceeds phi(2) / phi(2) = 1, and the
        # total exceeds floor(1 / phi(2)) = 1
        monkeypatch.setattr(torus_rank, "root_multiplicity", lambda pbar, eps: 2)
        pres = GaloisTorusPresentation(1, IntMatrix([[-1]]), 2)
        report = multiplicity_chain_check(pres, 3)
        assert report.violations == [
            {"index": 2, "multiplicity": 2, "phi": 1, "phi_t": 1},
            {"total_multiplicity": 2, "total_bound": 1},
        ]
        assert report.to_dict()["passed"] is False


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


class TestFactorOnce:
    def test_one_char_poly_per_torus(self, monkeypatch):
        calls = []
        original = intlinalg.char_poly
        monkeypatch.setattr(intlinalg, "char_poly",
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
