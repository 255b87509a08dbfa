import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona_bounds.errors import DomainError
from cremona_bounds.ff_oracle import (
    FiniteFieldTorus,
    group_order,
    p_elementary_rank,
    rational_points_structure,
    smallest_field_with_t,
    t_of_finite_field,
)
from cremona_bounds.intlinalg import IntMatrix, kernel_dim_mod_p
from cremona_bounds.sampling import random_finite_order_matrix
from cremona_bounds.torus_rank import sharp_construction, theorem_bound

SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)
SWEEP_P = (2, 3, 5, 7, 11, 13)


class TestFiniteFieldTorus:
    def test_non_prime_power_rejected(self):
        # 2^61 - 1 is prime: its size is checked before trial division
        for q in (1, 6, 12, 100, 4.5, 4.0, True, 2**20 + 1, 2**61 - 1):
            with pytest.raises(DomainError):
                FiniteFieldTorus(q=q, sigma=IntMatrix([[1]]))

    def test_infinite_order_rejected(self):
        from cremona_bounds.errors import NotFiniteOrder

        with pytest.raises(NotFiniteOrder):
            FiniteFieldTorus(q=2, sigma=IntMatrix([[1, 1], [0, 1]]))


class TestRationalPointsStructure:
    def test_split_torus_over_f4(self):
        tor = FiniteFieldTorus(q=4, sigma=IntMatrix([[1]]))
        assert rational_points_structure(tor) == (3,)

    def test_weil_restriction(self):
        tor = FiniteFieldTorus(q=2, sigma=IntMatrix([[0, 1], [1, 0]]))
        assert rational_points_structure(tor) == (1, 3)

    def test_norm_one(self):
        tor = FiniteFieldTorus(q=2, sigma=IntMatrix([[-1]]))
        assert rational_points_structure(tor) == (3,)

    def test_length_equals_dimension(self):
        rng = random.Random(41)
        for _ in range(30):
            d = rng.randint(1, 6)
            tor = FiniteFieldTorus(q=3, sigma=random_finite_order_matrix(rng, d))
            invs = rational_points_structure(tor)
            assert len(invs) == d
            assert all(s >= 1 for s in invs)


class TestPElementaryRank:
    @pytest.mark.parametrize(
        "invs,p,expected",
        [((1, 3), 3, 1), ((3, 9), 3, 2), ((1, 6), 5, 0)],
    )
    def test_examples(self, invs, p, expected):
        assert p_elementary_rank(invs, p) == expected


class TestTOfFiniteField:
    @pytest.mark.parametrize("q,p,expected", [(4, 3, 1), (2, 3, 2), (2, 7, 3)])
    def test_examples(self, q, p, expected):
        assert t_of_finite_field(q, p) == expected

    def test_excluded_characteristic(self):
        with pytest.raises(DomainError):
            t_of_finite_field(9, 3)

    def test_non_prime_power(self):
        with pytest.raises(DomainError):
            t_of_finite_field(6, 5)


class TestGroupOrder:
    def test_split(self):
        assert group_order(FiniteFieldTorus(q=4, sigma=IntMatrix([[1]]))) == 3

    def test_weil_restriction_f9(self):
        tor = FiniteFieldTorus(q=3, sigma=IntMatrix([[0, 1], [1, 0]]))
        assert group_order(tor) == 8

    def test_norm_one_f9(self):
        assert group_order(FiniteFieldTorus(q=3, sigma=IntMatrix([[-1]]))) == 4

    def test_equals_product_of_invariants(self):
        rng = random.Random(43)
        for _ in range(40):
            d = rng.randint(1, 5)
            q = rng.choice(SWEEP_Q)
            tor = FiniteFieldTorus(q=q, sigma=random_finite_order_matrix(rng, d))
            prod = 1
            for s in rational_points_structure(tor):
                prod *= s
            assert group_order(tor) == prod

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), d=st.integers(1, 24),
           q=st.sampled_from((2, 3, 4, 7, 8, 9, 25, 49, 1024, 65537, 2**20)))
    def test_equals_product_of_invariants_hypothesis(self, seed, d, q):
        tor = FiniteFieldTorus(q=q, sigma=random_finite_order_matrix(random.Random(seed), d))
        # three paths: the cyclotomic indices, the Smith form and Bareiss
        order = abs(tor.point_matrix().det())
        assert group_order(tor) == math.prod(rational_points_structure(tor)) == order

    def test_split_torus_power(self):
        for q in (2, 3, 4, 5):
            for d in (1, 2, 3):
                tor = FiniteFieldTorus(q=q, sigma=IntMatrix.identity(d))
                assert group_order(tor) == (q - 1) ** d


class TestOracleEigenspaceEquivalence:
    def test_sweep(self):
        # the module's reason to exist: cokernel p-rank == eigenspace dim
        rng = random.Random(0)
        for _ in range(60):
            d = rng.randint(1, 6)
            sigma = random_finite_order_matrix(rng, d)
            for q in SWEEP_Q:
                tor = FiniteFieldTorus(q=q, sigma=sigma)
                invs = rational_points_structure(tor)
                for p in SWEEP_P:
                    if q % p == 0:
                        continue
                    prank = p_elementary_rank(invs, p)
                    kdim = kernel_dim_mod_p(tor.point_matrix(), p)
                    assert prank == kdim, (d, q, p)
                    t = t_of_finite_field(q, p)
                    assert prank <= theorem_bound(d, t), (d, q, p)


class TestSmallestFieldWithT:
    @pytest.mark.parametrize(
        "p,t,expected", [(2, 1, 3), (3, 2, 2), (7, 3, 2), (5, 4, 2), (7, 6, 3)]
    )
    def test_examples(self, p, t, expected):
        assert smallest_field_with_t(p, t) == expected

    def test_bad_t(self):
        with pytest.raises(DomainError):
            smallest_field_with_t(7, 4)


class TestSharpnessEndToEnd:
    def test_oracle_confirms_attainment(self):
        from cremona_bounds.numth import euler_phi

        for t in (1, 2, 3, 4, 6):
            p = next(
                p for p in (2, 3, 5, 7, 11, 13) if (p - 1) % t == 0
            )
            q = smallest_field_with_t(p, t)
            assert t_of_finite_field(q, p) == t
            for d in range(euler_phi(t), 7):
                pres = sharp_construction(d, t)
                tor = FiniteFieldTorus(q=q, sigma=pres.sigma)
                rank = p_elementary_rank(rational_points_structure(tor), p)
                assert rank == theorem_bound(d, t), (d, t, p, q)
