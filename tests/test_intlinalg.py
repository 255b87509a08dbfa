import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from cremona_bounds import intlinalg
from cremona_bounds.cyclotomic import IntPoly, cyclotomic_poly
from cremona_bounds.errors import (
    DomainError,
    NotCyclotomicProduct,
    NotFiniteOrder,
    VerificationError,
)
from cremona_bounds.intlinalg import (
    IntMatrix,
    char_poly,
    companion_matrix,
    cyclotomic_factorization,
    kernel_dim_mod_p,
    matrix_order,
    smith_normal_form,
)
from cremona_bounds.numth import euler_phi
from cremona_bounds.sampling import random_finite_order_matrix, random_unimodular


def fraction_det(m: IntMatrix) -> int:
    """Independent determinant oracle: Gaussian elimination over Q."""
    d = m.dimension
    a = [[Fraction(x) for x in row] for row in m.rows]
    det = Fraction(1)
    for k in range(d):
        piv = next((i for i in range(k, d) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, d):
            c = a[i][k] * inv
            if c:
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def interpolation_reference(m: IntMatrix) -> IntPoly:
    """Slow char poly reference: Bareiss det(x*I - M) at x = 0..d, then
    Newton interpolation with exact Fraction divided differences."""
    d = m.dimension
    points = list(range(d + 1))
    values = []
    for x in points:
        shifted = IntMatrix(
            [x - v if i == j else -v for j, v in enumerate(row)]
            for i, row in enumerate(m.rows)
        )
        values.append(shifted.det())
    coeffs = [Fraction(v) for v in values]
    for j in range(1, d + 1):
        for i in range(d, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (points[i] - points[i - j])
    assert all(c.denominator == 1 for c in coeffs)
    acc = IntPoly((int(coeffs[d]),))
    for i in range(d - 1, -1, -1):
        acc = acc * IntPoly((-points[i], 1)) + IntPoly((int(coeffs[i]),))
    return acc


def sympy_char_poly(m: IntMatrix) -> IntPoly:
    coeffs = sympy.Matrix(m.rows).charpoly().all_coeffs()
    return IntPoly(int(c) for c in reversed(coeffs))


def schoolbook_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


big_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-(2**64) - 5, 2**64 + 5),
    st.integers(-(2**90), 2**90),
)


@st.composite
def int_matrices(draw, min_dim=1, max_dim=8, entries=big_entries):
    d = draw(st.integers(min_dim, max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                         min_size=d, max_size=d))
    # some rows, and sometimes whole matrices, are zero
    for i in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        rows[i] = [0] * d
    return IntMatrix(rows)


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(DomainError):
            IntMatrix([])

    def test_arithmetic(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert m.scale(2) - m == m
        assert m - m == IntMatrix([[0, 0], [0, 0]])
        assert m @ IntMatrix.identity(2) == m
        assert m**0 == IntMatrix.identity(2)
        assert m**2 == m @ m

    def test_det_bareiss_vs_fraction(self):
        rng = random.Random(42)
        for _ in range(500):
            d = rng.randint(1, 5)
            m = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            )
            assert m.det() == fraction_det(m)

    def test_inverse_unimodular(self):
        rng = random.Random(7)
        for _ in range(50):
            u, u_inv = random_unimodular(rng, rng.randint(1, 6))
            assert (u @ u_inv).is_identity() and (u_inv @ u).is_identity()

    def test_block_diagonal(self):
        b = IntMatrix.block_diagonal([IntMatrix([[2]]), IntMatrix.identity(2)])
        assert b == IntMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestPackedProducts:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_product_vs_schoolbook(self, data):
        a = data.draw(int_matrices())
        b = data.draw(int_matrices(a.dimension, a.dimension))
        assert (a @ b).rows == tuple(map(tuple, schoolbook_mul(a.rows, b.rows)))

    @settings(max_examples=100, deadline=None)
    @given(m=int_matrices(max_dim=5), n=st.integers(0, 6))
    def test_power_vs_repeated_schoolbook(self, m, n):
        expected = IntMatrix.identity(m.dimension).rows
        for _ in range(n):
            expected = schoolbook_mul(expected, m.rows)
        assert (m**n).rows == tuple(map(tuple, expected))

    def test_power_zero_and_one(self):
        m = IntMatrix([[0, -(2**70)], [3, 0]])
        assert m**0 == IntMatrix.identity(2)
        assert m**1 == m
        with pytest.raises(ValueError):
            m ** -1

    def test_dimension_64_product(self):
        rng = random.Random(29)
        a = [[rng.randint(-(2**40), 2**40) for _ in range(64)] for _ in range(64)]
        b = random_finite_order_matrix(rng, 64).rows
        a[5] = [0] * 64
        assert (IntMatrix(a) @ IntMatrix(b)).rows == tuple(
            map(tuple, schoolbook_mul(a, b)))


class TestCharPoly:
    def test_identity(self):
        assert char_poly(IntMatrix.identity(3)) == IntPoly((-1, 3, -3, 1))

    def test_rotation(self):
        assert char_poly(IntMatrix([[0, -1], [1, 0]])) == IntPoly((1, 0, 1))

    def test_hand_cofactor(self):
        assert char_poly(IntMatrix([[2, 1], [1, 1]])) == IntPoly((1, -3, 1))

    def test_companion(self):
        for n in (3, 4, 8, 12):
            phi = cyclotomic_poly(n)
            assert char_poly(companion_matrix(phi)) == phi

    def test_value_at_zero_is_signed_det(self):
        rng = random.Random(11)
        for _ in range(500):
            d = rng.randint(1, 5)
            m = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
            )
            assert char_poly(m)(0) == (-1) ** d * fraction_det(m)

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            char_poly(IntMatrix.identity(65))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), d=st.integers(1, 64))
    @example(seed=0, d=64)
    def test_finite_order_vs_sympy(self, seed, d):
        m = random_finite_order_matrix(random.Random(seed), d)
        assert char_poly(m) == sympy_char_poly(m)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32), d=st.integers(1, 64))
    @example(seed=1, d=64)
    def test_finite_order_vs_reference(self, seed, d):
        m = random_finite_order_matrix(random.Random(seed), d)
        assert char_poly(m) == interpolation_reference(m)

    @settings(max_examples=40, deadline=None)
    @given(m=int_matrices(max_dim=16, entries=st.integers(-(10**6), 10**6)))
    def test_infinite_order_vs_reference_and_sympy(self, m):
        f = char_poly(m)
        assert f == interpolation_reference(m)
        assert f == sympy_char_poly(m)

    def test_large_entries_need_several_primes(self, monkeypatch):
        rng = random.Random(31)
        m = IntMatrix(
            [[rng.randint(-(10**6), 10**6) for _ in range(24)] for _ in range(24)]
        )
        used = []
        original = intlinalg._char_poly_mod
        monkeypatch.setattr(intlinalg, "_char_poly_mod",
                            lambda rows, p: used.append(p) or original(rows, p))
        assert char_poly(m) == sympy_char_poly(m)
        assert len(used) > 3 and used == sorted(used, reverse=True)
        assert all(p < 2**31 for p in used)

    def test_bound_with_irrational_row_norms(self):
        # rows of norm sqrt(2): the coefficients of (X^2 - 2X + 2)^32 reach
        # about 2^70, beyond a bound taken from rounded-down norms
        block = IntMatrix([[1, 1], [-1, 1]])
        m = IntMatrix.block_diagonal([block] * 32)
        assert char_poly(m) == IntPoly((2, -2, 1)) ** 32

    @settings(max_examples=100, deadline=None)
    @given(a=big_entries)
    def test_dimension_one(self, a):
        m = IntMatrix([[a]])
        assert char_poly(m) == IntPoly((-a, 1))
        assert char_poly(m) == interpolation_reference(m) == sympy_char_poly(m)

    def test_trace_cross_check(self, monkeypatch):
        # a wrong residue list: X^2 + X + 1 mod p for the rotation (X^2 + 1)
        monkeypatch.setattr(intlinalg, "_char_poly_mod", lambda rows, p: [1, 1, 1])
        with pytest.raises(VerificationError, match="-trace"):
            char_poly(IntMatrix([[0, -1], [1, 0]]))

    def test_det_cross_check(self, monkeypatch):
        monkeypatch.setattr(IntMatrix, "det", lambda self: 7)
        with pytest.raises(VerificationError, match="constant term"):
            char_poly(IntMatrix([[0, -1], [1, 0]]))


class TestCyclotomicFactorization:
    def test_cube_of_linear(self):
        assert cyclotomic_factorization(IntPoly((-1, 1)) ** 3) == (1, 1, 1)

    def test_four_cycle_standard_rep(self):
        assert cyclotomic_factorization(IntPoly((1, 1, 1, 1))) == (2, 4)

    def test_not_cyclotomic(self):
        with pytest.raises(NotCyclotomicProduct):
            cyclotomic_factorization(IntPoly((1, -3, 1)))

    def test_nonmonic_rejected(self):
        with pytest.raises(DomainError):
            cyclotomic_factorization(IntPoly((1, 2)))

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(60):
            indices = sorted(
                rng.choice(range(1, 13)) for _ in range(rng.randint(1, 4))
            )
            f = IntPoly((1,))
            for n in indices:
                f = f * cyclotomic_poly(n)
            assert cyclotomic_factorization(f) == tuple(indices)

    def test_totient_sum_equals_degree(self):
        rng = random.Random(5)
        for _ in range(100):
            m = random_finite_order_matrix(rng, rng.randint(1, 6))
            indices = cyclotomic_factorization(char_poly(m))
            assert sum(euler_phi(i) for i in indices) == m.dimension


class TestMatrixOrder:
    def test_identity(self):
        assert matrix_order(IntMatrix.identity(4)) == 1

    def test_rotation(self):
        assert matrix_order(IntMatrix([[0, -1], [1, 0]])) == 4

    def test_unipotent(self):
        with pytest.raises(NotFiniteOrder):
            matrix_order(IntMatrix([[1, 1], [0, 1]]))

    def test_non_cyclotomic_char_poly(self):
        with pytest.raises(NotFiniteOrder):
            matrix_order(IntMatrix([[2, 1], [1, 1]]))

    def test_order_is_lcm_and_power_is_identity(self):
        rng = random.Random(13)
        for _ in range(60):
            m = random_finite_order_matrix(rng, rng.randint(1, 6))
            n = matrix_order(m)
            assert (m**n).is_identity()
            indices = cyclotomic_factorization(char_poly(m))
            assert lcm(*indices) % n == 0
            for k in range(1, n):
                assert not (m**k).is_identity()


class TestSmithNormalForm:
    def test_scalar(self):
        assert smith_normal_form(IntMatrix([[3]])) == (3,)

    def test_coprime_diagonal(self):
        assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])) == (1, 6)

    def test_weil_restriction_matrix(self):
        assert smith_normal_form(IntMatrix([[-1, 2], [2, -1]])) == (1, 3)

    def test_singular(self):
        assert smith_normal_form(IntMatrix([[1, 1], [1, 1]])) == (1, 0)
        assert smith_normal_form(IntMatrix([[0, 0], [0, 0]])) == (0, 0)

    def test_random_invariants(self):
        rng = random.Random(17)
        for _ in range(500):
            d = rng.randint(1, 5)
            m = IntMatrix(
                [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
            )
            invs = smith_normal_form(m)
            assert len(invs) == d
            # divisibility chain, zeros last
            for a, b in zip(invs, invs[1:]):
                if b == 0:
                    continue
                assert a != 0 and b % a == 0
            nonzero = [s for s in invs if s]
            if len(nonzero) == d:
                prod = 1
                for s in nonzero:
                    prod *= s
                assert prod == abs(m.det())
            else:
                assert m.det() == 0

    def test_snf_p_count_equals_kernel_dim(self):
        # the bridge the finite-field oracle relies on
        rng = random.Random(19)
        for _ in range(500):
            d = rng.randint(1, 5)
            m = IntMatrix(
                [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
            )
            invs = smith_normal_form(m)
            for p in (2, 3, 5, 7):
                expected = sum(1 for s in invs if s % p == 0)
                assert expected == kernel_dim_mod_p(m, p)

    @settings(max_examples=100, deadline=None)
    @given(m=int_matrices(max_dim=8, entries=st.integers(-50, 50)))
    def test_vs_sympy_invariant_factors(self, m):
        expected = invariant_factors(sympy.Matrix(m.rows), domain=sympy.ZZ)
        assert smith_normal_form(m) == tuple(int(s) for s in expected)

    def test_basis_change_invariance(self):
        rng = random.Random(23)
        for _ in range(50):
            d = rng.randint(1, 5)
            m = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
            )
            u, _ = random_unimodular(rng, d)
            v, _ = random_unimodular(rng, d)
            assert smith_normal_form(u @ m @ v) == smith_normal_form(m)


class TestKernelDimModP:
    def test_zero_matrix(self):
        for p in (2, 5, 13):
            assert kernel_dim_mod_p(IntMatrix([[0, 0], [0, 0]]), p) == 2

    def test_identity(self):
        for p in (2, 5, 13):
            assert kernel_dim_mod_p(IntMatrix.identity(3), p) == 0

    def test_rank_one_mod_3(self):
        assert kernel_dim_mod_p(IntMatrix([[-1, 2], [2, -1]]), 3) == 1

    @settings(max_examples=200, deadline=None)
    @given(m=int_matrices(max_dim=10, entries=st.integers(-(10**6), 10**6)),
           p=st.sampled_from((2, 3, 5, 7, 65537, 2**31 - 1)))
    def test_vs_sympy_rank_over_gf_p(self, m, p):
        rank = DomainMatrix.from_list(
            [list(row) for row in m.rows], sympy.ZZ).convert_to(sympy.GF(p)).rank()
        assert kernel_dim_mod_p(m, p) == m.dimension - rank
