import random
import time
from fractions import Fraction
from math import comb, lcm, prod

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
from cremona_bounds.ff_oracle import FiniteFieldTorus, rational_points_structure
from cremona_bounds.intlinalg import (
    MAX_DIMENSION,
    IntMatrix,
    companion_matrix,
    cyclotomic_factorization,
    finite_order_indices,
    kernel_dim_mod_p,
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
    """Slow char poly reference: sympy's det(x*I - M) at x = 0..d, then
    Newton interpolation with exact Fraction divided differences."""
    d = m.dimension
    points = list(range(d + 1))
    values = []
    for x in points:
        shifted = [[x - v if i == j else -v for j, v in enumerate(row)]
                   for i, row in enumerate(m.rows)]
        values.append(int(DomainMatrix.from_list(shifted, sympy.ZZ).det()))
    coeffs = [Fraction(v) for v in values]
    for j in range(1, d + 1):
        for i in range(d, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (points[i] - points[i - j])
    assert all(c.denominator == 1 for c in coeffs)
    # Newton form to coefficients: acc <- acc * (X - x_i) + c_i
    acc = [int(coeffs[d])]
    for i in range(d - 1, -1, -1):
        acc = [a - points[i] * b for a, b in zip([0] + acc, acc + [0])]
        acc[0] += int(coeffs[i])
    return IntPoly(acc)


def sympy_char_poly(m: IntMatrix) -> IntPoly:
    coeffs = sympy.Matrix(m.rows).charpoly().all_coeffs()
    return IntPoly(int(c) for c in reversed(coeffs))


def checked_char_poly(m: IntMatrix) -> IntPoly:
    """The char poly of a finite-order M by the library's one route: the
    product of Phi_d over the checked indices of `finite_order_indices`."""
    return prod(map(cyclotomic_poly, finite_order_indices(m)), start=IntPoly([1]))


def assert_residues_of(m: IntMatrix, ref: IntPoly):
    """Each residue list of `_residues(m)` is ref mod its prime, and the primes
    multiply past twice ref's largest coefficient: the bound on which the
    finite-order check accepts a lift that agrees with every list."""
    modulus = 1
    for p, residues in intlinalg._residues(m):
        assert residues == [c % p for c in ref.coeffs], p
        modulus *= p
    assert modulus > 2 * max(map(abs, ref.coeffs))


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

    def test_dimension_cap_at_construction(self):
        with pytest.raises(DomainError, match="exceeds cap 64"):
            IntMatrix([[int(i == j) for j in range(65)] for i in range(65)])
        assert IntMatrix.identity(MAX_DIMENSION).dimension == 64

    @pytest.mark.parametrize("entry", [1.9, 1.0, "1"])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(TypeError):
            IntMatrix([[entry, 0], [0, 1]])

    def test_arithmetic(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert m.shift(1, 0) == m
        assert m.shift(2, 1) == IntMatrix([[1, 4], [6, 7]])
        assert m.shift(0, -3) == IntMatrix([[3, 0], [0, 3]])
        assert IntMatrix.identity(2).shift(-1, 0) == IntMatrix([[-1, 0], [0, -1]])
        assert m @ IntMatrix.identity(2) == m
        assert m**0 == IntMatrix.identity(2)
        assert m**2 == m @ m

    def test_inverse_unimodular(self):
        rng = random.Random(7)
        for _ in range(50):
            u, u_inv = random_unimodular(rng, rng.randint(1, 6))
            one = IntMatrix.identity(u.dimension)
            assert u @ u_inv == one and u_inv @ u == one

    def test_block_diagonal(self):
        b = IntMatrix.block_diagonal([IntMatrix([[2]]), IntMatrix.identity(2)])
        assert b == IntMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_product_dimension_mismatch(self):
        with pytest.raises(DomainError, match="^dimension mismatch$"):
            IntMatrix.identity(2) @ IntMatrix.identity(3)

    @pytest.mark.parametrize("poly", [IntPoly([1, 2]), IntPoly([1])], ids=["non-monic", "constant"])
    def test_companion_needs_monic_nonconstant(self, poly):
        message = "^companion matrix needs a monic polynomial of degree >= 1$"
        with pytest.raises(DomainError, match=message):
            companion_matrix(poly)


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
    """Finite-order char polys come from `finite_order_indices` alone; any
    other matrix is checked through its residues mod the CRT primes."""

    def test_identity(self):
        assert checked_char_poly(IntMatrix.identity(3)) == IntPoly((-1, 3, -3, 1))

    def test_rotation(self):
        assert checked_char_poly(IntMatrix([[0, -1], [1, 0]])) == IntPoly((1, 0, 1))

    def test_hand_cofactor(self):
        assert_residues_of(IntMatrix([[2, 1], [1, 1]]), IntPoly((1, -3, 1)))

    def test_companion(self):
        for n in (3, 4, 8, 12):
            phi = cyclotomic_poly(n)
            assert checked_char_poly(companion_matrix(phi)) == phi

    def test_value_at_zero_is_signed_det(self):
        rng = random.Random(11)
        p = next(intlinalg._crt_primes())
        for _ in range(500):
            d = rng.randint(1, 5)
            m = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
            )
            assert intlinalg._char_poly_mod(m.rows, p)[0] == (-1) ** d * fraction_det(m) % p

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            finite_order_indices(IntMatrix.identity(65))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), d=st.integers(1, 64))
    @example(seed=0, d=64)
    def test_finite_order_vs_sympy(self, seed, d):
        m = random_finite_order_matrix(random.Random(seed), d)
        assert checked_char_poly(m) == sympy_char_poly(m)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32), d=st.integers(1, 64))
    @example(seed=1, d=64)
    def test_finite_order_vs_reference(self, seed, d):
        m = random_finite_order_matrix(random.Random(seed), d)
        assert checked_char_poly(m) == interpolation_reference(m)

    @settings(max_examples=40, deadline=None)
    @given(m=int_matrices(max_dim=16, entries=st.integers(-(10**6), 10**6)))
    def test_infinite_order_vs_reference_and_sympy(self, m):
        f = interpolation_reference(m)
        assert f == sympy_char_poly(m)
        assert_residues_of(m, f)

    def test_large_entries_need_several_primes(self, monkeypatch):
        rng = random.Random(31)
        m = IntMatrix(
            [[rng.randint(-(10**6), 10**6) for _ in range(24)] for _ in range(24)]
        )
        used = []
        original = intlinalg._char_poly_mod
        monkeypatch.setattr(intlinalg, "_char_poly_mod",
                            lambda rows, p: used.append(p) or original(rows, p))
        assert_residues_of(m, sympy_char_poly(m))
        assert len(used) > 3 and used == sorted(used, reverse=True)
        assert all(p < 2**62 for p in used)

    def test_first_prime_lifts_every_finite_order_char_poly(self):
        # |c_{d-k}| <= C(d, k) for a finite-order M, so one prime decides the
        # symmetric lift at every d <= MAX_DIMENSION
        assert 2 * comb(MAX_DIMENSION, MAX_DIMENSION // 2) < next(intlinalg._crt_primes())

    def test_bound_with_irrational_row_norms(self):
        # rows of norm sqrt(2): the coefficients of (X^2 - 2X + 2)^32 reach
        # about 2^70, beyond a bound taken from rounded-down norms
        block = IntMatrix([[1, 1], [-1, 1]])
        m = IntMatrix.block_diagonal([block] * 32)
        assert_residues_of(m, IntPoly((2, -2, 1)) ** 32)

    @settings(max_examples=100, deadline=None)
    @given(a=big_entries)
    def test_dimension_one(self, a):
        m = IntMatrix([[a]])
        f = IntPoly((-a, 1))
        assert f == interpolation_reference(m) == sympy_char_poly(m)
        assert_residues_of(m, f)
        if abs(a) == 1:
            assert checked_char_poly(m) == f

    def test_trace_cross_check(self, monkeypatch):
        # the residues of (X - 1)^2 for the swap (X^2 - 1): the lift is Phi_1^2
        # and (sigma - I) v = 0 for v = (1, 1), so only the trace rejects it
        monkeypatch.setattr(intlinalg, "_char_poly_mod", lambda rows, p: [1, p - 2, 1])
        with pytest.raises(VerificationError, match="-trace"):
            finite_order_indices(IntMatrix([[0, 1], [1, 0]]))

    def test_det_cross_check(self, monkeypatch):
        monkeypatch.setattr(intlinalg, "_eliminate", lambda rows, p: (len(rows), 7))
        with pytest.raises(VerificationError, match="constant term"):
            finite_order_indices(IntMatrix([[0, -1], [1, 0]]))

    def test_det_cross_check_sees_the_sign(self, monkeypatch):
        # det of the rotation is 1; -1 is the one other value a finite-order
        # M can have, and it differs from 1 by 2, not by a multiple of P
        monkeypatch.setattr(intlinalg, "_eliminate", lambda rows, p: (len(rows), p - 1))
        with pytest.raises(VerificationError, match="constant term"):
            finite_order_indices(IntMatrix([[0, -1], [1, 0]]))


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

    def test_cap_covers_every_candidate(self):
        # phi by a sieve up to 4 * 64^2: every d with phi(d) <= deg is at most
        # 2 deg^2, the enumeration cap, for each degree up to the 64 x 64 cap
        top = 4 * 64**2
        phi = list(range(top + 1))
        for n in range(2, top + 1):
            if phi[n] == n:
                for m in range(n, top + 1, n):
                    phi[m] -= phi[m] // n
        for deg in range(1, 65):
            worst = max(d for d in range(1, 4 * deg**2 + 1) if phi[d] <= deg)
            assert worst <= 2 * deg**2, deg

    def test_totient_sum_equals_degree(self):
        rng = random.Random(5)
        for _ in range(100):
            m = random_finite_order_matrix(rng, rng.randint(1, 6))
            indices = cyclotomic_factorization(sympy_char_poly(m))
            assert sum(euler_phi(i) for i in indices) == m.dimension


def block_companion() -> IntMatrix:
    """64 x 64 companion blocks of Phi_3, 5, 7, 11, 13, 17, 8, 9 and I_4:
    the Phi_17 block holds rows and columns 34-49."""
    blocks = [companion_matrix(cyclotomic_poly(n)) for n in (3, 5, 7, 11, 13, 17, 8, 9)]
    return IntMatrix.block_diagonal(blocks + [IntMatrix.identity(4)])


def matrix_order(m):
    """Least N >= 1 with M^N = I, from the checked cyclotomic indices."""
    return lcm(*finite_order_indices(m))


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

    def test_small_trace_non_cyclotomic_char_poly(self):
        # X^2 - X - 1 is no product of cyclotomic polynomials
        with pytest.raises(NotFiniteOrder, match="not a product of cyclotomics"):
            matrix_order(IntMatrix([[0, 1], [1, 1]]))

    def test_huge_trace_rejected_before_char_poly(self, monkeypatch):
        # at d = 64 with entries up to 10^30, the CRT bound needs hundreds of
        # primes, which took 14-18 s; the char poly mod P rejects both
        # matrices, the second one with |tr M| = 0 <= d, after one
        # Hessenberg pass each
        rng = random.Random(64)
        rows = [[rng.randint(-10**30, 10**30) for _ in range(64)] for _ in range(64)]
        diagonal_zero = [[0 if i == j else x for j, x in enumerate(row)]
                         for i, row in enumerate(rows)]
        used = []
        original = intlinalg._char_poly_mod
        monkeypatch.setattr(intlinalg, "_char_poly_mod",
                            lambda rows, p: used.append(p) or original(rows, p))
        for m in (IntMatrix(rows), IntMatrix(diagonal_zero)):
            start = time.perf_counter()
            with pytest.raises(NotFiniteOrder, match="mod P is not a product of cyclotomics"):
                finite_order_indices(m)
            assert time.perf_counter() - start < 1
        assert used == [2**62 - 57] * 2

    def test_not_semisimple_rejected_before_char_poly(self, monkeypatch):
        # 32 Jordan blocks at 1 with corners up to 10^40, densely conjugated:
        # the char poly is (X - 1)^64, and (M - I) v != 0 mod P rejects M
        # after one Hessenberg pass, before a CRT over 8,000-bit bounds
        rng = random.Random(5)
        m = IntMatrix.block_diagonal(IntMatrix([[1, rng.randint(1, 10**40)], [0, 1]])
                                     for _ in range(32))
        for _ in range(3):
            u, u_inv = random_unimodular(rng, 64)
            m = u @ m @ u_inv
        used = []
        original = intlinalg._char_poly_mod
        monkeypatch.setattr(intlinalg, "_char_poly_mod",
                            lambda rows, p: used.append(p) or original(rows, p))
        start = time.perf_counter()
        with pytest.raises(NotFiniteOrder, match="not semisimple"):
            finite_order_indices(m)
        assert time.perf_counter() - start < 1
        assert used == [2**62 - 57]

    def test_lift_alone_never_powers(self, monkeypatch):
        # C has order 6,126,120; adding P to an entry of its Phi_17 block keeps
        # the char poly mod P, so the lift is cyclotomic, but not the char
        # poly: powering on the lift would take M^6126120 over Z
        c = block_companion()
        assert finite_order_indices(c) == (1, 1, 1, 1, 3, 5, 7, 8, 9, 11, 13, 17)
        rows = [list(row) for row in c.rows]
        rows[40][36] += next(intlinalg._crt_primes())
        powered = []
        monkeypatch.setattr(IntMatrix, "__pow__", lambda m, n: powered.append(n))
        start = time.perf_counter()
        with pytest.raises(NotFiniteOrder, match="not its lift mod P"):
            finite_order_indices(IntMatrix(rows))
        assert time.perf_counter() - start < 1
        assert powered == []

    def test_two_hessenberg_passes_at_dimension_64(self, monkeypatch):
        # one pass for the lift mod P, one to compare it mod the next prime:
        # the residues mod P are not computed again
        used = []
        original = intlinalg._char_poly_mod
        monkeypatch.setattr(intlinalg, "_char_poly_mod",
                            lambda rows, p: used.append(p) or original(rows, p))
        finite_order_indices(block_companion())
        assert used == [2**62 - 57, 2**62 - 87]

    def test_multiple_of_p_rejected_at_second_prime(self, monkeypatch):
        # I + P*K is I mod P, so both tests mod P pass; its entries of about
        # 10^40 size the CRT at 142 primes, and the lift must fail at the second
        p = next(intlinalg._crt_primes())
        rng = random.Random(7)
        m = IntMatrix([[int(i == j) + p * rng.randint(-10**22, 10**22) for j in range(64)]
                       for i in range(64)])
        used, powered = [], []
        original = intlinalg._char_poly_mod
        monkeypatch.setattr(intlinalg, "_char_poly_mod",
                            lambda rows, p: used.append(p) or original(rows, p))
        monkeypatch.setattr(IntMatrix, "__pow__", lambda m, n: powered.append(n))
        start = time.perf_counter()
        with pytest.raises(NotFiniteOrder, match="not its lift mod P"):
            finite_order_indices(m)
        assert time.perf_counter() - start < 1
        assert powered == []
        assert used == [p, 2**62 - 87]

    def test_order_is_lcm_and_power_is_identity(self):
        rng = random.Random(13)
        for _ in range(60):
            m = random_finite_order_matrix(rng, rng.randint(1, 6))
            n = matrix_order(m)
            one = IntMatrix.identity(m.dimension)
            assert m**n == one
            indices = cyclotomic_factorization(sympy_char_poly(m))
            assert lcm(*indices) % n == 0
            for k in range(1, n):
                assert m**k != one


class TestSmithNormalForm:
    def test_scalar(self):
        assert smith_normal_form(IntMatrix([[3]])) == (3,)

    @pytest.mark.parametrize("diagonal, expected", [
        pytest.param((2, 3), (1, 6), id="coprime"),
        pytest.param((0, 4, 6), (2, 12, 0), id="leading-zero"),
        pytest.param((4, 0, 6, 10), (2, 2, 60, 0), id="inner-zero"),
        pytest.param((0, 0, 3), (3, 0, 0), id="two-zeros"),
        pytest.param((6, 10, 15), (1, 30, 30), id="pairwise-gcds"),
    ])
    def test_diagonal(self, diagonal, expected):
        # the gcd-lcm normalisation on inputs that are already diagonal;
        # expected values from sympy's invariant_factors
        d = len(diagonal)
        m = IntMatrix([[diagonal[i] if i == j else 0 for j in range(d)] for i in range(d)])
        assert smith_normal_form(m) == expected

    def test_point_matrix_at_the_cap(self):
        # q*sigma - I at d = 64 and q = 2^20: the invariants multiply to
        # |det(q*sigma - I)| = prod Phi_{d_i}(q) over the cyclotomic indices
        q = 2**20
        tor = FiniteFieldTorus(q=q, sigma=random_finite_order_matrix(random.Random(0), 64))
        expected = prod(cyclotomic_poly(n)(q) for n in finite_order_indices(tor.sigma))
        assert prod(rational_points_structure(tor)) == expected

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
                assert prod == abs(fraction_det(m))
            else:
                assert fraction_det(m) == 0

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

    @pytest.mark.parametrize("diagonal", [(2, 3), (0, 1), (1, 0, 2)])
    def test_broken_chain_raises(self, monkeypatch, diagonal):
        monkeypatch.setattr(intlinalg, "_smith_diagonal", lambda a: diagonal)
        with pytest.raises(VerificationError, match="does not divide"):
            smith_normal_form(IntMatrix.identity(len(diagonal)))

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

    def test_rank_and_det_vs_fraction(self):
        # the one elimination behind kernel_dim_mod_p and the char-poly
        # cross-check: its rank against sympy's over GF(p), its det against
        # the rational one reduced mod p; every third matrix has a row that
        # is a combination of two others, so it is singular over Z, and
        # every fifth has entries up to 2^90
        rng = random.Random(42)
        for n in range(200):
            d = rng.randint(1, 5)
            e = 2**90 if n % 5 == 0 else 9
            rows = [[rng.randint(-e, e) for _ in range(d)] for _ in range(d)]
            if d >= 3 and n % 3 == 0:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            m = IntMatrix(rows)
            for p in (2, 3, 2**31 - 1, 2**62 - 57):
                rank = DomainMatrix.from_list(rows, sympy.ZZ).convert_to(sympy.GF(p)).rank()
                assert intlinalg._eliminate(m.rows, p) == (rank, fraction_det(m) % p), (rows, p)
