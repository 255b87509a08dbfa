import math
import time
from fractions import Fraction
from functools import lru_cache
from operator import sub
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cremona_bounds import cyclotomic, numth
from cremona_bounds.cyclotomic import (
    IntPoly,
    ModPoly,
    cyclotomic_poly,
    order_t_multiplicity,
    reduce_mod,
    root_multiplicity,
    verify_cyclotomic,
    verify_lemma_range,
)
from cremona_bounds.errors import DomainError, VerificationError
from cremona_bounds.numth import (
    MAX_RESIDUES,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    residues_of_order,
)


class TestIntPoly:
    def test_zero_normalization(self):
        assert IntPoly((0, 0, 0)).coeffs == ()
        assert IntPoly((1, 2, 0)).coeffs == (1, 2)
        assert IntPoly().degree == -1

    def test_arithmetic(self):
        a = IntPoly((1, 1))  # X + 1
        b = IntPoly((-1, 1))  # X - 1
        assert a * b == IntPoly((-1, 0, 1))
        assert a * IntPoly() == IntPoly()
        assert a**0 == IntPoly((1,))
        assert a**3 == IntPoly((1, 3, 3, 1))

    def test_eval(self):
        p = IntPoly((1, -3, 1))  # X^2 - 3X + 1
        assert p(0) == 1
        assert p(3) == 1

    def test_monic_division(self):
        num = IntPoly((-1, 0, 0, 0, 0, 0, 1))  # X^6 - 1
        den = IntPoly((-1, 0, 0, 1))  # X^3 - 1
        q, r = num.divmod_monic(den)
        assert q == IntPoly((1, 0, 0, 1))
        assert not r

    def test_division_by_non_monic_rejected(self):
        with pytest.raises(ValueError, match="^divisor must be monic$"):
            IntPoly((1, 0, 1)).divmod_monic(IntPoly((1, 2)))

    def test_exact_division_failure(self):
        # X^2 + 1 = (X + 1)(X - 1) + 2
        q, r = IntPoly((1, 0, 1)).divmod_monic(IntPoly((-1, 1)))
        assert q == IntPoly((1, 1))
        assert r == IntPoly((2,))

    def test_compose_power(self):
        p = IntPoly((1, 1, 1))
        assert p.compose_power(2) == IntPoly((1, 0, 1, 0, 1))
        assert p.compose_power(1) is p
        assert IntPoly().compose_power(3) == IntPoly()
        with pytest.raises(ValueError):
            p.compose_power(0)

    @pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(1, 2), "1"])
    def test_non_integer_coefficients_rejected(self, bad):
        with pytest.raises(TypeError):
            IntPoly([bad, 1])

    @pytest.mark.parametrize("bad", [2.0, 2.5, Fraction(2), "2"])
    def test_non_integer_power_rejected(self, bad):
        for f in (IntPoly((1, 1, 1)), IntPoly((1, 0, 1)), ModPoly(5, (4, 1))):
            with pytest.raises(TypeError):
                f.compose_power(bad)


class TestModPoly:
    @pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(1, 2), "1"])
    def test_non_integer_coefficients_rejected(self, bad):
        with pytest.raises(TypeError):
            ModPoly(3, [bad, 1])

    def test_compose_power_keeps_modulus(self):
        f = ModPoly(5, (4, 1)).compose_power(3)
        assert f == ModPoly(5, (4, 0, 0, 1))
        assert f.p == 5

    def test_powers_keep_type_and_modulus(self):
        # one __pow__ on the base class builds its 1 by the operand's type
        assert IntPoly((2, 1)) ** 0 == IntPoly((1,))
        one = ModPoly(7, (3, 1)) ** 0
        assert one == ModPoly(7, (1,)) and one.p == 7
        assert ModPoly(7, (3, 1)) ** 2 == ModPoly(7, (2, 6, 1))
        assert ModPoly(7, (3, 0, 1)) ** 7 == ModPoly(7, (3, 0, 1)).compose_power(7)


def x_pow_minus_one(n):
    return IntPoly([-1] + [0] * (n - 1) + [1])


@lru_cache(maxsize=None)
def _division_reference(n):
    """Slow reference: Phi_n = (X^n - 1) / prod_{d|n, d<n} Phi_d by exact long
    division for squarefree n, and Phi_n(X) = Phi_r(X^(n/r)) for r = rad n."""
    r = math.prod(q for q, _ in factorize(n))
    if r != n:
        return _division_reference(r).compose_power(n // r)
    quot = x_pow_minus_one(n)
    for d in divisors(n)[:-1]:
        quot, rem = quot.divmod_monic(_division_reference(d))
        assert not rem
    return quot


@lru_cache(maxsize=None)
def _lift_reference(n):
    """Slow reference for squarefree n: Phi_n(X) = Phi_m(X^q) / Phi_m(X) by
    exact long division, q the largest prime of n and m = n / q. Far cheaper
    than `_division_reference` at n in the thousands."""
    if n == 1:
        return IntPoly((-1, 1))
    q = factorize(n)[-1][0]
    base = _lift_reference(n // q)
    quot, rem = base.compose_power(q).divmod_monic(base)
    assert not rem
    return quot


def _numerator_reference(degrees, size):
    """prod (1 - X^d) mod X^size, one list pass per factor."""
    coeffs = [1] + [0] * (size - 1)
    for d in degrees:
        coeffs[d:] = map(sub, coeffs[d:], coeffs)
    return coeffs


# sympy's expansion time grows with the square of the degree (about 1.5 s at
# Phi_30030 and 30 s at a prime near 30030), so draws stay at phi(n) <= 2000
SYMPY_INDICES = [
    n for n in range(1, 30031)
    if euler_phi(n) <= 2000 and all(e == 1 for _, e in factorize(n))
]
IDENTITY_INDICES = list(range(2, 3001)) + [2**19, 3**12, 999999]


class TestCyclotomicPoly:
    def test_n1(self):
        assert cyclotomic_poly(1) == IntPoly((-1, 1))

    def test_n2(self):
        assert cyclotomic_poly(2) == IntPoly((1, 1))

    def test_n12(self):
        assert cyclotomic_poly(12) == IntPoly((1, 0, -1, 0, 1))

    def test_n105_has_minus_two(self):
        # first index whose coefficients leave {-1, 0, 1}
        coeffs = cyclotomic_poly(105).coeffs
        assert -2 in coeffs
        assert min(coeffs) == -2

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            cyclotomic_poly(0)
        with pytest.raises(DomainError):
            cyclotomic_poly(10**6 + 1)

    @pytest.mark.parametrize("n", list(range(1, 51)) + [72, 100, 128])
    def test_product_over_divisors(self, n):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == x_pow_minus_one(n)

    @pytest.mark.parametrize("n", list(range(1, 80)) + [105, 255, 360, 500])
    def test_degree_is_totient(self, n):
        assert cyclotomic_poly(n).degree == euler_phi(n)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.abc import x

        for n in (7, 15, 36, 105, 120, 210):
            ours = cyclotomic_poly(n)
            theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
            assert list(reversed(theirs)) == list(ours.coeffs)

    def test_matches_division_reference(self):
        for n in range(1, 1201):
            assert cyclotomic_poly(n) == _division_reference(n), n

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from(SYMPY_INDICES))
    @example(n=30030)
    def test_squarefree_against_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        from sympy.abc import x

        theirs = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()
        assert list(reversed(theirs)) == list(cyclotomic_poly(n).coeffs)

    def test_palindromic(self):
        for n in IDENTITY_INDICES:
            coeffs = cyclotomic_poly(n).coeffs
            assert coeffs == coeffs[::-1], n

    def test_value_at_one(self):
        # Phi_n(1) = l for n = l^k, and 1 for n with two or more primes
        for n in IDENTITY_INDICES:
            fac = factorize(n)
            expected = fac[0][0] if len(fac) == 1 else 1
            assert cyclotomic_poly(n)(1) == expected, n

    def test_verify_cyclotomic_accepts(self):
        for n in (1,) + tuple(IDENTITY_INDICES):
            verify_cyclotomic(n, cyclotomic_poly(n))

    def test_verify_cyclotomic_accepts_squarefree_below_5000(self):
        # the identity is checked untruncated, so it does not share the
        # construction's half-length series
        for n in range(2, 5000):
            if all(e == 1 for _, e in factorize(n)):
                verify_cyclotomic(n, cyclotomic_poly(n))

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from(SYMPY_INDICES), where=st.floats(0, 1, exclude_max=True),
           delta=st.sampled_from([-1, 1]))
    def test_verify_cyclotomic_rejects_one_wrong_coefficient(self, n, where, delta):
        coeffs = list(cyclotomic_poly(n).coeffs)
        coeffs[int(where * len(coeffs))] += delta
        with pytest.raises(VerificationError, match=f"Phi_{n} is not Q"):
            verify_cyclotomic(n, IntPoly(coeffs))

    @pytest.mark.parametrize("n", [5, 42, 1155, 3003])
    def test_verify_cyclotomic_base_grows_with_the_height(self, n):
        # Phi_n + X - 2^s agrees with Phi_n at X = 2^s, so a base that did not
        # grow with the height of the checked polynomial would accept it
        for s in range(8, 129, 8):
            coeffs = list(cyclotomic_poly(n).coeffs)
            coeffs[0] -= 2**s
            coeffs[1] += 1
            with pytest.raises(VerificationError):
                verify_cyclotomic(n, IntPoly(coeffs))

    # (n, the size of the truncated series): phi(2) = 1 is odd and Phi_2 is
    # built whole; Phi_l is all ones; phi(6) = 2; at 10 and 42 the divisor
    # d = phi(n) / 2 has mu(n/d) = -1, the last division below the size
    @pytest.mark.parametrize("n, size", [(2, 2), (3, 2), (7, 4), (997, 499),
                                         (6, 2), (10, 3), (42, 7)])
    def test_half_length_construction(self, n, size):
        with mock.patch.object(cyclotomic, "_truncated_numerator",
                               wraps=cyclotomic._truncated_numerator) as spy:
            poly = cyclotomic_poly.__wrapped__(n)
        assert spy.call_args.args[1] == size
        assert poly == _division_reference(n)
        if n in (10, 42):
            d = euler_phi(n) // 2
            assert n % d == 0 and len(factorize(n // d)) % 2 == 1
        if is_prime(n):
            assert poly.coeffs == (1,) * n

    def test_large_index(self):
        # 510510 = 2*3*5*7*11*13*17; uncached, so the sparse product runs
        start = time.perf_counter()
        poly = cyclotomic_poly.__wrapped__(510510)
        elapsed = time.perf_counter() - start
        assert poly.degree == 92160
        assert poly.coeffs == poly.coeffs[::-1]
        assert poly(1) == 1
        assert elapsed < 10.0


class TestTruncatedNumerator:
    """The mu = +1 factors of the sparse product on one packed integer, at
    k // 8 + 1 bytes per digit for k factors."""

    @settings(max_examples=200, deadline=None)
    @given(degrees=st.lists(st.integers(1, 40), min_size=1, max_size=63),
           size=st.integers(1, 120))
    # (1 - X)^k, coefficients up to C(k, k // 2), at the first and last k of each width
    @example(degrees=[1] * 7, size=8)
    @example(degrees=[1] * 8, size=9)
    @example(degrees=[1] * 15, size=16)
    @example(degrees=[1] * 16, size=17)
    @example(degrees=[1] * 31, size=32)
    @example(degrees=[1] * 32, size=33)
    @example(degrees=[1] * 63, size=64)
    @example(degrees=[2, 3, 5] * 21, size=120)
    def test_matches_list_product(self, degrees, size):
        with mock.patch.object(cyclotomic, "_unpack", wraps=cyclotomic._unpack) as spy:
            coeffs = cyclotomic._truncated_numerator(degrees, size)
        assert coeffs == _numerator_reference(degrees, size)
        spy.assert_called_once_with(mock.ANY, len(degrees) // 8 + 1, size)

    def test_phi_510510(self):
        # 7 primes: 63 packed factors below phi(n) + 1, on 8-byte struct digits
        n, size = 510510, euler_phi(510510) + 1
        degrees = [d for d in divisors(n) if d < size and len(factorize(n // d)) % 2 == 0]
        assert len(degrees) == 63
        with mock.patch.object(cyclotomic, "_unpack", wraps=cyclotomic._unpack) as spy:
            coeffs = cyclotomic._truncated_numerator(degrees, size)
        assert coeffs == _numerator_reference(degrees, size)
        spy.assert_called_once_with(mock.ANY, 8, size)


class TestDivisionLoops:
    def test_both_loops_match_lift_reference(self, monkeypatch):
        # 1 / (1 - X^d) runs per residue class for d^2 < phi(n) / 2 + 1, else per block
        loops = {"class": 0, "block": 0}
        real_accumulate = cyclotomic.accumulate

        def accumulate_spy(values):
            loops["class"] += 1
            return real_accumulate(values)

        def add_spy(x, y):
            loops["block"] += 1
            return x + y

        monkeypatch.setattr(cyclotomic, "accumulate", accumulate_spy)
        monkeypatch.setattr(cyclotomic, "add", add_spy)
        indices = [n for n in range(2, 6007)
                   if len(factorize(n)) >= 4 and all(e == 1 for _, e in factorize(n))]
        assert len(indices) == 229
        for n in indices:
            assert cyclotomic_poly.__wrapped__(n) == _lift_reference(n), n
        assert loops["class"] and loops["block"]


class TestReduceMod:
    def test_sign_wrap(self):
        assert reduce_mod(IntPoly((1, -1, 1)), 2) == ModPoly(2, (1, 1, 1))

    def test_phi6_mod_2_equals_phi3(self):
        assert reduce_mod(cyclotomic_poly(6), 2) == reduce_mod(cyclotomic_poly(3), 2)

    def test_untouched(self):
        assert reduce_mod(cyclotomic_poly(4), 5) == ModPoly(5, (1, 0, 1))

    def test_degree_drop(self):
        assert reduce_mod(IntPoly((1, 1, 5)), 5).degree == 1

    def test_matches_the_checked_constructor(self):
        # reduce_mod builds its result unchecked, keeping the stride where
        # the surviving terms allow it; ModPoly's constructor starts at 1
        for f in [(7,), (0, 7), (14, 0, 0, 7), (1, 0, 0, 7, 0, 0, 1), (3, 0, -4, 0, 7)]:
            for k in (1, 2, 5):
                poly = IntPoly(f).compose_power(k)
                for p in (2, 3, 7):
                    assert reduce_mod(poly, p) == ModPoly(p, poly.coeffs), (f, k, p)


class TestIsPrime:
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first 9 primes
    @pytest.mark.parametrize("n", [3_215_031_751, 3_825_123_056_546_413_051])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.one_of(st.integers(0, 2**64), st.integers(2**62 - 10**4, 2**62),
                       st.integers(2**31 - 10**3, 2**31 + 10**3)))
    @example(n=2**62 - 57)
    @example(n=2**62 - 87)
    def test_vs_sympy_below_2_64(self, n):
        assert is_prime(n) == sympy.isprime(n)


class TestFactorize:
    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_rejected(self, n):
        with pytest.raises(DomainError, match=f"^cannot factor nonpositive integer {n}$"):
            factorize(n)


class TestMultiplicativeOrder:
    @pytest.mark.parametrize("a,p,expected", [(1, 7, 1), (2, 7, 3), (3, 7, 6)])
    def test_examples(self, a, p, expected):
        assert multiplicative_order(a, p) == expected

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            multiplicative_order(0, 7)
        with pytest.raises(DomainError):
            multiplicative_order(14, 7)

    def test_divides_group_order(self):
        for p in (5, 11, 13):
            for a in range(1, p):
                assert (p - 1) % multiplicative_order(a, p) == 0


def primitive_root(p: int) -> int:
    """Smallest generator of (Z/p)*: the reference for the order-t residues,
    which are the powers g^((p-1)/t * k) with gcd(k, t) = 1."""
    if p == 2:
        return 1
    cofactors = [(p - 1) // q for q, _ in factorize(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, e, p) != 1 for e in cofactors))


class TestPrimitiveRoot:
    def test_smallest_generator(self):
        for p in filter(is_prime, range(3, 2000)):
            g = primitive_root(p)
            assert multiplicative_order(g, p) == p - 1, p
            assert all(multiplicative_order(h, p) < p - 1 for h in range(2, g)), p

    def test_p2(self):
        assert primitive_root(2) == 1

    def test_no_order_per_candidate(self, monkeypatch):
        # the residues need the primes of t, never those of p - 1
        p = 2**31 - 1
        factored = []

        def forbidden(a, p):
            raise AssertionError("multiplicative_order called")

        def factorize_spy(n):
            factored.append(n)
            return factorize(n)

        monkeypatch.setattr(numth, "multiplicative_order", forbidden)
        monkeypatch.setattr(numth, "factorize", factorize_spy)
        base = pow(primitive_root(p), (p - 1) // 6, p)
        assert residues_of_order(p, 6) == sorted([base, pow(base, 5, p)])
        assert residues_of_order(13, 4) == [5, 8]
        assert factored == [6, 4]


class TestResiduesOfOrder:
    def test_matches_brute_force(self):
        for p in filter(is_prime, range(2, 2000)):
            by_order = {}
            for a in range(1, p):
                by_order.setdefault(multiplicative_order(a, p), []).append(a)
            for t in divisors(p - 1):
                assert residues_of_order(p, t) == by_order[t], (p, t)

    # 2147483579 is a safe prime, (p - 1) / 2 is prime: only t = 1, 2 divide p - 1
    @pytest.mark.parametrize("p,t", [(2**31 - 1, 1), (2**31 - 1, 2), (2**31 - 1, 3),
                                     (2**31 - 1, 6), (2147483579, 1), (2147483579, 2)])
    def test_large_prime_at_once(self, p, t, monkeypatch):
        factored = []

        def factorize_spy(n):
            factored.append(n)
            return factorize(n)

        monkeypatch.setattr(numth, "factorize", factorize_spy)
        start = time.perf_counter()
        residues = residues_of_order(p, t)
        assert time.perf_counter() - start < 1.0
        assert factored == [t]
        assert len(residues) == euler_phi(t)
        assert all(multiplicative_order(eps, p) == t for eps in residues)


class TestResidueCap:
    """phi(t) above MAX_RESIDUES raises DomainError before any residue is
    listed; below it, the residues are listed as before."""

    P = 2**31 - 1  # phi(P - 1) = 534,600,000

    @pytest.fixture
    def no_scan(self, monkeypatch):
        # the scan for a base of order t calls pow first; is_prime(P), which
        # calls it too, is cached before the spy goes in
        assert is_prime(self.P)

        def forbidden(*args):
            raise AssertionError("the residue scan started")

        monkeypatch.setattr(numth, "pow", forbidden, raising=False)

    @pytest.mark.parametrize("call", [
        lambda p, t: residues_of_order(p, t),
        lambda p, t: order_t_multiplicity(10**6, p, t),
    ], ids=["residues_of_order", "order_t_multiplicity"])
    def test_over_cap_builds_nothing(self, no_scan, monkeypatch, call):
        monkeypatch.setattr(cyclotomic, "cyclotomic_poly", None)
        start = time.perf_counter()
        message = f"phi\\({self.P - 1}\\) = 534600000 residues exceed the cap of {MAX_RESIDUES}"
        with pytest.raises(DomainError, match=message):
            call(self.P, self.P - 1)
        assert time.perf_counter() - start < 0.5

    def test_lemma_counts_no_residues(self, monkeypatch):
        # the lemma checks no residue count, so phi(P - 1) above the cap
        # does not stop it
        def forbidden(*args):
            raise AssertionError("the lemma counted residues")

        monkeypatch.setattr(numth, "check_residue_count", forbidden)
        monkeypatch.setattr(cyclotomic, "check_residue_count", forbidden)
        assert verify_lemma_range(60, {2, 3, 5, 7, 11, 13}).passed
        assert verify_lemma_range(5, {self.P}).passed

    def test_cap_boundary(self, monkeypatch):
        # with the cap at 4 mod 31: phi(10) = 4 and phi(6) = 2 pass (6 is above
        # the cap, so it is factored), phi(15) = phi(30) = 8 do not
        monkeypatch.setattr(numth, "MAX_RESIDUES", 4)
        for t in (1, 2, 3, 5, 6, 10):
            assert len(residues_of_order(31, t)) == euler_phi(t)
        for t in (15, 30):
            with pytest.raises(DomainError, match="cap of 4"):
                residues_of_order(31, t)
        # the lemma lists no residues, so the cap does not bind it
        assert verify_lemma_range(3, {11}).passed  # phi(10) = 4
        assert verify_lemma_range(3, {31}).passed  # phi(30) = 8


def _shift_multiplicity(pbar: ModPoly, eps: int) -> int:
    """Independent oracle: expand P(Y + eps) mod p; multiplicity is the
    index of the first nonzero coefficient."""
    p = pbar.p
    n = pbar.degree
    shifted = [0] * (n + 1)
    for i, c in enumerate(pbar.coeffs):
        for j in range(i + 1):
            shifted[j] = (shifted[j] + c * math.comb(i, j) * pow(eps, i - j, p)) % p
    return next(j for j, c in enumerate(shifted) if c != 0)


def _division_multiplicity(coeffs, p: int, eps: int) -> int:
    """Reference on the expanded coefficients of a nonzero polynomial mod p:
    synthetic division by X - eps until the remainder is nonzero."""
    mult, coeffs = 0, coeffs[::-1]
    while True:
        quot, acc = [], 0
        for c in coeffs:
            acc = (acc * eps + c) % p
            quot.append(acc)
        if acc:
            return mult
        mult, coeffs = mult + 1, quot[:-1]


class TestRootMultiplicity:
    def test_simple_root(self):
        assert root_multiplicity(ModPoly(5, (1, 0, 1)), 2) == 1

    def test_triple_root(self):
        cubed = ModPoly(3, (1, 3, 3, 1))
        assert root_multiplicity(cubed, 2) == 3

    def test_nonroot(self):
        assert root_multiplicity(ModPoly(3, (1, 0, 1)), 1) == 0

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            root_multiplicity(ModPoly(3, ()), 0)

    @pytest.mark.parametrize("eps", [5, -1])
    def test_unreduced_residue_rejected(self, eps):
        with pytest.raises(DomainError, match=f"^residue {eps} not reduced mod 5$"):
            root_multiplicity(ModPoly(5, (1, 0, 1)), eps)

    @pytest.mark.parametrize("bad", [float, Fraction, str])
    def test_non_integer_residue_rejected(self, bad):
        # e is exact as a float, but Horner's rule in floating point at this p
        # would find no root
        p, e = 2**31 - 1, 123456789
        square = ModPoly(p, (-e % p, 1)) ** 2
        assert root_multiplicity(square, e) == 2
        with pytest.raises(TypeError):
            root_multiplicity(square, bad(e))

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7, 11]),
        coeffs=st.lists(st.integers(0, 10), min_size=1, max_size=12),
        eps=st.integers(0, 10),
        data=st.data(),
    )
    def test_matches_shift_oracle(self, p, coeffs, eps, data):
        pbar = ModPoly(p, coeffs)
        if not pbar:
            return
        eps %= p
        assert root_multiplicity(pbar, eps) == _shift_multiplicity(pbar, eps)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.sampled_from([3, 5, 7]),
        m=st.integers(0, 6),
        eps=st.integers(0, 6),
        rest=st.lists(st.integers(0, 6), min_size=1, max_size=6),
    )
    def test_planted_multiplicity(self, p, m, eps, rest):
        eps %= p
        cofactor = ModPoly(p, rest)
        if not cofactor or IntPoly(rest)(eps) % p == 0:
            return
        planted = cofactor * ModPoly(p, (-eps, 1)) ** m
        assert root_multiplicity(planted, eps) == m

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5]),
        m=st.integers(1, 4),
        j=st.integers(0, 2),
        root=st.integers(0, 4),
        e=st.integers(0, 3),
        rest=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    )
    # k = m * p^j coprime to p, a pure p-power and mixed; 0 as a root of f
    @example(p=5, m=3, j=0, root=2, e=2, rest=[1, 1])
    @example(p=3, m=1, j=2, root=1, e=3, rest=[2])
    @example(p=2, m=3, j=2, root=1, e=2, rest=[1, 0, 1])
    @example(p=5, m=2, j=1, root=0, e=3, rest=[1, 2])
    def test_stored_form_matches_expanded_division(self, p, m, j, root, e, rest):
        # f = rest * (X - root)^e, then f(X^k) mod p: every eps in [0, p),
        # 0 included, against synthetic division on the expanded coefficients
        k = m * p**j
        poly = (IntPoly(rest) * IntPoly((-root, 1)) ** e).compose_power(k)
        pbar = reduce_mod(poly, p)
        assume(pbar)
        expected = {eps: _division_multiplicity(pbar.coeffs, p, eps) for eps in range(p)}
        assert {eps: root_multiplicity(pbar, eps) for eps in range(p)} == expected
        # the lemma's cell at every order t | p - 1, on the same stored form
        for t in divisors(p - 1):
            order_t = {eps: expected[eps] for eps in range(1, p)
                       if multiplicative_order(eps, p) == t}
            for lemma in (False, True):
                assert _cell(poly, p, t, lemma) == _cell_reference(order_t)


def _schoolbook(a, b):
    """Product of two coefficient lists, one term at a time."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestDivmod:
    """The contract of `_divmod`, the one long division over Z and mod p, and
    a valuation by it against planted multiplicities in stride form."""

    @settings(max_examples=400, deadline=None)
    @given(
        p=st.sampled_from([None, 2, 3, 13, 2**31 - 1]),
        a=st.lists(st.integers(-(2**70), 2**70), max_size=14),
        low=st.lists(st.integers(-(2**70), 2**70), max_size=6),
    )
    @example(p=None, a=[], low=[])
    @example(p=2, a=[1, 1], low=[1, 0, 1])
    @example(p=13, a=[0, 0, 0, 5], low=[-1])
    def test_quotient_times_divisor_plus_remainder(self, p, a, low):
        b = low + [1]
        quot, rem = cyclotomic._divmod(a, b, p)
        assert len(rem) == len(low)
        assert len(quot) == max(len(a) - len(low), 0)
        # q*b + r, as a list as long as a or r, whichever is longer
        total = _schoolbook(quot, b) or [0] * len(low)
        total = [x + y for x, y in zip(total, rem + [0] * len(total))]
        want = a + [0] * (len(low) - len(a))
        if p is None:
            assert total == want
        else:
            assert all(0 <= c < p for c in quot + rem)
            assert len(total) == len(want)
            assert all((x - y) % p == 0 for x, y in zip(total, want))

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 13]),
        m=st.integers(1, 6),
        j=st.integers(0, 2),
        eps=st.integers(0, 12),
        mult=st.integers(0, 5),
        g=st.lists(st.integers(0, 12), min_size=1, max_size=5),
    )
    @example(p=3, m=2, j=1, eps=0, mult=2, g=[1, 1])
    @example(p=2, m=1, j=2, eps=1, mult=3, g=[1])
    @example(p=13, m=4, j=0, eps=5, mult=1, g=[2, 0, 1])
    def test_planted_stride_form(self, p, m, j, eps, mult, g):
        # f = (X - eps^m)^mult * g with g(eps^m) != 0 mod p, stored as f(X^k)
        # for k = m * p^j, p not dividing m: the multiplicity of eps is p^j * mult, that of 0
        # is k * mult
        assume(m % p)
        eps %= p
        k = m * p**j
        root = pow(eps, m, p) if eps else 0
        assume(IntPoly(g)(root) % p)
        f = ModPoly(p, g) * ModPoly(p, (-root, 1)) ** mult
        poly = f.compose_power(k)
        assert poly.stride % k == 0
        planted = (k if eps == 0 else p**j) * mult
        assert root_multiplicity(poly, eps) == planted
        assert _division_multiplicity(poly.coeffs, p, eps) == planted


def _residue_reference(poly: IntPoly, p: int, t: int) -> dict:
    """Slow reference for fact (a): synthetic division at every order-t residue."""
    coeffs = reduce_mod(poly, p).coeffs
    return {eps: _division_multiplicity(coeffs, p, eps) for eps in residues_of_order(p, t)}


def _cell_reference(mults: dict) -> tuple:
    """(roots, k) from per-residue multiplicities: k the least positive one,
    0 if none is, and roots the number of residues of multiplicity exactly k."""
    k = min(filter(None, mults.values()), default=0)
    return (list(mults.values()).count(k) if k else 0), k


def _cell(poly, p: int, t: int, lemma: bool) -> tuple:
    """The lemma's cell on poly at order t, with g = gcd(f, X^(p-1) - 1) as
    the lemma takes it, or g = f as order_t_multiplicity passes it."""
    f, m, j = cyclotomic._frobenius_form(poly, p)
    g = cyclotomic._unity_gcd(f, p - 1, p) if lemma else f
    return cyclotomic._order_cell(f, g, p, t, m, j)


# (X - 2)^2 (X - 3): mod 5, the order-4 residues 2 and 3 have multiplicities 2 and 1
NON_UNIFORM = IntPoly((-2, 1)) ** 2 * IntPoly((-3, 1))

DIFFERENTIAL_PRIMES = (2, 3, 5, 7, 13, 31, 61, 97, 101)


class TestResidueMultiplicities:
    """The lemma's cell against synthetic division at every order-t residue,
    with g as the lemma takes it and as order_t_multiplicity passes it."""

    def test_matches_per_residue_reference(self):
        # n runs over every index up to 200, those divisible by p included
        for p in DIFFERENTIAL_PRIMES:
            for n in range(1, 201):
                phi_n = cyclotomic_poly(n)
                for t in divisors(p - 1):
                    expected = _cell_reference(_residue_reference(phi_n, p, t))
                    for lemma in (False, True):
                        assert _cell(phi_n, p, t, lemma) == expected, (n, p, t)

    def test_p_dividing_n_with_repeated_roots(self):
        # Phi_{t p^f} = Phi_t^{phi(p^f)} mod p: every order-t residue is a
        # root of multiplicity phi(p^f)
        for t, p, f in [(4, 5, 1), (2, 3, 2), (1, 2, 3), (3, 7, 2), (2, 5, 3),
                        (12, 13, 2)]:
            phi_n = cyclotomic_poly(t * p**f)
            expected = (euler_phi(t), euler_phi(p**f))
            assert _cell_reference(_residue_reference(phi_n, p, t)) == expected
            for lemma in (False, True):
                assert _cell(phi_n, p, t, lemma) == expected, (t, p, f)

    def test_validates_p_and_t(self, monkeypatch):
        # the cell trusts its p and t: its callers check them before any cell
        monkeypatch.setattr(cyclotomic, "_order_cell", None)
        with pytest.raises(DomainError):
            order_t_multiplicity(4, 5, 3)
        with pytest.raises(DomainError):
            order_t_multiplicity(4, 6, 1)
        with pytest.raises(DomainError):
            verify_lemma_range(5, {6})

    def test_zero_mod_p_rejected(self):
        # every residue is a "root" of 0, whose multiplicity is undefined;
        # k = 25 puts a p-power into the stride
        for k in (1, 3, 25):
            poly = IntPoly((5, 10)).compose_power(k)
            with pytest.raises(DomainError, match="zero polynomial"):
                _cell(poly, 5, 4, False)

    @settings(max_examples=300, deadline=None)
    @given(
        pts=st.sampled_from([(p, t, s) for p in (5, 7, 13, 31, 37)
                             for t in divisors(p - 1) for s in divisors(p - 1)]),
        k=st.integers(1, 12),
        f=st.lists(st.integers(-20, 20), max_size=10),
        j=st.integers(0, 2),
    )
    # gcd(k, t) = 1, gcd(k, t) = t, and a gcd strictly between
    @example(pts=(13, 12, 4), k=5, f=[1, 2], j=1)
    @example(pts=(13, 4, 2), k=8, f=[3, 1], j=1)
    @example(pts=(37, 12, 3), k=8, f=[1, -1, 1], j=2)
    # a constant, one that vanishes mod p, and the zero polynomial
    @example(pts=(7, 3, 1), k=3, f=[4], j=0)
    @example(pts=(7, 6, 1), k=3, f=[14], j=0)
    @example(pts=(7, 3, 1), k=3, f=[], j=0)
    def test_compressed_slice_sums(self, pts, k, f, j):
        # poly = g(X^k) has stride a multiple of k, and its stored form is
        # folded by slice sums; planting Phi_s^j before the substitution makes
        # every eps with eps^k of order s a root
        p, t, s = pts
        poly = (IntPoly(f) * cyclotomic_poly(s) ** j).compose_power(k)
        if not reduce_mod(poly, p):
            with pytest.raises(DomainError):
                _cell(poly, p, t, False)
            return
        expected = _cell_reference(_residue_reference(poly, p, t))
        for lemma in (False, True):
            assert _cell(poly, p, t, lemma) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.sampled_from([3, 5, 7, 11, 13, 31]),
        data=st.data(),
        k=st.integers(0, 3),
        f=st.lists(st.integers(-20, 20), min_size=1, max_size=15),
    )
    def test_planted_cyclotomic_power(self, p, data, k, f):
        t = data.draw(st.sampled_from(divisors(p - 1)), label="t")
        cofactor = IntPoly(f)
        assume(reduce_mod(cofactor, p))
        poly = cofactor * cyclotomic_poly(t) ** k
        mults = _residue_reference(poly, p, t)
        assert min(mults.values()) >= k
        for lemma in (False, True):
            assert _cell(poly, p, t, lemma) == _cell_reference(mults)

    def test_planted_non_uniform(self):
        # the cell finds the least multiplicity, 1, at one of the phi(4) = 2
        # order-4 residues: a uniformity failure with its count
        assert _residue_reference(NON_UNIFORM, 5, 4) == {2: 2, 3: 1}
        for lemma in (False, True):
            assert _cell(NON_UNIFORM, 5, 4, lemma) == (1, 1)


class TestOrderTMultiplicity:
    @pytest.mark.parametrize(
        "n,p,t,expected",
        [(4, 5, 4, 1), (20, 5, 4, 4), (3, 5, 2, 0), (1, 2, 1, 1), (6, 7, 6, 1)],
    )
    def test_examples(self, n, p, t, expected):
        assert order_t_multiplicity(n, p, t) == expected

    def test_bad_t(self):
        with pytest.raises(DomainError):
            order_t_multiplicity(4, 5, 3)

    @pytest.mark.parametrize("n", [0, -5])
    def test_bad_n(self, n):
        # n = 0 is divisible by every p: stripping the p-part must not loop
        with pytest.raises(DomainError):
            order_t_multiplicity(n, 5, 1)

    def test_disagreeing_residues_raise(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "cyclotomic_poly", lambda n: NON_UNIFORM)
        message = "disagree on multiplicity for n=4, p=5: 1 of 2 have multiplicity 1"
        with pytest.raises(VerificationError, match=message):
            order_t_multiplicity(4, 5, 4)

    def test_runs_the_cell_on_phi_n(self, monkeypatch):
        # 14406 = 6 * 7^4 and Phi_14406 = Phi_42(X^343): the multiplicity comes
        # from Phi_n's stride, without building the p-free part's Phi_6
        built = []
        true_poly = cyclotomic.cyclotomic_poly

        def spy(n):
            built.append(n)
            return true_poly(n)

        monkeypatch.setattr(cyclotomic, "cyclotomic_poly", spy)
        assert order_t_multiplicity(14406, 7, 6) == 2058 == euler_phi(7**4)
        assert 6 not in built

    def test_lemma_grid(self):
        # n = t * p^f: phi(p^f) at t and 0 at every other order t' | p - 1
        for p in (2, 3, 5, 7, 13):
            for t in divisors(p - 1):
                for f in range(4):
                    n = t * p**f
                    for t2 in divisors(p - 1):
                        expected = euler_phi(p**f) if t2 == t else 0
                        assert order_t_multiplicity(n, p, t2) == expected, (n, p, t2)

    def test_p_part_stripping_matches_direct(self):
        # when p | n the stripped path must agree with direct division
        for n, p, t in [(20, 5, 4), (18, 3, 2), (12, 2, 1), (75, 5, 2)]:
            direct = root_multiplicity(
                reduce_mod(cyclotomic_poly(n), p),
                residues_of_order(p, t)[0],
            )
            assert order_t_multiplicity(n, p, t) == direct


class TestPrimePowerIdentity:
    def test_sweep(self):
        for p in (2, 3, 5, 7):
            for n in range(1, 31):
                if n % p == 0:
                    continue
                base = reduce_mod(cyclotomic_poly(n), p)
                for f in (1, 2):
                    q = p**f
                    assert reduce_mod(cyclotomic_poly(n * q), p) == base ** euler_phi(q)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_frobenius_check_matches_power(self, p, monkeypatch):
        # verify_lemma_range checks fact (c) as Phi_{nq} * Phi_n(X^(q/p)) =
        # Phi_n(X^q) over Z; it must accept the true Phi_{nq} and reject one
        # with a coefficient shifted by 1, as the power form Phi_n^phi(q) mod p does
        cases = [(n, f) for n in range(1, 201) if n % p for f in (1, 2)
                 if n * p**f <= 10**6]
        assert verify_lemma_range(200, {p}).passed
        shifted = {}
        for n, f in cases:
            q = p**f
            power = reduce_mod(cyclotomic_poly(n), p) ** euler_phi(q)
            lifted = cyclotomic_poly(n * q)
            assert reduce_mod(lifted, p) == power, (n, f)
            coeffs = list(lifted.coeffs)
            coeffs[(7 * n + f) % len(coeffs)] += 1
            shifted[n * q] = IntPoly(coeffs)
            assert reduce_mod(shifted[n * q], p) != power, (n, f)
        # every Phi_m the sweep reads is cached above, so the lookup below
        # leaves the cache of cyclotomic_poly as it is
        true_poly = cyclotomic.cyclotomic_poly
        monkeypatch.setattr(cyclotomic, "cyclotomic_poly",
                            lambda m: shifted[m] if m in shifted else true_poly(m))
        report = verify_lemma_range(200, {p})
        assert [(c["n"], c["f"]) for c in report.counterexamples
                if c["fact"] == "prime_power_identity"] == cases


class TestRootCounts:
    def test_total_roots_in_prime_field(self):
        # with p not dividing n, Phi_n mod p has phi(n) roots in (Z/p)* iff
        # n divides p - 1, and none otherwise
        for p in (5, 7, 11, 13):
            for n in range(1, 30):
                if n % p == 0:
                    continue
                pbar = reduce_mod(cyclotomic_poly(n), p)
                total = sum(root_multiplicity(pbar, eps) for eps in range(1, p))
                assert total == (euler_phi(n) if (p - 1) % n == 0 else 0)


class TestVerifyLemmaRange:
    def test_trivial(self):
        report = verify_lemma_range(1, {2})
        assert report.passed

    def test_small_sweep(self):
        report = verify_lemma_range(20, {2, 3, 5})
        assert report.passed
        assert report.counterexamples == []

    def test_p13_order12_roots(self):
        report = verify_lemma_range(20, {13})
        assert report.passed
        pbar = reduce_mod(cyclotomic_poly(12), 13)
        roots = {eps: root_multiplicity(pbar, eps) for eps in range(1, 13)}
        nonzero = {eps: m for eps, m in roots.items() if m}
        assert len(nonzero) == 4
        assert all(m == 1 for m in nonzero.values())
        assert all(multiplicative_order(eps, 13) == 12 for eps in nonzero)

    def test_report_key_order(self):
        assert list(verify_lemma_range(3, {2, 3}).to_dict()) == [
            "n_max", "primes", "checks_run", "counterexamples", "passed",
        ]

    def test_uniformity_counterexample(self, monkeypatch):
        # the two order-4 residues mod 5 get multiplicities 2 and 1: the record
        # counts the one residue of the least multiplicity, 1
        true_poly = cyclotomic.cyclotomic_poly
        monkeypatch.setattr(cyclotomic, "cyclotomic_poly",
                            lambda n: NON_UNIFORM if n == 1 else true_poly(n))
        report = verify_lemma_range(1, {5})
        (record,) = [c for c in report.counterexamples if c["fact"] == "uniformity"]
        assert record == {"n": 1, "p": 5, "t": 4, "fact": "uniformity",
                          "roots": 1, "multiplicity": 1}
        assert report.to_dict()["passed"] is False

    def test_positivity_counterexample(self, monkeypatch):
        # 1 is a root of Phi_1 = X - 1, so multiplicity 0 contradicts n = t
        monkeypatch.setattr(cyclotomic, "_order_cell", lambda *args: (0, 0))
        report = verify_lemma_range(1, {3})
        assert report.counterexamples == [
            {"n": 1, "p": 3, "t": 1, "fact": "positivity", "multiplicity": 0,
             "n_is_t_times_p_power": True},
        ]
        assert report.to_dict()["passed"] is False

    def test_prime_power_identity_counterexample(self, monkeypatch):
        # an X -> X^k that leaves Phi_1 = X - 1 as it is breaks
        # Phi_{3^f} * Phi_1(X^(3^(f-1))) = Phi_1(X^(3^f)); no cached Phi_n is
        # built from Phi_1 by X -> X^k, so the cache stays clean
        true_compose = IntPoly.compose_power
        phi_1 = cyclotomic_poly(1)
        monkeypatch.setattr(IntPoly, "compose_power",
                            lambda self, k: self if self == phi_1 else true_compose(self, k))
        report = verify_lemma_range(1, {3})
        assert report.counterexamples == [
            {"n": 1, "p": 3, "f": f, "fact": "prime_power_identity"} for f in (1, 2)
        ]
        assert report.to_dict()["passed"] is False

    def test_prime_power_identity_over_z(self, monkeypatch):
        # Phi_3027 (n = 3, p = 1009) shifted by +-1009 at two symmetric pairs
        # keeps its degree, palindromy, value at 1 and residues mod 1009, so
        # Phi_3027 = Phi_3^1008 mod 1009 still holds; the identity over Z fails
        true_poly = cyclotomic.cyclotomic_poly
        coeffs = list(true_poly(3027).coeffs)
        top = len(coeffs) - 1
        for i, shift in ((100, 1009), (333, -1009)):
            coeffs[i] += shift
            coeffs[top - i] += shift
        planted = IntPoly(coeffs)
        assert planted.degree == top and planted.coeffs == planted.coeffs[::-1]
        assert planted(1) == true_poly(3027)(1)
        assert reduce_mod(planted, 1009) == reduce_mod(true_poly(3027), 1009)
        monkeypatch.setattr(cyclotomic, "cyclotomic_poly",
                            lambda m: planted if m == 3027 else true_poly(m))
        report = verify_lemma_range(3, {1009})
        assert report.counterexamples == [
            {"n": 3, "p": 1009, "f": 1, "fact": "prime_power_identity"}
        ]
        assert report.checks_run == 183

    def test_lists_no_residues(self, monkeypatch):
        # facts (a) and (b) are gcds in F_p[X]: no residue is listed
        def forbidden(*args):
            raise AssertionError("the lemma listed residues")

        monkeypatch.setattr(numth, "residues_of_order", forbidden)
        monkeypatch.setattr(cyclotomic, "residues_of_order", forbidden, raising=False)
        assert verify_lemma_range(60, {2, 3, 5, 7, 11, 13}).passed
        assert verify_lemma_range(5, {2**31 - 1}).passed

    def test_frobenius_check_expands_nothing(self, monkeypatch):
        # fact (c) compares Phi_{nq} * Phi_n(X^(q/p)) with Phi_n(X^q) on their
        # compressed forms; Phi_n(X^q) has at least q + 1 coefficients, and
        # no expansion that long is built at p = 101
        spread = cyclotomic._spread
        built = []

        def spy(short, j):
            out = spread(short, j)
            if out is not short:
                built.append(len(out))
            return out

        monkeypatch.setattr(cyclotomic, "_spread", spy)
        report = verify_lemma_range(12, {101})
        assert report.passed
        assert max(built, default=0) <= 101

    def test_no_modpoly_power(self, monkeypatch):
        # fact (c) is one IntPoly product per cell: no ModPoly is raised to a
        # power or multiplied, and nothing is reduced mod p
        def forbidden(*args):
            raise AssertionError("fact (c) worked mod p")

        monkeypatch.setattr(cyclotomic, "reduce_mod", forbidden)
        monkeypatch.setattr(ModPoly, "__mul__", forbidden)
        monkeypatch.setattr(ModPoly, "__pow__", forbidden)
        assert verify_lemma_range(60, {2, 3, 5, 7, 11, 13}).passed
        assert verify_lemma_range(300, {13}).passed

    def test_bad_args(self):
        with pytest.raises(DomainError):
            verify_lemma_range(0, {2})
        with pytest.raises(DomainError):
            verify_lemma_range(10**6 + 1, {2})
        with pytest.raises(DomainError):
            verify_lemma_range(5, {4})
