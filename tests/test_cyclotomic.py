import math
import time
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona_bounds import cyclotomic
from cremona_bounds.cyclotomic import (
    IntPoly,
    ModPoly,
    cyclotomic_poly,
    order_t_multiplicity,
    reduce_mod,
    root_multiplicity,
    verify_lemma_range,
)
from cremona_bounds.errors import DomainError, VerificationError
from cremona_bounds.numth import (
    divisors,
    euler_phi,
    factorize,
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
        assert a + b == IntPoly((0, 2))
        assert a - a == IntPoly()
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

    def test_exact_division_failure(self):
        # X^2 + 1 = (X + 1)(X - 1) + 2
        q, r = IntPoly((1, 0, 1)).divmod_monic(IntPoly((-1, 1)))
        assert q == IntPoly((1, 1))
        assert r == IntPoly((2,))

    def test_compose_power(self):
        p = IntPoly((1, 1, 1))
        assert p.compose_power(2) == IntPoly((1, 0, 1, 0, 1))


@lru_cache(maxsize=None)
def _division_reference(n):
    """Slow reference: Phi_n = (X^n - 1) / prod_{d|n, d<n} Phi_d by exact long
    division for squarefree n, and Phi_n(X) = Phi_r(X^(n/r)) for r = rad n."""
    r = math.prod(q for q, _ in factorize(n))
    if r != n:
        return _division_reference(r).compose_power(n // r)
    quot = IntPoly.x_pow_minus_one(n)
    for d in divisors(n)[:-1]:
        quot, rem = quot.divmod_monic(_division_reference(d))
        assert not rem
    return quot


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
        assert prod == IntPoly.x_pow_minus_one(n)

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

    def test_large_index(self):
        # 510510 = 2*3*5*7*11*13*17; uncached, so the sparse product runs
        start = time.perf_counter()
        poly = cyclotomic_poly.__wrapped__(510510)
        elapsed = time.perf_counter() - start
        assert poly.degree == 92160
        assert poly.coeffs == poly.coeffs[::-1]
        assert poly(1) == 1
        assert elapsed < 10.0


class TestReduceMod:
    def test_sign_wrap(self):
        assert reduce_mod(IntPoly((1, -1, 1)), 2) == ModPoly(2, (1, 1, 1))

    def test_phi6_mod_2_equals_phi3(self):
        assert reduce_mod(cyclotomic_poly(6), 2) == reduce_mod(cyclotomic_poly(3), 2)

    def test_untouched(self):
        assert reduce_mod(cyclotomic_poly(4), 5) == ModPoly(5, (1, 0, 1))

    def test_degree_drop(self):
        assert reduce_mod(IntPoly((1, 1, 5)), 5).degree == 1


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
        if not cofactor or cofactor(eps) == 0:
            return
        planted = cofactor * ModPoly(p, (-eps, 1)) ** m
        assert root_multiplicity(planted, eps) == m


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
        monkeypatch.setattr(cyclotomic, "root_multiplicity", lambda pbar, eps: eps)
        with pytest.raises(VerificationError, match="disagree"):
            order_t_multiplicity(4, 5, 4)

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
        # the two order-4 residues mod 5 get different multiplicities
        monkeypatch.setattr(cyclotomic, "root_multiplicity", lambda pbar, eps: eps)
        report = verify_lemma_range(1, {5})
        (record,) = [c for c in report.counterexamples if c["fact"] == "uniformity"]
        assert record == {"n": 1, "p": 5, "t": 4, "fact": "uniformity",
                          "multiplicities": {2: 2, 3: 3}}
        assert report.to_dict()["passed"] is False

    def test_positivity_counterexample(self, monkeypatch):
        # 1 is a root of Phi_1 = X - 1, so multiplicity 0 contradicts n = t
        monkeypatch.setattr(cyclotomic, "root_multiplicity", lambda pbar, eps: 0)
        report = verify_lemma_range(1, {3})
        assert report.counterexamples == [
            {"n": 1, "p": 3, "t": 1, "fact": "positivity", "multiplicity": 0,
             "n_is_t_times_p_power": True},
        ]
        assert report.to_dict()["passed"] is False

    def test_prime_power_identity_counterexample(self, monkeypatch):
        # a power that returns its base breaks Phi_{3^f} = Phi_1^{phi(3^f)} mod 3
        monkeypatch.setattr(ModPoly, "__pow__", lambda self, k: self)
        report = verify_lemma_range(1, {3})
        assert report.counterexamples == [
            {"n": 1, "p": 3, "f": f, "fact": "prime_power_identity"} for f in (1, 2)
        ]
        assert report.to_dict()["passed"] is False

    def test_bad_args(self):
        with pytest.raises(DomainError):
            verify_lemma_range(0, {2})
        with pytest.raises(DomainError):
            verify_lemma_range(5, {4})
