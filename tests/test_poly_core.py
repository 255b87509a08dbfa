"""Differential tests of the shared polynomial multiply and power core.

`IntPoly` and `ModPoly` products and powers, which all take Kronecker
substitution, are compared with a schoolbook reference kept here, on short,
dense, sparse and long operands, and with evaluation at random points for
operands too long for the reference.
Operands in X^k, which the core stores, multiplies and reduces as f(X^k) on
their compressed coefficients f, are built here by the test's own
substitution `stretch`; each result's stored form is checked against its
expanded coefficients, and every operation against plain expanded tuples.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona_bounds import cyclotomic
from cremona_bounds.errors import DomainError
from cremona_bounds.cyclotomic import (
    IntPoly,
    ModPoly,
    _convolve,
    _pack,
    _power,
    _stride,
    _unpack,
    cyclotomic_poly,
    reduce_mod,
)

PRIMES = (2, 3, 13, 65537, 2**31 - 1)
# the length at which the product used to switch to a C convolution
OLD_SWITCH = 4096


def at(poly, x):
    """Value of a ModPoly at x, by Horner's rule mod p."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = (acc * x + c) % poly.p
    return acc


def reference_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    # zero terms add nothing; skipping them keeps long sparse operands cheap
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def mod_reference(p, a, b):
    out = [c % p for c in reference_mul(a, b)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_pow(coeffs, n):
    out = (1,)
    for _ in range(n):
        out = reference_mul(out, coeffs)
    return out


def stretch(coeffs, k):
    """The sequence of f(X^k) for the sequence f of coeffs."""
    out = [0] * (k * (len(coeffs) - 1) + 1) if coeffs else []
    for i, c in enumerate(coeffs):
        out[i * k] = c
    return out


def strip_mod(p, coeffs):
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# empty and short operands, and longer ones up to 48 coefficients
lengths = st.one_of(st.integers(0, 4), st.integers(8, 16), st.integers(1, 48))
big_ints = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-(2**64) - 5, 2**64 + 5),
    st.integers(-(2**90), 2**90),
)


def int_coeffs(length):
    return st.lists(big_ints, min_size=length, max_size=length)


def mod_coeffs(p):
    # about half the coefficients are zero, as in powers of cyclotomic polynomials
    coeff = st.one_of(st.just(0), st.integers(0, p - 1))
    return lengths.flatmap(lambda k: st.lists(coeff, min_size=k, max_size=k))


class TestIntPolyCore:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mul_matches_reference(self, data):
        a = data.draw(lengths.flatmap(int_coeffs))
        b = data.draw(lengths.flatmap(int_coeffs))
        assert (IntPoly(a) * IntPoly(b)).coeffs == reference_mul(
            IntPoly(a).coeffs, IntPoly(b).coeffs
        )

    @settings(max_examples=100, deadline=None)
    @given(a=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=48))
    def test_squaring_matches_reference(self, a):
        f = IntPoly(a)
        assert (f * f).coeffs == reference_mul(f.coeffs, f.coeffs)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.lists(st.integers(-5, 5), min_size=0, max_size=32),
        n=st.integers(0, 9),
    )
    def test_pow_matches_reference(self, a, n):
        f = IntPoly(a)
        assert (f**n).coeffs == reference_pow(f.coeffs, n)

    def test_pow_edge_exponents(self):
        f = IntPoly((3, -1, 4))
        assert f**0 == IntPoly((1,))
        assert f**1 == f
        assert IntPoly() ** 0 == IntPoly((1,))
        assert IntPoly() ** 1 == IntPoly()
        with pytest.raises(ValueError):
            f ** -1


class TestModPolyCore:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mul_matches_reference(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        a, b = data.draw(mod_coeffs(p)), data.draw(mod_coeffs(p))
        assert (ModPoly(p, a) * ModPoly(p, b)).coeffs == mod_reference(p, a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.sampled_from(PRIMES),
        a=st.lists(st.integers(0, 2**31), min_size=0, max_size=32),
        n=st.integers(0, 9),
    )
    def test_pow_matches_reference(self, p, a, n):
        f = ModPoly(p, a)
        assert (f**n).coeffs == mod_reference(p, reference_pow(f.coeffs, n), (1,))

    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
    def test_pow_edge_exponents(self, p):
        f = ModPoly(p, (1, 1, 1))
        assert f**0 == ModPoly(p, (1,))
        assert f**1 == f
        assert ModPoly(p, ()) ** 0 == ModPoly(p, (1,))
        assert ModPoly(p, ()) ** 1 == ModPoly(p, ())

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError, match="mixed moduli"):
            ModPoly(3, (1, 1)) * ModPoly(5, (1, 1))


class TestMixedTypes:
    """A product needs two polynomials of one type; anything else is a TypeError."""

    def test_int_times_mod(self):
        with pytest.raises(TypeError):
            IntPoly([1, 1]) * ModPoly(3, [2, 2])

    def test_mod_times_int(self):
        with pytest.raises(TypeError):
            ModPoly(3, [2, 2]) * IntPoly([1, 1])

    def test_int_times_scalar(self):
        with pytest.raises(TypeError):
            IntPoly([1, 1]) * 3

    def test_mod_times_scalar(self):
        with pytest.raises(TypeError):
            ModPoly(3, [2, 2]) * 2


# (polynomial, str, repr), the strings as the two subclasses rendered them
# before they shared one class body
RENDERED = [
    (IntPoly(), "0", "IntPoly([])"),
    (IntPoly([5]), "5", "IntPoly([5])"),
    (IntPoly([-1]), "-1", "IntPoly([-1])"),
    (IntPoly([0, -1]), "-X", "IntPoly([0, -1])"),
    (IntPoly([-1, 1]), "X - 1", "IntPoly([-1, 1])"),
    (IntPoly([3, 0, -2, 0, 1]), "X^4 - 2*X^2 + 3", "IntPoly([3, 0, -2, 0, 1])"),
    (IntPoly([0, 0, 0, -7]), "-7*X^3", "IntPoly([0, 0, 0, -7])"),
    (IntPoly([1, 0, 0, 0, 0, 0, -1]), "-X^6 + 1", "IntPoly([1, 0, 0, 0, 0, 0, -1])"),
    (IntPoly([-2, 1, 0, 0, -1]), "-X^4 + X - 2", "IntPoly([-2, 1, 0, 0, -1])"),
    (cyclotomic_poly(9), "X^6 + X^3 + 1", "IntPoly([1, 0, 0, 1, 0, 0, 1])"),
    (IntPoly([2, -3]) * IntPoly([0, 0, 1]), "-3*X^3 + 2*X^2", "IntPoly([0, 0, 2, -3])"),
    (ModPoly(7), "(0) mod 7", "ModPoly(7, [])"),
    (ModPoly(7, [-1]), "(6) mod 7", "ModPoly(7, [6])"),
    (ModPoly(5, [1, 0, 0, 4]), "(4*X^3 + 1) mod 5", "ModPoly(5, [1, 0, 0, 4])"),
    (ModPoly(3, [0, 0, 2, 0, 0, 1]), "(X^5 + 2*X^2) mod 3", "ModPoly(3, [0, 0, 2, 0, 0, 1])"),
    (reduce_mod(cyclotomic_poly(9), 7), "(X^6 + X^3 + 1) mod 7",
     "ModPoly(7, [1, 0, 0, 1, 0, 0, 1])"),
    (ModPoly(11, [0, 0, 0, 0, 1]), "(X^4) mod 11", "ModPoly(11, [0, 0, 0, 0, 1])"),
    (ModPoly(7, [3]) * ModPoly(7, [5]), "(1) mod 7", "ModPoly(7, [1])"),
]


class TestModulusAsData:
    """`IntPoly` and `ModPoly` are one class body whose modulus p is None over Z."""

    def test_integer_modulus_is_none(self):
        assert IntPoly([1, 1]).p is None
        assert cyclotomic_poly(12).p is None
        assert ModPoly(7, [1, 1]).p == 7

    def test_foreign_operand_is_not_implemented(self):
        assert IntPoly([1, 1]).__mul__(ModPoly(3, [1])) is NotImplemented
        assert ModPoly(3, [1]).__mul__(IntPoly([1, 1])) is NotImplemented

    @pytest.mark.parametrize("zero,other", [
        (IntPoly(), IntPoly([0, 0, 1, 0, 2])),
        (ModPoly(7), ModPoly(7, [0, 0, 1, 0, 2])),
        (ModPoly(2), ModPoly(2, [1])),
    ])
    def test_zero_products_keep_type_and_modulus(self, zero, other):
        for product in (zero * other, other * zero, zero * zero):
            assert type(product) is type(zero)
            assert product.p == zero.p
            assert product == zero and not product and product.stride == 0

    def test_one_is_not_equal_across_rings(self):
        assert IntPoly([1]) != ModPoly(7, [1])
        assert ModPoly(7, [1]) != IntPoly([1])
        assert ModPoly(7, [1]) != ModPoly(5, [1])

    @pytest.mark.parametrize("poly,text,shown", RENDERED)
    def test_rendering_is_unchanged(self, poly, text, shown):
        assert str(poly) == text
        assert repr(poly) == shown

    def test_root_multiplicity_needs_a_modulus(self):
        with pytest.raises(DomainError, match="mod p"):
            cyclotomic.root_multiplicity(IntPoly([-1, 1]), 1)


class TestKroneckerDigits:
    """`_pack`/`_unpack` at every digit width, the struct words of 1-8 bytes
    narrowed to the width and the to_bytes path above 8 bytes."""

    @pytest.mark.parametrize("nbytes", range(1, 10))
    def test_round_trip(self, nbytes):
        top = 2 ** (8 * nbytes - 1) - 1
        for digits in ([0], [top], [-top], [0, top, -top, 1, -1, 0, top, 0],
                       [-top, top, -top, 0]):
            packed = _pack(digits, nbytes)
            assert packed == sum(c << (8 * nbytes * i) for i, c in enumerate(digits))
            assert _unpack(packed, nbytes, len(digits)) == digits

    @pytest.mark.parametrize("nbytes", [3, 5, 6, 7, 9])
    def test_convolve_matches_reference(self, nbytes, monkeypatch):
        widths = []

        def spy(coeffs, width, *signed):
            widths.append(width)
            return _pack(coeffs, width, *signed)

        monkeypatch.setattr(cyclotomic, "_pack", spy)
        rng = random.Random(nbytes)
        k = 16  # dense operands
        # the digit bound k * top^2 then has 8 * nbytes - 3 or 8 * nbytes - 2 bits
        m = 4 * nbytes - 3
        top = 2**m - 1
        a = [top, -top] + [rng.randrange(-top, top + 1) or 1 for _ in range(k - 2)]
        b = [-top] + [rng.randrange(-top, top + 1) or 1 for _ in range(k - 2)] + [top]
        assert _convolve(a, b) == list(reference_mul(a, b))
        assert widths == [nbytes, nbytes]


class TestUnsignedDigits:
    """`ModPoly` products pack residues in [0, p) as unsigned digits, wide
    enough for nonzero * (p - 1)^2, and reduce the unpacked digits mod p;
    they are compared with a schoolbook product reduced mod p afterwards."""

    # digits of 1, 2 and 3 bytes, of 4 bytes for longer operands mod 257,
    # of 5 bytes in 8-byte words, and wider than 8 bytes
    PRIMES = (2, 3, 13, 251, 257, 65521, 65537, 2**31 - 1)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mul_matches_reference(self, data):
        p = data.draw(st.sampled_from(self.PRIMES))
        rng = data.draw(st.randoms(use_true_random=False))

        def operand():
            # random length and density, or every coefficient p - 1, which
            # makes the middle product digit reach the digit bound exactly
            n = rng.choice((rng.randint(1, 12), rng.randint(13, 80), rng.randint(250, 320)))
            if rng.random() < 0.2:
                coeffs = [p - 1] * n
            else:
                density = rng.random()
                coeffs = [rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
            return stretch(coeffs, rng.choice((1, 1, 2, 3)))

        a = operand()
        f = ModPoly(p, a)
        if rng.random() < 0.3:
            b, g = a, f  # a square: one packed operand
        else:
            b = operand()
            g = ModPoly(p, b)
        product = f * g
        assert product.coeffs == mod_reference(p, a, b)
        assert product.stride == _stride(product.coeffs)

    @pytest.mark.parametrize("p,n,nbytes", [
        (2, 40, 1), (3, 40, 1), (13, 40, 2), (251, 40, 3), (257, 300, 4),
        (65537, 40, 5), (1048573, 40, 6), (16777213, 40, 7), (268435399, 40, 8),
        (2**31 - 1, 40, 9),
    ])
    def test_digit_bound_is_reached(self, p, n, nbytes, monkeypatch):
        # the middle digit of (p - 1, ..., p - 1)^2 is n * (p - 1)^2, the bound
        widths = []

        def spy(coeffs, width, *signed):
            widths.append((width, *signed))
            return _pack(coeffs, width, *signed)

        monkeypatch.setattr(cyclotomic, "_pack", spy)
        a = [p - 1] * n
        f = ModPoly(p, a)
        assert (f * f).coeffs == mod_reference(p, a, a)
        assert (f * ModPoly(p, a + [1])).coeffs == mod_reference(p, a, a + [1])
        assert widths == [(nbytes, False)] * 3
        assert (n * (p - 1) ** 2).bit_length() > 8 * nbytes - 8


class TestEveryProductPacks:
    """Every product of nonzero operands takes Kronecker substitution: it packs
    each operand once, or its one operand once for a square, short dense
    operands and long ones against a few nonzeros alike."""

    @pytest.fixture
    def packed(self, monkeypatch):
        lengths = []

        def spy(coeffs, *args):
            lengths.append(len(coeffs))
            return _pack(coeffs, *args)

        monkeypatch.setattr(cyclotomic, "_pack", spy)
        return lengths

    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_short_dense_operands(self, n, packed):
        p = 10007
        rng = random.Random(n)
        a = [rng.randrange(1, p) for _ in range(n)]
        b = [-rng.randrange(1, 2**40) for _ in range(n)]
        c = [rng.randrange(1, p) for _ in range(n)]
        for f, g, expected, square in [
            (IntPoly(a), IntPoly(b), reference_mul(a, b), reference_mul(a, a)),
            (ModPoly(p, a), ModPoly(p, c), mod_reference(p, a, c), mod_reference(p, a, a)),
        ]:
            packed.clear()
            assert (f * g).coeffs == expected
            assert packed == [n, n]
            packed.clear()
            assert (f * f).coeffs == square
            assert packed == [n]

    def test_long_times_three_nonzeros(self, packed):
        # shaped like the lemma's Frobenius check at p = 10007: a long
        # compressed product against Phi_n(X^p) with few nonzeros
        p = 10007
        rng = random.Random(p)
        a = [rng.randrange(1, p) for _ in range(20000)]
        b = stretch([rng.randrange(1, p) for _ in range(3)], p)
        assert (ModPoly(p, a) * ModPoly(p, b)).coeffs == mod_reference(p, a, b)
        assert packed == [20000, len(b)]


class TestLongOperands:
    @pytest.mark.parametrize("p", [2, 13, 2**31 - 1])
    def test_long_times_short(self, p):
        rng = random.Random(p)
        a = [rng.randrange(p) for _ in range(OLD_SWITCH + 57)]
        for k in (3, 16, 40):
            b = [rng.randrange(p) for _ in range(k)]
            assert (ModPoly(p, a) * ModPoly(p, b)).coeffs == mod_reference(p, a, b)

    def test_long_signed_int_times_short(self):
        rng = random.Random(7)
        a = [rng.randrange(-(2**70), 2**70) for _ in range(OLD_SWITCH + 9)]
        b = [rng.randrange(-(2**66), 2**66) for _ in range(17)]
        assert (IntPoly(a) * IntPoly(b)).coeffs == reference_mul(a, b)

    @pytest.mark.parametrize("p", [2, 13, 2**31 - 1])
    def test_long_times_long_by_evaluation(self, p):
        rng = random.Random(p + 1)
        f = ModPoly(p, [rng.randrange(p) for _ in range(OLD_SWITCH + 300)])
        g = ModPoly(p, [rng.randrange(p) for _ in range(2 * OLD_SWITCH)])
        prod, square = f * g, f * f
        assert prod.degree == f.degree + g.degree
        for x in [0, 1, p - 1] + [rng.randrange(p) for _ in range(5)]:
            assert at(prod, x) == at(f, x) * at(g, x) % p
            assert at(square, x) == at(f, x) * at(f, x) % p

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_sparse_long_power(self, p):
        # Phi_{n p} = Phi_n^(p-1) mod p; Phi_n = X^1024 - X^512 + 1 is sparse
        n = 3 * 2**10
        pbar = reduce_mod(cyclotomic_poly(n), p)
        assert pbar ** (p - 1) == reduce_mod(cyclotomic_poly(n * p), p)

    def test_long_power_by_evaluation(self):
        p = 2**31 - 1
        rng = random.Random(3)
        f = ModPoly(p, [rng.randrange(p) for _ in range(700)])
        h = f**6
        assert h.degree == 6 * f.degree
        for x in [rng.randrange(p) for _ in range(5)]:
            assert at(h, x) == pow(at(f, x), 6, p)


@pytest.mark.parametrize("k", [16, 17, 64, 256, 1024])
@pytest.mark.parametrize("m", [1, 8, 31, 64])
def test_extreme_coefficients(k, m):
    # the middle coefficient reaches the size bound the packing width is set from
    top = 2**m - 1
    overlap = [min(i + 1, k, 2 * k - 1 - i) for i in range(2 * k - 1)]
    prod = IntPoly([-top] * k) * IntPoly([top] * k)
    assert prod.coeffs == tuple(-top * top * c for c in overlap)
    p = 2**31 - 1
    square = ModPoly(p, [p - 1] * k) ** 2
    assert square.coeffs == tuple(c % p for c in overlap)


# (m1, m2) coprime: the strides g * m1 and g * m2 have gcd g
COPRIME = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
gcds = st.integers(1, 6)


class TestStrideRule:
    """Products and reductions of f(X^k1) and g(X^k2) against the reference."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), g=gcds, m=st.sampled_from(COPRIME))
    def test_int_mul_matches_reference(self, data, g, m):
        a = stretch(data.draw(lengths.flatmap(int_coeffs)), g * m[0])
        b = stretch(data.draw(lengths.flatmap(int_coeffs)), g * m[1])
        assert (IntPoly(a) * IntPoly(b)).coeffs == reference_mul(a, b)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), g=gcds, m=st.sampled_from(COPRIME))
    def test_mod_mul_matches_reference(self, data, g, m):
        p = data.draw(st.sampled_from(PRIMES))
        a = stretch(data.draw(mod_coeffs(p)), g * m[0])
        b = stretch(data.draw(mod_coeffs(p)), g * m[1])
        assert (ModPoly(p, a) * ModPoly(p, b)).coeffs == mod_reference(p, a, b)

    @settings(max_examples=100, deadline=None)
    @given(a=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=48),
           k=gcds, p=st.sampled_from(PRIMES), n=st.integers(0, 5))
    def test_squares_and_powers_match_reference(self, a, k, p, n):
        f, fbar = IntPoly(stretch(a, k)), ModPoly(p, stretch(a, k))
        assert (f * f).coeffs == reference_mul(f.coeffs, f.coeffs)
        assert (fbar * fbar).coeffs == mod_reference(p, fbar.coeffs, fbar.coeffs)
        assert (fbar**n).coeffs == strip_mod(p, reference_pow(fbar.coeffs, n))

    @pytest.mark.parametrize("k", [1, 2, 5, 6])
    @pytest.mark.parametrize("const", [(), (7,), (-2,)])
    def test_constant_and_zero_operands(self, k, const):
        coeffs = stretch([3, 0, -1, 4], k)
        for make in (IntPoly, lambda c: ModPoly(13, c)):
            f, c = make(coeffs), make(const)
            expected = make(reference_mul(const, coeffs))
            assert f * c == c * f == expected
            assert c * c == make(reference_mul(const, const))

    def test_dense_grid_of_sizes(self):
        # dense compressed lengths (la, lb) at strides 1, 4 and 6, every prime
        rng = random.Random(11)
        for la, lb in [(2, 5), (11, 12), (12, 12), (13, 11), (48, 30)]:
            for k in (1, 4, 6):
                a = stretch([rng.randrange(1, 2**40) for _ in range(la)], k)
                b = stretch([-rng.randrange(1, 2**40) for _ in range(lb)], k)
                assert (IntPoly(a) * IntPoly(b)).coeffs == reference_mul(a, b)
                for p in PRIMES:
                    assert (ModPoly(p, a) * ModPoly(p, b)).coeffs == mod_reference(p, a, b)

    @pytest.mark.parametrize("coeffs, p, expected", [
        ((1, 0, 0, 0, 3), 3, (1,)),
        ((1, 0, 3, 0, 1), 3, (1, 0, 0, 0, 1)),
        ((3, 0, 0, 1, 0, 0, 6), 3, (0, 0, 0, 1)),
        ((0, 0, 6, 0, 0, 0, 9), 3, ()),
    ], ids=["leading-vanishes", "middle-vanishes", "ends-vanish", "all-vanish"])
    def test_reduce_mod_examples(self, coeffs, p, expected):
        assert reduce_mod(IntPoly(coeffs), p).coeffs == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=gcds, p=st.sampled_from(PRIMES))
    def test_reduce_mod_matches_reference(self, data, k, p):
        # about a third of the coefficients are nonzero multiples of p
        coeff = st.one_of(st.integers(-5, 5).map(lambda c: c * p),
                          st.integers(-(2**40), 2**40))
        coeffs = stretch(data.draw(st.lists(coeff, max_size=24)), k)
        assert reduce_mod(IntPoly(coeffs), p).coeffs == strip_mod(p, coeffs)

    @pytest.mark.parametrize("n, s", [(8192, 3), (15625, 3), (16807, 3), (14406, 5)])
    def test_prime_power_identity(self, n, s):
        # Phi_{n s} = Phi_n^(s-1) mod s, the identity the benchmark checks on
        # operands in X^4096, X^3125 and X^2401
        base = strip_mod(s, cyclotomic_poly(n).coeffs)
        expected = strip_mod(s, reference_pow(base, s - 1))
        assert reduce_mod(cyclotomic_poly(n * s), s).coeffs == expected
        assert (reduce_mod(cyclotomic_poly(n), s) ** (s - 1)).coeffs == expected


# f(X^k) with zero, constants and short sequences among f, k from 1 to 6
strided = st.builds(stretch, st.lists(st.integers(-3, 3), max_size=6), st.integers(1, 6))


def exact(poly, coeffs):
    """poly has the coefficients coeffs, stored in canonical form: its stride is
    the scanned one and its compressed tuple is coeffs taken at that stride."""
    assert poly.coeffs == tuple(coeffs)
    assert poly.stride == _stride(poly.coeffs)
    assert poly._short == poly.coeffs[::poly.stride or 1]


class TestStoredStride:
    """The canonical form f(X^k) each result is stored in, and when it expands."""

    @settings(max_examples=200, deadline=None)
    @given(a=strided, b=strided, j=st.integers(1, 4), n=st.integers(0, 4),
           p=st.sampled_from((2, 3, 13)))
    def test_kept_stride_is_exact(self, a, b, j, n, p):
        f, g = IntPoly(a).compose_power(j), IntPoly(b)
        exact(f, stretch(IntPoly(a).coeffs, j))
        prod = f * g
        exact(prod, reference_mul(f.coeffs, g.coeffs))
        exact(f**n, reference_pow(f.coeffs, n))
        fbar, gbar = reduce_mod(prod, p), reduce_mod(g, p).compose_power(j)
        exact(fbar, strip_mod(p, prod.coeffs))
        exact(gbar, strip_mod(p, stretch(g.coeffs, j)))
        exact(fbar * gbar, mod_reference(p, fbar.coeffs, gbar.coeffs))
        exact(gbar**n, strip_mod(p, reference_pow(gbar.coeffs, n)))

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.one_of(strided.map(list), st.lists(st.integers(-2, 2), max_size=12)))
    @example(coeffs=[])
    @example(coeffs=[5])
    @example(coeffs=[0, 0, 0, 7])
    @example(coeffs=[1, 0, 0, 0, 2, 0, 3])
    def test_stride_is_the_exponent_gcd(self, coeffs):
        # the per-exponent loop `_stride` replaced by one gcd call
        k = 0
        for e, c in enumerate(coeffs):
            if c:
                k = math.gcd(k, e)
        assert _stride(coeffs) == _stride(tuple(coeffs)) == k

    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_constant_keeps_the_other_stride(self, k):
        f = IntPoly(stretch([3, 0, -1, 4], k))
        for c in (IntPoly((7,)), IntPoly((7,)).compose_power(5)):
            assert c.stride == 0
            assert (c * f).stride == (f * c).stride == f.stride == k
        assert IntPoly().stride == IntPoly((7,)).stride == 0

    def test_expanded_power_is_never_scanned(self, monkeypatch):
        # Phi_16807 = Phi_7(X^2401) has 14,407 coefficients; it is stored as
        # Phi_7 at stride 2401, and the products work on 7 to 13 coefficients:
        # nothing long is scanned or built until `coeffs` is read
        lengths_seen, built = [], []
        spread = cyclotomic._spread

        def stride_spy(coeffs):
            lengths_seen.append(len(coeffs))
            return _stride(coeffs)

        def spread_spy(short, j):
            out = spread(short, j)
            built.append(len(out))
            return out

        monkeypatch.setattr(cyclotomic, "_stride", stride_spy)
        monkeypatch.setattr(cyclotomic, "_spread", spread_spy)
        cyclotomic_poly.cache_clear()
        phi = cyclotomic_poly(16807)
        square = reduce_mod(phi, 3) ** 2
        assert square.degree == 2 * phi.degree == 28812
        assert lengths_seen and max(lengths_seen) < 100
        assert max(built, default=0) < 100
        coeffs = square.coeffs
        assert built[-1] == 28813
        assert built.count(28813) == 1
        assert coeffs == strip_mod(3, reference_pow(phi.coeffs, 2))


def plain(coeffs):
    """coeffs as a tuple without trailing zeros."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def plain_str(coeffs):
    """The text of a polynomial, rendered from its expanded coefficients."""
    terms = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if c:
            mono = {0: "1", 1: "X"}.get(i, f"X^{i}")
            body = str(abs(c)) if i == 0 else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            sign = ("" if c > 0 else "-") if not terms else ("+ " if c > 0 else "- ")
            terms.append(sign + body)
    return " ".join(terms) or "0"


def plain_divmod(a, d):
    """Long division of a by the monic d, on plain lists."""
    rem, quot = list(a), [0] * max(len(a) - len(d) + 1, 0)
    for i in reversed(range(len(quot))):
        c = quot[i] = rem[i + len(d) - 1]
        for j, y in enumerate(d):
            rem[i + j] -= c * y
    return plain(quot), plain(rem)


monic_strided = st.builds(stretch, st.lists(st.integers(-3, 3), max_size=4).map(
    lambda f: f + [1]), st.integers(1, 6))


class TestCompressedForm:
    """Every operation on the stored f(X^k) against plain expanded tuples:
    strides 1-6, zero and constants among the operands."""

    def same(self, poly, ref, p=None):
        """poly, never expanded before, agrees with the expanded tuple ref."""
        assert poly.degree == len(ref) - 1
        assert poly.stride == math.gcd(*(i for i, c in enumerate(ref) if c))
        assert bool(poly) == bool(ref)
        assert [poly[i] for i in range(-2, len(ref) + 9)] == [0, 0, *ref] + [0] * 9
        other = IntPoly(ref) if p is None else ModPoly(p, ref)
        assert poly == other and hash(poly) == hash(other)
        text = plain_str(ref)
        assert str(poly) == (text if p is None else f"({text}) mod {p}")
        assert poly.coeffs == ref

    @settings(max_examples=300, deadline=None)
    @given(a=strided, b=strided, d=monic_strided, j=st.integers(1, 6),
           n=st.integers(0, 4), p=st.sampled_from(PRIMES), x=st.integers(-7, 7))
    def test_int_operations(self, a, b, d, j, n, p, x):
        ra, rb = plain(a), plain(b)
        f, g = IntPoly(a), IntPoly(b)
        assert (f == g) == (ra == rb)
        assert f(x) == sum(c * x**i for i, c in enumerate(ra))
        assert f(2**70) == sum(c * 2 ** (70 * i) for i, c in enumerate(ra))
        self.same(f * g, reference_mul(ra, rb))
        self.same(f**n, reference_pow(ra, n))
        self.same(f.compose_power(j), plain(stretch(ra, j)))
        self.same(reduce_mod(f, p), strip_mod(p, ra), p)
        quot, rem = f.divmod_monic(IntPoly(d))
        ref_quot, ref_rem = plain_divmod(ra, plain(d))
        self.same(quot, ref_quot)
        self.same(rem, ref_rem)
        self.same(IntPoly(a), ra)

    @settings(max_examples=300, deadline=None)
    @given(a=strided, b=strided, j=st.integers(1, 6), n=st.integers(0, 4),
           p=st.sampled_from(PRIMES))
    def test_mod_operations(self, a, b, j, n, p):
        ra, rb = strip_mod(p, a), strip_mod(p, b)
        f, g = ModPoly(p, a), ModPoly(p, b)
        assert (f == g) == (ra == rb)
        self.same(f * g, mod_reference(p, ra, rb), p)
        self.same(f**n, strip_mod(p, reference_pow(ra, n)), p)
        self.same(f.compose_power(j), plain(stretch(ra, j)), p)
        self.same(ModPoly(p, a), ra, p)


class CountingPoly:
    """Stand-in that counts the products `_power` asks for."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        CountingPoly.products += 1
        return CountingPoly(self.value * other.value)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12, 31, 32, 100])
def test_power_does_no_wasted_products(n):
    CountingPoly.products = 0
    assert _power(CountingPoly(3), n, CountingPoly(1)).value == 3**n
    squarings = max(n.bit_length() - 1, 0)
    assert CountingPoly.products == squarings + max(bin(n).count("1") - 1, 0)


def test_import_leaves_numpy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, cremona_bounds; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
