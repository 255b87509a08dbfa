import re
import time
from math import gcd, isqrt, lcm

import pytest

from cremona_bounds.cremona_table import (
    AlgebraicallyClosed,
    CyclotomicExtension,
    FiniteField,
    Rationals,
    check_field_size,
    cremona_rank_bound,
    t_for_field,
)
from cremona_bounds.cyclotomic import order_t_multiplicity
from cremona_bounds.errors import DomainError
from cremona_bounds.ff_oracle import smallest_field_with_t
from cremona_bounds.numth import divisors, euler_phi, is_prime, residues_of_order
from cremona_bounds.torus_rank import theorem_bound

TABLE = [
    (2, 1, 4),
    (3, 1, 3),
    (3, 2, 2),
    (5, 1, 2),
    (5, 2, 2),
    (7, 3, 1),
    (13, 4, 1),
    (7, 6, 1),
    (11, 5, 0),
]


class TestCremonaRankBound:
    @pytest.mark.parametrize("p,t,expected", TABLE)
    def test_table(self, p, t, expected):
        assert cremona_rank_bound(p, t).rank_bound == expected

    def test_unrealizable_pair_rejected(self):
        with pytest.raises(DomainError):
            cremona_rank_bound(11, 3)
        with pytest.raises(DomainError):
            cremona_rank_bound(2, 2)

    def test_non_prime_rejected(self):
        with pytest.raises(DomainError):
            cremona_rank_bound(9, 2)

    def test_zero_exactly_off_the_small_orders(self):
        for p in (5, 7, 11, 13, 31, 61):
            for t in divisors(p - 1):
                bound = cremona_rank_bound(p, t).rank_bound
                assert (bound == 0) == (t not in (1, 2, 3, 4, 6)), (p, t)

    def test_monotone_in_t(self):
        # non-increasing over the orders with nonzero bound; outside
        # {1,2,3,4,6} the bound drops to 0 and can jump back (t=5 vs t=6)
        for p in (3, 5, 7, 13, 31, 61):
            prev = None
            for t in (1, 2, 3, 4, 6):
                if (p - 1) % t:
                    continue
                bound = cremona_rank_bound(p, t).rank_bound
                if prev is not None:
                    assert bound <= prev
                prev = bound

    def test_contains_two_dim_torus_witness(self):
        # apart from P1 x P1 (p = 2) and the Fermat cubic (3, 1), every row is
        # the rank bound of a 2-dimensional torus
        for p in range(3, 400):
            if not is_prime(p):
                continue
            for t in divisors(p - 1):
                if (p, t) != (3, 1):
                    bound = cremona_rank_bound(p, t).rank_bound
                    assert bound == theorem_bound(2, t), (p, t)

    def test_every_row_below_400(self):
        # eq. (11): 4 for p = 2, 3 for (3, 1), else floor(2 / phi(t)), with
        # phi counted here by gcd
        examples = {2: "rank-2 torus witness", 1: "rank-1 torus witness, t in {3, 4, 6}",
                    0: "none (rank bound 0)"}
        for p in filter(is_prime, range(2, 400)):
            for t in (t for t in range(1, p) if (p - 1) % t == 0):
                phi = sum(gcd(k, t) == 1 for k in range(1, t + 1))
                if p == 2:
                    row = (4, "(Z/2)^4 acting on P1 x P1")
                elif (p, t) == (3, 1):
                    row = (3, "Fermat cubic surface, rank 3")
                else:
                    row = (2 // phi, examples[2 // phi])
                bound = cremona_rank_bound(p, t)
                assert (bound.p, bound.t, bound.rank_bound, bound.attained_by) == (p, t, *row)


def attaining_example(p, t):
    return cremona_rank_bound(p, t).attained_by


class TestAttainingExample:
    def test_fermat_cubic(self):
        assert attaining_example(3, 1) == "Fermat cubic surface, rank 3"

    def test_p2(self):
        assert attaining_example(2, 1) == "(Z/2)^4 acting on P1 x P1"

    def test_order_four(self):
        assert attaining_example(13, 4) == "rank-1 torus witness, t in {3, 4, 6}"

    def test_zero_case(self):
        assert attaining_example(11, 5) == "none (rank bound 0)"

    def test_stable_in_bound_record(self):
        bound = cremona_rank_bound(5, 2)
        assert bound.attained_by == "rank-2 torus witness"


@pytest.mark.parametrize(
    "p,t,message",
    [(7, 4, "t = 4 does not divide p - 1 = 6"),
     (7, 0, "t = 0 does not divide p - 1 = 6"),
     (9, 2, "modulus is not prime: 9"),
     (7, 2.0, "t = 2.0 does not divide p - 1 = 6")],
    ids=["7-4", "7-0", "9-2", "7-2.0"],
)
@pytest.mark.parametrize(
    "check",
    [residues_of_order, lambda p, t: order_t_multiplicity(1, p, t),
     cremona_rank_bound, attaining_example, smallest_field_with_t],
    ids=["residues_of_order", "order_t_multiplicity",
         "cremona_rank_bound", "attaining_example", "smallest_field_with_t"],
)
def test_invalid_pair_rejected_by_the_one_check(check, p, t, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        check(p, t)


def is_prime_power(q):
    """q >= 2 is a power of its least divisor above 1, by trial division."""
    ell = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    while q % ell == 0:
        q //= ell
    return q == 1


class TestCheckFieldSize:
    def test_accepts_exactly_the_prime_powers(self):
        for q in (*range(2, 5001), *range(2**20 - 999, 2**20 + 1)):
            try:
                accepted = check_field_size(q) == q
            except DomainError:
                accepted = False
            assert accepted == is_prime_power(q), q

    @pytest.mark.parametrize("q", [0, 1, -8, 6, 12, 2**20 + 1, 2**61 - 1, True, 4.0])
    def test_message(self, q):
        message = f"q = {q} is not a prime power in [2, 2^20]"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check_field_size(q)


class TestTForField:
    def test_rationals(self):
        assert t_for_field(Rationals(), 5) == 4

    def test_cyclotomic_contains_root(self):
        assert t_for_field(CyclotomicExtension(3), 3) == 1

    def test_cyclotomic_closed_form_is_the_degree_ratio(self):
        # [Q(zeta_lcm(m, p)) : Q(zeta_m)] = phi(lcm(m, p)) / phi(m)
        for p in [p for p in range(2, 51) if is_prime(p)]:
            for m in range(1, 201):
                expected = euler_phi(lcm(m, p)) // euler_phi(m)
                assert t_for_field(CyclotomicExtension(m), p) == expected, (m, p)

    def test_cyclotomic_large_index_without_factoring(self):
        # 2^61 - 1 is prime: factoring it by trial division would not end
        start = time.perf_counter()
        assert t_for_field(CyclotomicExtension(2**61 - 1), 3) == 2
        assert time.perf_counter() - start < 1

    def test_cyclotomic_index_must_be_an_int(self):
        for m in (2.0, True):
            with pytest.raises(DomainError, match="must be an integer >= 1"):
                CyclotomicExtension(m)

    def test_finite_field(self):
        assert t_for_field(FiniteField(4), 3) == 1
        assert t_for_field(FiniteField(2), 7) == 3

    def test_algebraically_closed(self):
        assert t_for_field(AlgebraicallyClosed(), 13) == 1

    def test_excluded_characteristic(self):
        with pytest.raises(DomainError):
            t_for_field(FiniteField(8), 2)
        with pytest.raises(DomainError, match="^p = 3 is the characteristic of F_9$"):
            t_for_field(FiniteField(9), 3)

    def test_bad_descriptors(self):
        with pytest.raises(DomainError):
            FiniteField(6)
        with pytest.raises(DomainError):
            FiniteField(6.5)
        with pytest.raises(DomainError):
            t_for_field(FiniteField(4.0), 3)
        with pytest.raises(DomainError):
            CyclotomicExtension(0)
        with pytest.raises(DomainError):
            t_for_field("Q", 5)

    def test_large_q_rejected_before_factoring(self):
        # 2^61 - 1 is prime: trial division up to its square root never ended
        for q in (2**20 + 1, 2**61 - 1, 10**40):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="prime power in"):
                FiniteField(q)
            assert time.perf_counter() - start < 1
        assert FiniteField(2**20).q == 2**20

    def test_t_divides_p_minus_one_sweep(self):
        fields = [
            Rationals(),
            AlgebraicallyClosed(),
            FiniteField(2),
            FiniteField(4),
            FiniteField(9),
            FiniteField(25),
            CyclotomicExtension(1),
            CyclotomicExtension(3),
            CyclotomicExtension(8),
            CyclotomicExtension(12),
        ]
        for p in [p for p in range(2, 51) if is_prime(p)]:
            for k in fields:
                if isinstance(k, FiniteField) and k.q % p == 0:
                    continue
                t = t_for_field(k, p)
                assert (p - 1) % t == 0, (k, p, t)
