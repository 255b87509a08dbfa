import pytest

from cremona_bounds.cremona_table import (
    AlgebraicallyClosed,
    CyclotomicExtension,
    FiniteField,
    Rationals,
    attaining_example,
    cremona_rank_bound,
    t_for_field,
)
from cremona_bounds.cyclotomic import order_t_multiplicity
from cremona_bounds.errors import DomainError
from cremona_bounds.ff_oracle import smallest_field_with_t
from cremona_bounds.numth import divisors, is_prime, residues_of_order
from cremona_bounds.torus_rank import canonical_eps, theorem_bound

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
    [residues_of_order, lambda p, t: order_t_multiplicity(1, p, t), canonical_eps,
     cremona_rank_bound, attaining_example, smallest_field_with_t],
    ids=["residues_of_order", "order_t_multiplicity", "canonical_eps",
         "cremona_rank_bound", "attaining_example", "smallest_field_with_t"],
)
def test_invalid_pair_rejected_by_the_one_check(check, p, t, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        check(p, t)


class TestTForField:
    def test_rationals(self):
        assert t_for_field(Rationals(), 5) == 4

    def test_cyclotomic_contains_root(self):
        assert t_for_field(CyclotomicExtension(3), 3) == 1

    def test_finite_field(self):
        assert t_for_field(FiniteField(4), 3) == 1
        assert t_for_field(FiniteField(2), 7) == 3

    def test_algebraically_closed(self):
        assert t_for_field(AlgebraicallyClosed(), 13) == 1

    def test_excluded_characteristic(self):
        with pytest.raises(DomainError):
            t_for_field(FiniteField(8), 2)

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
