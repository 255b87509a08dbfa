from itertools import permutations
from math import prod

import pytest
import sympy

from cremona_bounds import weyl_audit
from cremona_bounds.cyclotomic import IntPoly, cyclotomic_poly
from cremona_bounds.errors import DomainError
from cremona_bounds.intlinalg import IntMatrix, finite_order_indices
from cremona_bounds.weyl_audit import audit_pgl4, enumerate_weyl

# invariant degrees of the rank-3 symmetric-group reflection representation
INVARIANT_DEGREES = (2, 3, 4)


def by_perm():
    return {e.permutation: e for e in enumerate_weyl()}


def char_poly(m: IntMatrix) -> IntPoly:
    """The audit's char poly: the product of Phi_d over the checked indices."""
    return prod(map(cyclotomic_poly, finite_order_indices(m)), start=IntPoly((1,)))


class TestEnumerateWeyl:
    def test_count_and_order(self):
        elems = enumerate_weyl()
        assert len(elems) == 24
        assert [e.permutation for e in elems] == sorted(permutations(range(4)))

    def test_identity(self):
        assert by_perm()[(0, 1, 2, 3)].matrix == IntMatrix.identity(3)

    def test_transposition_char_poly(self):
        # (0 1): eigenvalues 1, 1, -1 on the quotient lattice
        m = by_perm()[(1, 0, 2, 3)].matrix
        assert char_poly(m) == IntPoly((-1, 1)) ** 2 * IntPoly((1, 1))

    def test_four_cycle_char_poly(self):
        m = by_perm()[(1, 2, 3, 0)].matrix
        assert char_poly(m) == IntPoly((1, 1, 1, 1))

    def test_homomorphism_all_pairs(self):
        elems = enumerate_weyl()
        lookup = {e.permutation: e.matrix for e in elems}
        for a in elems:
            for b in elems:
                composed = tuple(a.permutation[b.permutation[i]] for i in range(4))
                assert lookup[composed] == a.matrix @ b.matrix

    def test_matrix_order_matches_permutation_order(self):
        from math import lcm

        from cremona_bounds.intlinalg import finite_order_indices

        for e in enumerate_weyl():
            perm_order = 1
            current = e.permutation
            ident = (0, 1, 2, 3)
            while current != ident:
                current = tuple(e.permutation[current[i]] for i in range(4))
                perm_order += 1
            assert lcm(*finite_order_indices(e.matrix)) == perm_order

    def test_indices_divide_invariant_degrees(self):
        for e in enumerate_weyl():
            for d_i in finite_order_indices(e.matrix):
                assert d_i == 1 or any(
                    deg % d_i == 0 for deg in INVARIANT_DEGREES
                ), e.permutation


class TestAuditPGL4:
    def test_full_audit_passes(self):
        report = audit_pgl4()
        assert report.passed
        assert report.p == 3
        assert len(report.elements) == 24
        assert report.max_minus_one_multiplicity == 2

    def test_double_transposition(self):
        report = audit_pgl4()
        row = next(
            r for r in report.elements if r["permutation"] == [1, 0, 3, 2]
        )
        assert row["minus_one_multiplicity"] == 2
        assert row["indices"] == [1, 2, 2]

    def test_three_cycle(self):
        report = audit_pgl4()
        row = next(
            r for r in report.elements if r["permutation"] == [1, 2, 0, 3]
        )
        assert row["minus_one_multiplicity"] == 0
        assert row["indices"] == [1, 3]

    def test_no_minus_identity(self):
        minus_identity = IntMatrix.identity(3).shift(-1, 0)
        assert all(e.matrix != minus_identity for e in enumerate_weyl())

    def test_no_cubed_linear_char_poly(self):
        bad = IntPoly((1, 1)) ** 3
        assert all(char_poly(e.matrix) != bad for e in enumerate_weyl())

    def test_char_poly_strings_match_sympy(self):
        for row, e in zip(audit_pgl4().elements, enumerate_weyl()):
            coeffs = sympy.Matrix(e.matrix.rows).charpoly().all_coeffs()
            assert row["char_poly"] == str(IntPoly(int(c) for c in reversed(coeffs)))

    def test_report_key_order(self):
        assert list(audit_pgl4().to_dict()) == [
            "p", "element_count", "elements", "max_minus_one_multiplicity",
            "violations", "passed",
        ]

    def test_violation_fails_the_report(self, monkeypatch):
        monkeypatch.setattr(weyl_audit, "ALLOWED_INDICES", {1, 2, 3})
        report = audit_pgl4()
        assert report.violations and not report.passed
        assert report.to_dict()["passed"] is False

    def test_minus_identity_violates_three_facts(self, monkeypatch):
        # -I has char poly (X+1)^3, so -1 is a triple root mod p
        minus_identity = weyl_audit.WeylElement(
            (0, 1, 2, 3), IntMatrix.identity(3).shift(-1, 0)
        )
        monkeypatch.setattr(weyl_audit, "enumerate_weyl", lambda: [minus_identity])
        report = audit_pgl4()
        assert [v["fact"] for v in report.violations] == [
            "minus_identity_present", "char_poly_(X+1)^3", "minus_one_multiplicity>2",
        ]
        for v in report.violations:
            assert list(v) == [
                "permutation", "char_poly", "indices", "minus_one_multiplicity", "fact",
            ]
            assert v["indices"] == [2, 2, 2] and v["minus_one_multiplicity"] == 3
        assert report.to_dict()["passed"] is False

    def test_other_prime_accepted(self):
        report = audit_pgl4(5)
        assert len(report.elements) == 24

    def test_p_2_rejected(self):
        # -1 = 1 mod 2, so the identity would report multiplicity 3
        with pytest.raises(DomainError, match="odd prime"):
            audit_pgl4(2)
