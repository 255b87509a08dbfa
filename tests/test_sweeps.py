import random

import pytest

from cremona_bounds import intlinalg, sweeps
from cremona_bounds.errors import DomainError
from cremona_bounds.ff_oracle import FiniteFieldTorus, group_order
from cremona_bounds.numth import euler_phi, is_prime
from cremona_bounds.sampling import random_finite_order_matrix
from cremona_bounds.sweeps import (
    SHARP_T,
    SWEEP_P,
    oracle_checks,
    oracle_single_check,
    run_oracle_sweep,
    sharpness_sweep,
    smallest_prime_with_order_divisor,
)


class TestOracleChecks:
    def test_single_check_adds_structure_to_the_sweep_row(self):
        rng = random.Random(5)
        for _ in range(10):
            tor = FiniteFieldTorus(q=8, sigma=random_finite_order_matrix(rng, 4))
            invariants, rows = oracle_checks(tor, (3, 5, 7))
            for p, row in rows.items():
                single = oracle_single_check(tor, p)
                assert list(single) == [
                    "q", "p", "t", "invariant_factors", "group_order",
                    "p_elementary_rank", "kernel_dim", "rank_bound", "ok",
                ]
                assert single["invariant_factors"] == list(invariants)
                assert single["group_order"] == group_order(tor)
                assert {k: single[k] for k in row} == row

    def test_characteristic_rejected(self):
        tor = FiniteFieldTorus(q=9, sigma=intlinalg.IntMatrix([[-1]]))
        with pytest.raises(DomainError):
            oracle_checks(tor, (2, 3))


class TestRunOracleSweep:
    def test_each_sigma_checked_once(self, monkeypatch):
        # one finite-order check per torus, not one per field size q
        calls = []
        original = intlinalg.char_poly
        monkeypatch.setattr(intlinalg, "char_poly",
                            lambda m: calls.append(m) or original(m))
        summary = run_oracle_sweep(6, seed=2)
        assert summary["tori"] == 6 and not summary["violations"]
        assert len(calls) == 6

    def test_violation_record(self, monkeypatch):
        monkeypatch.setattr(sweeps, "kernel_dim_mod_p", lambda m, p: 99)
        summary = run_oracle_sweep(1, seed=0, qs=(4,), ps=(3,))
        (record,) = summary["violations"]
        assert list(record) == [
            "torus", "q", "p", "p_elementary_rank", "kernel_dim", "rank_bound",
        ]
        assert (record["torus"], record["q"], record["p"], record["kernel_dim"]) == (
            0, 4, 3, 99,
        )

    def test_every_coprime_pair_checked(self):
        summary = run_oracle_sweep(3, seed=1, qs=(4, 9), ps=(2, 3, 5))
        assert summary["checks"] == 3 * 4

    @pytest.mark.parametrize("kwargs", [
        {"count": 0}, {"count": -3}, {"ps": (0,)}, {"ps": (4,)},
        {"qs": (0,)}, {"qs": (6,)}, {"qs": (2**21,)}, {"qs": (4, 8), "ps": (2,)},
    ])
    def test_bad_arguments_rejected(self, kwargs):
        kwargs = {"count": 1, **kwargs}
        with pytest.raises(DomainError):
            run_oracle_sweep(seed=0, **kwargs)


class TestSmallestPrimeWithOrderDivisor:
    def test_against_scan(self):
        for t in range(1, 80):
            p = 2
            while not (is_prime(p) and (p - 1) % t == 0):
                p += 1
            assert smallest_prime_with_order_divisor(t) == p

    def test_bad_t(self):
        with pytest.raises(DomainError):
            smallest_prime_with_order_divisor(0)


def test_sharpness_sweep_cases():
    cases = sharpness_sweep()
    assert [(c["d"], c["t"]) for c in cases] == [
        (d, t) for t in SHARP_T for d in range(euler_phi(t), 7)
    ]
    assert all(c["attained"] and c["p"] in SWEEP_P for c in cases)
