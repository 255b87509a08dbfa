"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time

import pytest

from cremona_bounds.cremona_table import cremona_rank_bound
from cremona_bounds.cyclotomic import IntPoly, cyclotomic_poly, verify_lemma_range
from cremona_bounds.numth import euler_phi, is_prime
from cremona_bounds.sampling import random_finite_order_matrix, random_unimodular
from cremona_bounds.sweeps import run_oracle_sweep, sharpness_case
from cremona_bounds.torus_rank import GaloisTorusPresentation, fixed_point_rank
from cremona_bounds.weyl_audit import audit_pgl4


def report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({elapsed:.3f}s) {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


EQ11_TABLE = [
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


def test_criterion_1_rank_table():
    # warm the import/caches so the timed section measures the lookups only
    cremona_rank_bound(2, 1)
    t0 = time.perf_counter()
    results = [cremona_rank_bound(p, t).rank_bound for p, t, _ in EQ11_TABLE]
    elapsed = time.perf_counter() - t0
    ok = results == [r for _, _, r in EQ11_TABLE] and elapsed < 0.001
    report(1, ok, elapsed, f"table results {results}")


def test_criterion_2_lemma_sweep():
    t0 = time.perf_counter()
    rep = verify_lemma_range(60, {2, 3, 5, 7, 11, 13})
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    report(2, ok, elapsed, f"{rep.checks_run} checks, "
           f"{len(rep.counterexamples)} counterexamples")


def test_criterion_3_oracle_sweep():
    t0 = time.perf_counter()
    summary = run_oracle_sweep(200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        summary["tori"] >= 200
        and not summary["violations"]
        and elapsed < 30.0
    )
    report(3, ok, elapsed, f"{summary['checks']} checks, "
           f"{len(summary['violations'])} violations")


def test_criterion_4_sharpness():
    t0 = time.perf_counter()
    cases = [
        sharpness_case(d, t)
        for t in (1, 2, 3, 4, 6)
        for d in range(euler_phi(t), 7)
    ]
    elapsed = time.perf_counter() - t0
    gaps = [c for c in cases if not c["attained"]]
    report(4, not gaps, elapsed, f"{len(cases)} cases, {len(gaps)} gaps")


def test_criterion_5_weyl_audit():
    t0 = time.perf_counter()
    rep = audit_pgl4(3)
    elapsed = time.perf_counter() - t0
    ok = (
        len(rep.elements) == 24
        and rep.passed
        and rep.max_minus_one_multiplicity == 2
        and elapsed < 1.0
    )
    report(5, ok, elapsed,
           f"max -1 multiplicity {rep.max_minus_one_multiplicity}")


def test_criterion_6_cyclotomic_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 201):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        if prod != IntPoly([-1] + [0] * (n - 1) + [1]):  # X^n - 1
            ok = False
            break
    if ok:
        ok = all(cyclotomic_poly(n).degree == euler_phi(n) for n in range(1, 501))
    if ok:
        ok = -2 in cyclotomic_poly(105).coeffs
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(6, ok, elapsed)


def test_criterion_7_basis_invariance():
    rng = random.Random(2024)
    t_choices = (1, 2, 3, 4, 6)
    smallest_p = {t: next(p for p in range(2, 20)
                          if is_prime(p) and (p - 1) % t == 0)
                  for t in t_choices}
    t0 = time.perf_counter()
    violations = 0
    for _ in range(20):
        d = rng.randint(1, 6)
        sigma = random_finite_order_matrix(rng, d)
        t = rng.choice(t_choices)
        p = smallest_p[t]
        base = fixed_point_rank(GaloisTorusPresentation(d, sigma, t), p)
        for _ in range(100):
            u, u_inv = random_unimodular(rng, d)
            conj = u @ sigma @ u_inv
            cert = fixed_point_rank(GaloisTorusPresentation(d, conj, t), p)
            if cert.eigenspace_rank != base.eigenspace_rank:
                violations += 1
    elapsed = time.perf_counter() - t0
    report(7, violations == 0, elapsed,
           f"20 presentations x 100 conjugations, {violations} violations")
