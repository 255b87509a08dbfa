"""Seeded sweeps that check the rank bound over many inputs.

The oracle sweep draws finite-order tori and, for every field size q and
prime p that does not divide q, compares the p-elementary rank of T(F_q)
with the eigenspace dimension of q*sigma - I mod p and with the bound
floor(d / phi(t)). The sharpness sweep checks that the companion-block
witnesses attain the bound, both by the eigenspace rank and by the oracle.
"""

from math import prod

from .cremona_table import check_field_size
from .errors import DomainError, VerificationError
from .ff_oracle import (
    FiniteFieldTorus,
    group_order,
    p_elementary_rank,
    rational_points_structure,
    smallest_field_with_t,
    t_of_finite_field,
)
from .intlinalg import kernel_dim_mod_p
from .numth import check_prime, euler_phi, is_prime, theorem_bound
from .torus_rank import fixed_point_rank, sharp_construction

SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)
SWEEP_P = (2, 3, 5, 7, 11, 13)
SWEEP_MAX_DIM = 6
SHARP_T = (1, 2, 3, 4, 6)
# tori per oracle sweep; 1,000 take about 2 s on a 2-vCPU machine, and a
# larger count raises DomainError before any torus is drawn
MAX_SWEEP_COUNT = 5000


def oracle_checks(tor: FiniteFieldTorus, primes) -> tuple:
    """The invariant factors of T(F_q), and for each p in primes the check
    p-elementary rank == dim ker(q*sigma - I mod p) <= floor(d / phi(t)),
    as {p: {t, p_elementary_rank, kernel_dim, rank_bound, ok}}.

    The Smith invariants and q*sigma - I are computed once for all p; a p
    that divides q raises DomainError.
    """
    invariants = rational_points_structure(tor)
    points = tor.point_matrix()
    rows = {}
    for p in primes:
        t = t_of_finite_field(tor.q, p)
        prank = p_elementary_rank(invariants, p)
        kdim = kernel_dim_mod_p(points, p)
        bound = theorem_bound(tor.dimension, t)
        rows[p] = {"t": t, "p_elementary_rank": prank, "kernel_dim": kdim,
                   "rank_bound": bound, "ok": prank == kdim and prank <= bound}
    return invariants, rows


def oracle_single_check(tor: FiniteFieldTorus, p: int) -> dict:
    """The oracle check of one torus at one prime, with the invariant
    factors and the order of T(F_q); raises VerificationError unless that
    order, from the cyclotomic indices of sigma, is the product of the
    invariant factors."""
    invariants, rows = oracle_checks(tor, (p,))
    order = group_order(tor)
    if order != prod(invariants):
        raise VerificationError(
            f"|T(F_q)| = {order} is not the product of the invariant factors {invariants}"
        )
    row = rows[p]
    return {"q": tor.q, "p": p, "t": row.pop("t"),
            "invariant_factors": list(invariants), "group_order": order, **row}


def run_oracle_sweep(count: int, seed: int, qs=SWEEP_Q, ps=SWEEP_P) -> dict:
    """Seeded random sweep checking oracle rank == eigenspace dim <= bound
    on count tori of dimension at most SWEEP_MAX_DIM, for every q in qs and
    every p in ps that does not divide q."""
    import random  # loaded by this sweep only

    from .sampling import random_finite_order_matrix

    if count < 1:
        raise DomainError(f"the sweep needs at least one torus, got count = {count}")
    if count > MAX_SWEEP_COUNT:
        raise DomainError(f"the sweep takes at most {MAX_SWEEP_COUNT} tori, got count = {count}")
    ps = sorted(check_prime(p) for p in ps)
    qs = sorted(check_field_size(q) for q in qs)
    if not any(q % p for q in qs for p in ps):
        raise DomainError("every p divides every q: the sweep would check nothing")
    rng = random.Random(seed)
    violations = []
    checks = 0
    for i in range(count):
        sigma = random_finite_order_matrix(rng, rng.randint(1, SWEEP_MAX_DIM))
        for q in qs:
            tor = FiniteFieldTorus(q=q, sigma=sigma)
            _, rows = oracle_checks(tor, [p for p in ps if q % p])
            checks += len(rows)
            for p, row in rows.items():
                if not row["ok"]:
                    violations.append(
                        {"torus": i, "q": q, "p": p,
                         "p_elementary_rank": row["p_elementary_rank"],
                         "kernel_dim": row["kernel_dim"], "rank_bound": row["rank_bound"]}
                    )
    return {"tori": count, "checks": checks, "violations": violations}


def smallest_prime_with_order_divisor(t: int) -> int:
    """Smallest prime p with t dividing p - 1."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    p = t + 1
    while not is_prime(p):
        p += t
    return p


def sharpness_case(d: int, t: int) -> dict:
    """Whether the witness of sharp_construction(d, t) attains the bound at
    the smallest admissible p and q, by eigenspace rank and by the oracle."""
    pres = sharp_construction(d, t)
    p = smallest_prime_with_order_divisor(t)
    cert = fixed_point_rank(pres, p)
    q = smallest_field_with_t(p, t)
    tor = FiniteFieldTorus(q=q, sigma=pres.sigma)
    oracle_rank = p_elementary_rank(rational_points_structure(tor), p)
    bound = cert.upper_bound
    return {
        "d": d,
        "t": t,
        "p": p,
        "q": q,
        "rank_bound": bound,
        "eigenspace_rank": cert.eigenspace_rank,
        "oracle_rank": oracle_rank,
        "attained": cert.eigenspace_rank == bound and oracle_rank == bound,
    }


def sharpness_sweep() -> list:
    """sharpness_case for every t in SHARP_T and every phi(t) <= d <= 6."""
    return [sharpness_case(d, t) for t in SHARP_T for d in range(euler_phi(t), 7)]
