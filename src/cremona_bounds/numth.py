"""Elementary number theory helpers: primality, totient, orders, divisors.

Factorization is trial division; the order-t residues mod p factor t only.
"""

import math
from functools import lru_cache

from .errors import DomainError, VerificationError

PRIME_CAP = 2**31

# Deterministic Miller-Rabin witnesses: 2, 3, 5, 7 for n < 3,215,031,751 (so
# check_prime's n < 2**31), the first 12 primes for n < 3.18 * 10^23 (the CRT
# primes below 2**62; Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_SMALL_LIMIT = 3_215_031_751
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Miller-Rabin, exact below 3.18 * 10^23; above, a strong probable prime."""
    if n < 2:
        return False
    bases = _MR_BASES[:4] if n < _MR_SMALL_LIMIT else _MR_BASES
    for b in bases:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Validate a prime modulus; the supported range is 2 <= p < 2**31."""
    if not isinstance(p, int) or p < 2 or p >= PRIME_CAP:
        raise DomainError(f"prime modulus out of supported range [2, 2^31): {p!r}")
    if not is_prime(p):
        raise DomainError(f"modulus is not prime: {p}")
    return p


def check_order_divides(p: int, t: int) -> int:
    """Validate p prime and t | p - 1: the degrees a primitive p-th root of
    unity can have over a field whose characteristic is not p."""
    check_prime(p)
    if type(t) is not int or t < 1 or (p - 1) % t != 0:
        raise DomainError(f"t = {t} does not divide p - 1 = {p - 1}")
    return t


# The most order-t residues mod p, phi(t) of them, that are ever listed:
# above it, residues_of_order (so torus-rank) and order_t_multiplicity raise
# DomainError before any work. The lemma sweep lists no residues and is not
# capped. At the cap (p = 2,535,101, t = p - 1), torus-rank with d = 1
# takes 4.6 s and 278 MiB peak RSS on a 2-vCPU VM (CPython 3.11.7, one child
# process with interpreter start-up) and prints 21.6 MB.
MAX_RESIDUES = 1_000_000


def check_residue_count(p: int, t: int) -> None:
    """check_order_divides, then phi(t) <= MAX_RESIDUES; as phi(t) <= t, t is
    factored here only above the cap."""
    if check_order_divides(p, t) > MAX_RESIDUES and euler_phi(t) > MAX_RESIDUES:
        raise DomainError(f"phi({t}) = {euler_phi(t)} residues exceed the cap of {MAX_RESIDUES}")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple:
    """Prime factorization by trial division, as ((prime, exponent), ...)."""
    if n < 1:
        raise DomainError(f"cannot factor nonpositive integer {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    """Count of units mod n."""
    if n < 1:
        raise DomainError(f"euler_phi requires n >= 1, got {n}")
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def theorem_bound(d: int, t: int) -> int:
    """floor(d / phi(t)): the rank bound for p-torsion of a d-dimensional torus.
    It is 0 for t > 2 d^2, as phi(t) >= sqrt(t / 2) > d; t is not factored then."""
    if d < 1 or t < 1:
        raise DomainError("d and t must be >= 1")
    return 0 if t > 2 * d * d else d // euler_phi(t)


def divisors(n: int) -> list:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def multiplicative_order(a: int, p: int) -> int:
    """Least m >= 1 with a^m = 1 mod p; p prime, a nonzero mod p."""
    check_prime(p)
    a %= p
    if a == 0:
        raise DomainError(f"multiplicative order undefined for 0 mod {p}")
    order = p - 1
    for q, _ in factorize(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def residues_of_order(p: int, t: int) -> list:
    """All residues of exact multiplicative order t in (Z/p)*, ascending.

    For a = 1, 2, ..., base = a^((p-1)/t) has order t iff base^(t/q) != 1 for
    every prime q | t, and the powers base^k with gcd(k, t) = 1 are then all
    of them: p - 1 is never factored. The scan ends by the smallest
    primitive root, and a share phi(t)/t of all a in [1, p) succeeds.
    DomainError before any work when phi(t) > MAX_RESIDUES.
    """
    check_residue_count(p, t)
    e = (p - 1) // t
    cofactors = [t // q for q, _ in factorize(t)]
    for a in range(1, p):
        base = pow(a, e, p)
        for c in cofactors:
            if pow(base, c, p) == 1:
                break
        else:
            return sorted(pow(base, k, p) for k in range(1, t + 1) if math.gcd(k, t) == 1)
    raise VerificationError(f"no residue of order {t} found mod {p}")  # unreachable
