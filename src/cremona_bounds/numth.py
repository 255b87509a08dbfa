"""Elementary number theory helpers: primality, totient, orders, divisors."""

import math
from functools import lru_cache

from .errors import DomainError, VerificationError

PRIME_CAP = 2**31

# Deterministic Miller-Rabin witness set, valid for all n < 3,215,031,751
# which comfortably covers the supported range n < 2**31.
_MR_BASES = (2, 3, 5, 7)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
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
    """floor(d / phi(t)): the rank bound for p-torsion of a d-dimensional torus."""
    if d < 1 or t < 1:
        raise DomainError("d and t must be >= 1")
    return d // euler_phi(t)


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


def primitive_root(p: int) -> int:
    """Smallest generator of (Z/p)*."""
    check_prime(p)
    if p == 2:
        return 1
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g
    raise VerificationError(f"no primitive root found mod {p}")  # unreachable


def residues_of_order(p: int, t: int) -> list:
    """All residues of exact multiplicative order t in (Z/p)*, ascending."""
    check_order_divides(p, t)
    g = primitive_root(p)
    base = pow(g, (p - 1) // t, p)
    return sorted(pow(base, k, p) for k in range(1, t + 1) if math.gcd(k, t) == 1)


def prime_power_decomposition(q: int):
    """Return (ell, m) with q = ell^m, ell prime, or None if q is not a prime power."""
    if type(q) is not int or q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    return fac[0]
