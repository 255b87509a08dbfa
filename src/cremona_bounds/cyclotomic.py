"""Exact cyclotomic polynomials, their reductions mod p, and root multiplicities.

Integer polynomials are exact (arbitrary-precision coefficients); modular
polynomials live over Z/p for a prime p. Both share one multiply core
(schoolbook, or Kronecker substitution after Harvey, JSC 44 (2009)); like the
whole package it uses only the standard library. Cyclotomic indices up to
10^6 are supported.
"""

import math
import struct
from functools import lru_cache
from itertools import accumulate
from operator import mul, sub

from .errors import DomainError, Report, VerificationError
from .numth import check_prime, divisors, euler_phi, factorize, residues_of_order

MAX_CYCLOTOMIC_INDEX = 10**6

# Products use the schoolbook loop while it needs fewer than this many
# coefficient products per input coefficient. Measured on CPython 3.11: on
# dense random operands 6 is within 2% of the faster path; counting nonzeros
# keeps sparse powers such as those of X^4096 + 1 off Kronecker substitution.
_KRONECKER_BREAK_EVEN = 6
# digit widths that struct packs and unpacks in C, 4-7 times faster than
# int.to_bytes and int.from_bytes
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _pack(coeffs, nbytes):
    """sum c_i * 2^(8*nbytes*i) for |c_i| < 2^(8*nbytes - 1)."""
    bias = 1 << (8 * nbytes - 1)
    code = _WORD_CODES.get(nbytes)
    if code:
        raw = struct.pack(f"<{len(coeffs)}{code}", *[c + bias for c in coeffs])
    else:
        raw = b"".join((c + bias).to_bytes(nbytes, "little") for c in coeffs)
    biases = bias.to_bytes(nbytes, "little") * len(coeffs)
    return int.from_bytes(raw, "little") - int.from_bytes(biases, "little")


def _unpack(value, nbytes, count):
    """Inverse of `_pack`: the count signed nbytes-wide digits of value."""
    bias = 1 << (8 * nbytes - 1)
    value += int.from_bytes(bias.to_bytes(nbytes, "little") * count, "little")
    raw = value.to_bytes(nbytes * count, "little")
    code = _WORD_CODES.get(nbytes)
    if code:
        return [d - bias for d in struct.unpack(f"<{count}{code}", raw)]
    return [int.from_bytes(raw[i:i + nbytes], "little") - bias
            for i in range(0, len(raw), nbytes)]


def _convolve(a, b):
    """Product of two nonzero integer coefficient sequences."""
    count = len(a) + len(b) - 1
    nonzero = len(a) - a.count(0)
    if nonzero > len(b) - b.count(0):
        a, b, nonzero = b, a, len(b) - b.count(0)
    # the schoolbook loop makes one pass over b per nonzero coefficient of a
    if nonzero * len(b) < _KRONECKER_BREAK_EVEN * (len(a) + len(b)):
        out = [0] * count
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return out
    # every output coefficient is a sum of at most `nonzero` products
    bound = nonzero * max(map(abs, a)) * max(map(abs, b))
    nbytes = bound.bit_length() // 8 + 1
    packed = _pack(a, nbytes)
    other = packed if a is b else _pack(b, nbytes)
    return _unpack(packed * other, nbytes, count)


def _power(x, n, one, product=mul):
    """x**n by square-and-multiply: no product by one, no squaring past n's top bit."""
    if n < 0:
        raise ValueError("negative power")
    result = None
    while n:
        if n & 1:
            result = x if result is None else product(result, x)
        n >>= 1
        if n:
            x = product(x, x)
    return one if result is None else result


class _Poly:
    """Immutable coefficient tuple, ascending by power; zero is () of degree -1."""

    __slots__ = ("coeffs",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return self.coeffs

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0


class IntPoly(_Poly):
    """Polynomial with exact integer coefficients."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip(coeffs))

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self[i] + other[i] for i in range(n))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not self or not other:
            return IntPoly()
        return IntPoly(_convolve(self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        return _power(self, n, IntPoly((1,)))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_monic(self, divisor: "IntPoly"):
        """Long division by a monic divisor; exact integer arithmetic."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = divisor.degree
        if len(rem) - 1 < dd:
            return IntPoly(), self
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                quot[i - dd] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[i - dd + j] -= c * b
        return IntPoly(quot), IntPoly(rem)

    def compose_power(self, k: int) -> "IntPoly":
        """Substitute X -> X^k."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        out = [0] * (k * self.degree + 1) if self else []
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPoly(out)

    @classmethod
    def x_pow_minus_one(cls, n: int) -> "IntPoly":
        coeffs = [0] * (n + 1)
        coeffs[0] = -1
        coeffs[n] = 1
        return cls(coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("X" if i == 1 else f"X^{i}")
            mag = abs(c)
            body = mono if (mag == 1 and i > 0) else (str(mag) if i == 0 else f"{mag}*{mono}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


class ModPoly(_Poly):
    """Polynomial over Z/p, coefficients reduced to [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int, coeffs=()):
        check_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", _strip(c % p for c in coeffs))

    def _key(self):
        return (self.p, self.coeffs)

    def __mul__(self, other):
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        if not self or not other:
            return ModPoly(self.p, ())
        return ModPoly(self.p, _convolve(self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        return _power(self, n, ModPoly(self.p, (1,)))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __str__(self):
        return f"({IntPoly(self.coeffs)}) mod {self.p}"

    def __repr__(self):
        return f"ModPoly({self.p}, {list(self.coeffs)})"


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exact over the integers.

    A squarefree index n > 1 uses the sparse product
    Phi_n = prod_{d|n} (1 - X^d)^mu(n/d) of Arnold & Monagan, "Calculating
    cyclotomic polynomials", Math. Comp. 80 (2011), as power series truncated
    past degree phi(n); a non-squarefree index n reduces to its radical r via
    Phi_n(X) = Phi_r(X^(n/r)).
    """
    if not isinstance(n, int) or n < 1 or n > MAX_CYCLOTOMIC_INDEX:
        raise DomainError(f"cyclotomic index out of range [1, 10^6]: {n!r}")
    if n == 1:
        return IntPoly((-1, 1))
    primes = [q for q, _ in factorize(n)]
    r = math.prod(primes)
    if r != n:
        return cyclotomic_poly(r).compose_power(n // r)
    # (d, parity of the number of primes of n/d) for every d | n
    terms = [(1, len(primes) % 2)]
    for q in primes:
        terms += [(d * q, odd ^ 1) for d, odd in terms]
    size = euler_phi(n) + 1
    coeffs = [1] + [0] * (size - 1)
    # multiplications (mu = +1) first; a factor 1 - X^d with d >= size leaves
    # the truncated series as it is
    for d, odd in sorted(terms, key=lambda term: term[1]):
        if d >= size:
            continue
        if not odd:
            coeffs[d:] = map(sub, coeffs[d:], coeffs)
        else:
            # 1 / (1 - X^d): running sums along each residue class mod d
            for i in range(d):
                coeffs[i::d] = accumulate(coeffs[i::d])
    return IntPoly(coeffs)


def reduce_mod(poly: IntPoly, p: int) -> ModPoly:
    """Coefficientwise reduction of an integer polynomial mod p."""
    return ModPoly(p, poly.coeffs)


def root_multiplicity(pbar: ModPoly, eps: int) -> int:
    """Largest m with (X - eps)^m dividing pbar over Z/p."""
    if not pbar:
        raise DomainError("root multiplicity undefined for the zero polynomial")
    p = pbar.p
    if not 0 <= eps < p:
        raise DomainError(f"residue {eps} not reduced mod {p}")
    mult = 0
    coeffs = pbar.coeffs[::-1]  # descending, for Horner's rule
    while True:
        # synthetic division by X - eps: the partial sums are the quotient,
        # the last one is the remainder
        quot = []
        acc = 0
        for c in coeffs:
            acc = (acc * eps + c) % p
            quot.append(acc)
        if acc:
            return mult
        mult += 1
        coeffs = quot[:-1]


def order_t_multiplicity(n: int, p: int, t: int) -> int:
    """Common multiplicity of every order-t residue as a root of Phi_n mod p.

    The p-part of n is stripped first via Phi_{m p^f} = Phi_m^{phi(p^f)} mod p;
    the residue sweep then runs on the p-free part. Fails loudly if the
    order-t residues disagree.
    """
    residues = residues_of_order(p, t)  # validates (p, t) before any work on n
    f = 0
    n0 = n  # validated by cyclotomic_poly below
    while n0 and n0 % p == 0:
        n0 //= p
        f += 1
    pbar = reduce_mod(cyclotomic_poly(n0), p)
    mults = {eps: root_multiplicity(pbar, eps) for eps in residues}
    if len(set(mults.values())) != 1:
        raise VerificationError(
            f"order-{t} residues disagree on multiplicity for n={n}, p={p}: {mults}"
        )
    return euler_phi(p**f) * next(iter(mults.values()))


def _is_t_times_p_power(n: int, t: int, p: int) -> bool:
    if n % t != 0:
        return False
    rest = n // t
    while rest % p == 0:
        rest //= p
    return rest == 1


def verify_lemma_range(n_max: int, primes) -> Report:
    """Sweep all n <= n_max, p in primes, t | p - 1 and check three facts:

    (a) every order-t residue has the same multiplicity as a root of Phi_n mod p;
    (b) that multiplicity is positive iff n = t * p^f for some f >= 0;
    (c) Phi_{n p^f} = Phi_n^{phi(p^f)} mod p for f <= 2 whenever p does not
        divide n and n p^f is a supported cyclotomic index.

    Failures land in the counterexample list; none are expected.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    primes = tuple(sorted({check_prime(p) for p in primes}))
    report = Report(n_max=n_max, primes=list(primes), checks_run=0,
                    counterexamples=[])
    for p in primes:
        for n in range(1, n_max + 1):
            pbar = reduce_mod(cyclotomic_poly(n), p)
            for t in divisors(p - 1):
                mults = {
                    eps: root_multiplicity(pbar, eps)
                    for eps in residues_of_order(p, t)
                }
                report.checks_run += 1
                if len(set(mults.values())) != 1:
                    report.counterexamples.append(
                        {"n": n, "p": p, "t": t, "fact": "uniformity",
                         "multiplicities": mults}
                    )
                    continue
                mult = next(iter(mults.values()))
                expected_positive = _is_t_times_p_power(n, t, p)
                report.checks_run += 1
                if (mult > 0) != expected_positive:
                    report.counterexamples.append(
                        {"n": n, "p": p, "t": t, "fact": "positivity",
                         "multiplicity": mult,
                         "n_is_t_times_p_power": expected_positive}
                    )
            if n % p != 0:
                base = pbar
                for f in (1, 2):
                    q = p**f
                    if n * q > MAX_CYCLOTOMIC_INDEX:
                        break
                    lifted = reduce_mod(cyclotomic_poly(n * q), p)
                    report.checks_run += 1
                    if lifted != base ** euler_phi(q):
                        report.counterexamples.append(
                            {"n": n, "p": p, "f": f, "fact": "prime_power_identity"}
                        )
    return report

