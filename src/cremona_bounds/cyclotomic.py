"""Exact cyclotomic polynomials, their reductions mod p, and root multiplicities.

Integer polynomials are exact (arbitrary-precision coefficients); modular
polynomials live over Z/p for a prime p. Both are one class body, whose
modulus p is None over Z, with one multiply core: every product packs its
operands into integers and multiplies once (Kronecker substitution, after
Harvey, JSC 44 (2009)); like the whole package it uses only the standard
library. Cyclotomic indices up to 10^6 are supported.

Stride rule: a polynomial whose nonzero exponents are all multiples of k is
f(X^k), and it is stored so, as k and the compressed sequence f, with k the
gcd of those exponents. Such operands are common here: Phi_n(X) =
Phi_r(X^(n/r)) for the radical r of n, and the lemma's check of Phi_{m p^f}
multiplies it by Phi_m(X^(p^(f-1))) over Z. Products and powers work in X^g
for the gcd g of their operands' strides, and reductions mod p,
`compose_power`, equality, evaluation and indexing work on f; so do root
multiplicities mod p, by the Frobenius step f(X^(m p^j)) = f(X^m)^(p^j) over Z/p
(`_frobenius_form`, for `root_multiplicity`, the lemma and
`order_t_multiplicity`). Only reading `coeffs` expands f by k, at each
read.

One long division, `_divmod`, divides by a monic polynomial over Z
(`IntPoly.divmod_monic`) and mod p. Mod p it runs Euclid's gcd, each divisor
made monic first, and a root multiplicity is a valuation: f divided by
X - eps until the remainder is nonzero, once f(eps) = 0. The lemma's cells
list no residues: the product of the roots of f of exact order t is the gcd
of f with X^t - 1, less the roots whose order divides t / l for a prime
l | t, and their common multiplicity is a valuation by that product.

Kronecker digits of up to 8 bytes are packed by `struct` in C in the next
word width (1, 2, 4 or 8 bytes), then narrowed to the digit width by strided
slice assignments; the big-integer product still multiplies narrow digits.
Integer digits are signed and packed with a bias; residues mod p are unsigned
digits, at most nonzero * (p - 1)^2 in a product, reduced mod p once unpacked.

A squarefree Phi_n multiplies out its numerator on one packed integer and
divides per residue class or per block of coefficients, whichever is fewer,
up to the middle degree; the upper half is the mirror image (Phi_n is
palindromic for n > 1). `verify_cyclotomic` proves a result by the
untruncated identity on packed integers, at no cost to the library callers
that build many Phi_n.
"""

import math
import struct
from functools import lru_cache
from itertools import accumulate, compress, count
from operator import add, index, mul

from .errors import DomainError, Record, Report, VerificationError
from .numth import check_prime, check_residue_count, divisors, euler_phi, factorize

MAX_CYCLOTOMIC_INDEX = 10**6

# struct code of the word that holds a digit of each width up to 8 bytes:
# struct packs and unpacks words in C, 4-7 times faster than int.to_bytes
# and int.from_bytes, and `_narrow` cuts the words down to the digits
_WORD_CODES = {1: "B", 2: "H", 3: "I", 4: "I", 5: "Q", 6: "Q", 7: "Q", 8: "Q"}


def _strip(coeffs):
    """coeffs as a tuple without trailing zeros: the tuple itself unless its top
    coefficient is zero, so a product or reduction is copied once."""
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


def _narrow(raw, src, dst, count):
    """count little-endian words of src bytes each, as words of dst bytes:
    the low min(src, dst) bytes of each word are kept, the rest are zero."""
    if src == dst:
        return raw
    out = bytearray(count * dst)
    for i in range(min(src, dst)):
        out[i::dst] = raw[i::src]
    return out


def _biases(nbytes, count):
    """count packed digits 2^(8*nbytes - 1): adding them makes signed digits nonnegative."""
    return int.from_bytes((1 << 8 * nbytes - 1).to_bytes(nbytes, "little") * count, "little")


def _pack(coeffs, nbytes, signed=True):
    """sum c_i * 2^(8*nbytes*i) for signed digits |c_i| < 2^(8*nbytes - 1), each
    biased in the packing, or for unsigned digits 0 <= c_i < 2^(8*nbytes)."""
    bias = 1 << 8 * nbytes - 1 if signed else 0
    if bias:
        coeffs = [c + bias for c in coeffs]
    code = _WORD_CODES.get(nbytes)
    if code:
        raw = struct.pack(f"<{len(coeffs)}{code}", *coeffs)
        raw = _narrow(raw, struct.calcsize(code), nbytes, len(coeffs))
    else:
        raw = b"".join(c.to_bytes(nbytes, "little") for c in coeffs)
    value = int.from_bytes(raw, "little")
    return value - _biases(nbytes, len(coeffs)) if bias else value


def _unpack(value, nbytes, count, signed=True):
    """Inverse of `_pack`: the count nbytes-wide digits of value."""
    bias = 1 << 8 * nbytes - 1 if signed else 0
    if bias:
        value += _biases(nbytes, count)
    raw = value.to_bytes(nbytes * count, "little")
    code = _WORD_CODES.get(nbytes)
    if code:
        raw = _narrow(raw, nbytes, struct.calcsize(code), count)
        digits = struct.unpack(f"<{count}{code}", raw)
    else:
        digits = [int.from_bytes(raw[i:i + nbytes], "little")
                  for i in range(0, len(raw), nbytes)]
    return [d - bias for d in digits] if bias else digits


def _convolve(a, b, p=None):
    """Product of two nonzero coefficient sequences by Kronecker substitution:
    of integers, as a list, or of residues in [0, p), reduced mod p into a tuple."""
    count = len(a) + len(b) - 1
    # every output coefficient is a sum of at most `nonzero` products; those of
    # residues are nonnegative and fill the digit's top bit too
    nonzero = min(len(a) - a.count(0), len(b) - b.count(0))
    signed = p is None
    if signed:
        nbytes = (nonzero * max(map(abs, a)) * max(map(abs, b))).bit_length() // 8 + 1
    else:
        nbytes = ((nonzero * (p - 1) ** 2).bit_length() + 7) // 8
    packed = _pack(a, nbytes, signed)
    other = packed if a is b else _pack(b, nbytes, signed)
    digits = _unpack(packed * other, nbytes, count, signed)
    return digits if signed else tuple([d % p for d in digits])


def _truncated_numerator(degrees, size):
    """The size coefficients of prod_{d in degrees} (1 - X^d) mod X^size, on
    the series' value at X = 2^(8*nbytes): a shift and a subtraction per
    factor, and a truncation that adds the digits' biases, masks and takes
    them off. With k factors the l1 norm is at most 2^k and c_0 = 1, so
    nbytes = k // 8 + 1 signed bytes hold every digit."""
    nbytes = len(degrees) // 8 + 1
    shift = 8 * nbytes
    mask = (1 << shift * size) - 1
    biases = _biases(nbytes, size)
    value = 1
    for d in degrees:
        value -= value << shift * d
        value = ((value + biases) & mask) - biases
    return _unpack(value, nbytes, size)


def _stride(coeffs):
    """The gcd k of the exponents of the nonzero coefficients, 0 for a constant
    or zero: coeffs is then coeffs[::k] in X^k. One gcd call over all of them,
    in C, unless X^1 has a nonzero coefficient."""
    if len(coeffs) > 1 and coeffs[1]:
        return 1
    return math.gcd(*compress(range(len(coeffs)), coeffs))


def _spread(short, j):
    """The coefficients of f(X^j) for those of f: short itself for j <= 1 or a
    constant, else a list with j - 1 zeros between consecutive coefficients."""
    if j <= 1 or len(short) < 2:
        return short
    out = [0] * (j * (len(short) - 1) + 1)
    out[::j] = short
    return out


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


def _divmod(a, b, p=None):
    """(q, r) with a = q*b + r and len(r) = deg b, for ascending coefficient
    sequences a and b with b monic: long division, exact over Z, or with
    residues in [0, p) mod p. The one division of the polynomial layer."""
    d = len(b) - 1
    # from the top down, a quotient coefficient is that of a less the dot
    # product of b's lower coefficients with the d quotient coefficients
    # above it (map stops after d terms, before b's top one); quot holds
    # them descending, after d zeros
    quot = [0] * d
    for i, c in enumerate(reversed(a[d:])):
        c -= sum(map(mul, quot[i:], b))
        quot.append(c if p is None else c % p)
    quot = quot[d:][::-1]
    rem = [c - sum(map(mul, quot, b[j::-1])) for j, c in enumerate(a[:d])]
    rem += [0] * (d - len(rem))
    return quot, rem if p is None else [c % p for c in rem]


class _Poly(Record):
    """Immutable polynomial f(X^k) over Z, where its modulus p is None, or over
    Z/p for a prime p, with coefficients reduced to [0, p). Its fields are p,
    the tuple `_short` of f, ascending by power without trailing zeros (zero
    is () of degree -1), and its stride `_step` k, the gcd of the exponents of
    its nonzero terms (0 for a constant or zero). The full coefficient tuple
    `coeffs` is built at each read."""

    __slots__ = ()

    @property
    def coeffs(self) -> tuple:
        """All coefficients, ascending by power: f spread by k."""
        return tuple(_spread(self._short, self._step))

    @property
    def degree(self) -> int:
        return (len(self._short) - 1) * (self._step or 1)

    def __bool__(self):
        return bool(self._short)

    def __getitem__(self, i):
        q, r = divmod(i, self._step or 1)
        return self._short[q] if i >= 0 and not r and q < len(self._short) else 0

    @property
    def stride(self) -> int:
        """The gcd of the exponents of the nonzero terms, 0 for a constant or zero."""
        return self._step

    def _init(self, p, short, k):
        """Make self f(X^k) mod p for the stripped tuple short of f; short's
        own stride j, the gcd its terms may have gained, moves into k."""
        j = _stride(short)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_short", short[::j] if j > 1 else short)
        object.__setattr__(self, "_step", k * j)
        return self

    def _like(self, short, k):
        """`_init` on a new polynomial of self's type and modulus, unchecked:
        products and reductions build their results from coefficients that
        the public constructors have already checked."""
        return object.__new__(type(self))._init(self.p, short, k)

    def compose_power(self, k: int):
        """Substitute X -> X^k."""
        k = index(k)
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        if k == 1 or not self._step:
            return self
        return self._like(self._short, k * self._step)

    def __mul__(self, other):
        """The product in X^g, g the gcd of the operands' strides (1 for two
        constants), by one `_convolve` of their compressed coefficients."""
        if type(other) is not type(self):
            return NotImplemented
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        if not self or not other:
            return self._like((), 0)
        # over Z or mod a prime, the leading coefficient is a product of
        # nonzero ones: nothing to strip
        k = math.gcd(self._step, other._step) or 1
        x = _spread(self._short, self._step // k)
        y = x if self is other else _spread(other._short, other._step // k)
        return self._like(tuple(_convolve(x, y, self.p)), k)

    def __pow__(self, n: int):
        return _power(self, n, self._like((1,), 1))

    def __str__(self):
        parts = []
        for j in range(len(self._short) - 1, -1, -1):
            c, i = self._short[j], j * self._step
            if c == 0:
                continue
            mono = "1" if i == 0 else ("X" if i == 1 else f"X^{i}")
            mag = abs(c)
            body = mono if (mag == 1 and i > 0) else (str(mag) if i == 0 else f"{mag}*{mono}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        text = " ".join(parts) or "0"
        return text if self.p is None else f"({text}) mod {self.p}"

    def __repr__(self):
        modulus = "" if self.p is None else f"{self.p}, "
        return f"{type(self).__name__}({modulus}{list(self.coeffs)})"

    def __reduce__(self):
        return type(self), (self.coeffs,) if self.p is None else (self.p, self.coeffs)


class IntPoly(_Poly):
    """Polynomial with exact integer coefficients."""

    __slots__ = ("p", "_short", "_step")

    def __init__(self, coeffs=()):
        self._init(None, _strip(map(index, coeffs)), 1)

    def is_monic(self) -> bool:
        return self._short[-1:] == (1,)

    def __call__(self, x: int) -> int:
        y = x**self._step  # f(X^k) at x is f at x^k
        acc = 0
        for c in reversed(self._short):
            acc = acc * y + c
        return acc

    def divmod_monic(self, divisor: "IntPoly"):
        """Long division by a monic divisor; exact integer arithmetic."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        quot, rem = _divmod(self.coeffs, divisor.coeffs)
        return IntPoly(quot), IntPoly(rem)


class ModPoly(_Poly):
    """Polynomial over Z/p, coefficients reduced to [0, p)."""

    __slots__ = ("p", "_short", "_step")

    def __init__(self, p: int, coeffs=()):
        check_prime(p)
        self._init(p, _strip(map(p.__rmod__, map(index, coeffs))), 1)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exact over the integers.

    A squarefree index n > 1 uses the sparse product
    Phi_n = prod_{d|n} (1 - X^d)^mu(n/d) of Arnold & Monagan, "Calculating
    cyclotomic polynomials", Math. Comp. 80 (2011), as power series truncated
    past degree ceil(phi(n) / 2): the factors with mu = +1 are shifts and
    subtractions of one packed integer (`_truncated_numerator`), and each
    1 / (1 - X^d) is running sums, per residue class mod d or per block of d
    coefficients, whichever takes fewer Python steps. Phi_n is palindromic
    for n > 1, so the upper half is the lower half's mirror image; phi(n) is
    even for n > 2, and Phi_2 = 1 + X is built whole. A non-squarefree index
    n reduces to its radical r via Phi_n(X) = Phi_r(X^(n/r)). The result is
    not checked here; `verify_cyclotomic` proves it by the untruncated
    identity.
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
    phi = euler_phi(n)
    size = (phi + 1) // 2 + 1
    # a factor 1 - X^d with d >= size leaves the truncated series as it is
    coeffs = _truncated_numerator([d for d, odd in terms if not odd and d < size], size)
    for d in [d for d, odd in terms if odd and d < size]:
        if d * d < size:  # d classes, against size / d blocks
            for i in range(d):
                coeffs[i::d] = accumulate(coeffs[i::d])
        else:
            for j in range(d, size, d):
                coeffs[j:j + d] = map(add, coeffs[j:j + d], coeffs[j - d:j])
    # c_i = c_(phi - i): append c_(phi/2 - 1), ..., c_0, none for phi = 1
    coeffs += reversed(coeffs[:phi // 2])
    return IntPoly(coeffs)


def verify_cyclotomic(n: int, poly: IntPoly) -> None:
    """Raise VerificationError unless poly is Phi_n.

    With r the radical of n and k = n / r, Phi_n = Q(X^k) for Q = Phi_r, so
    poly's stride must be a multiple of k; and Q is the one polynomial over Z
    with Q * prod_{D-} (X^d - 1) = prod_{D+} (X^d - 1), where D+ and D- are
    the d | r with mu(r/d) = +1 and -1 (Z[X] has no zero divisors); for
    n = 1 that reads Q = X - 1. This is the identity `cyclotomic_poly`
    truncates, checked whole and by multiplication, with its divisors read
    from `divisors` and `factorize`, on the values at b = 2^w: each factor
    X^d - 1 at most doubles the height, so with
    w >= bits(H(Q)) + max(|D-|, |D+|) + 2, rounded up to whole bytes, both
    sides have height below b/2, and their values at b determine them. The
    degree, the palindromy and the value at 1 of Phi_n all follow.
    """
    r = math.prod(q for q, _ in factorize(n))
    k = n // r
    short = _spread(poly._short, poly.stride // k)  # Q, when poly = Q(X^k)
    # d ascending: each factor costs the length of the value so far
    minus = [d for d in divisors(r) if len(factorize(r // d)) % 2]
    plus = [d for d in divisors(r) if len(factorize(r // d)) % 2 == 0]
    height = max(map(abs, short), default=0)
    nbytes = (height.bit_length() + max(len(minus), len(plus)) + 2 + 7) // 8
    left, right = _pack(short, nbytes), 1
    for d in minus:
        left = (left << 8 * nbytes * d) - left
    for d in plus:
        right = (right << 8 * nbytes * d) - right
    if poly.stride % k or left != right:
        raise VerificationError(
            f"Phi_{n} is not Q(X^{k}) with Q = prod_(d | {r}) (X^d - 1)^mu({r}/d)")


def reduce_mod(poly: IntPoly, p: int) -> ModPoly:
    """Coefficientwise reduction of an integer polynomial mod p."""
    return ModPoly(p)._like(_strip([c % p for c in poly._short]), poly._step)


def _frobenius_form(poly: _Poly, p: int) -> tuple:
    """(f, m, q) for poly = f(X^k) over Z or Z/p, k = m * q with q = p^j the
    p-power part of k, gcd(k, p^bits(k)), so that poly = f(X^m)^q over Z/p
    (Frobenius); f is the stored sequence, unreduced. DomainError if f is 0
    mod p. Read by `root_multiplicity` and by the order-t cells of the
    lemma and of `order_t_multiplicity`, which the torus chain and the Weyl
    audit run."""
    if not any(c % p for c in poly._short):
        raise DomainError("root multiplicity undefined for the zero polynomial")
    k = poly.stride or 1
    q = math.gcd(k, p ** k.bit_length())
    return poly._short, k // q, q


def _valuation(f, h, p: int) -> tuple:
    """(k, r) for f != 0 mod p and a monic h: k the largest with h^k | f over
    Z/p, and r = (f / h^k) mod h, nonzero, by `_divmod`."""
    for k in count():
        f, rem = _divmod(f, h, p)
        if any(rem):
            return k, rem


def root_multiplicity(pbar: ModPoly, eps: int) -> int:
    """Largest m with (X - eps)^m dividing pbar over Z/p, on its stored form
    f(X^k) alone (`_frobenius_form`): eps != 0 is a simple root of
    X^m - eps^m, so the multiplicity is q = p^j times that of eps^m in f;
    that of 0 is k times that of 0 in f. f is evaluated there once by
    Horner's rule, and only a root pays for the valuation by X - eps^m.

    The single-residue API: no subcommand calls it; the order-t cells are
    checked against it, one residue at a time."""
    if pbar.p is None:
        raise DomainError("root multiplicity needs a polynomial mod p")
    p, eps = pbar.p, index(eps)
    if not 0 <= eps < p:
        raise DomainError(f"residue {eps} not reduced mod {p}")
    f, m, q = _frobenius_form(pbar, p)
    scale, eps = (q, pow(eps, m, p)) if eps else (m * q, 0)
    acc = 0
    for c in reversed(f):
        acc = (acc * eps + c) % p
    return 0 if acc else scale * _valuation(f, (-eps, 1), p)[0]


def _gcd(a, b, p: int) -> list:
    """Monic gcd mod p of a, monic or 0, and b, in [0, p), not both 0:
    Euclid, each divisor made monic before `_divmod`, until a remainder is
    constant. gcd(0, b) is b made monic."""
    b = _strip(b)
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _strip(_divmod(a, b, p)[1])
    return [1] if b else a


def _unity_gcd(a, s: int, p: int) -> list:
    """Monic gcd mod p of X^s - 1 and the integer sequence a, nonzero mod p.
    For deg a >= s, a folded mod X^s - 1 by slice sums starts Euclid.
    Otherwise Euclid starts from X^s - 1 mod a: dividing by a a polynomial
    of degree up to b = len(a) * bits(s) costs about the reductions of the
    log s squarings of a power mod a, so X^s = (X^e)^(s / e) mod a, by one
    `_divmod` for X^e, e the largest divisor of s up to b, and `_power` on
    products reduced by `_divmod`. A monomial a shares no root with
    X^s - 1; no power of X is 0 mod any other a."""
    if len(a) > s:
        return _gcd([p - 1] + [0] * (s - 1) + [1], [sum(a[i::s]) % p for i in range(s)], p)
    a = _gcd((), [c % p for c in a], p)
    if a.count(0) == len(a) - 1:
        return [1]
    e = max(d for d in divisors(s) if d <= len(a) * s.bit_length())
    x = _power(_divmod([0] * e + [1], a, p)[1], s // e, None,
               lambda x, y: _divmod(_convolve(x, y, p), a, p)[1])
    return _gcd(a, [(x[0] - 1) % p, *x[1:]], p)


def _order_cell(f, g, p: int, t: int, m: int, q: int) -> tuple:
    """(roots, k * q) for poly = f(X^(m q)), q = p^j, mod p at the residues of
    order t | p - 1, with (f, m, q) from `_frobenius_form` and g either f or
    gcd(f, X^s - 1) mod p for a multiple s of u = t / gcd(t, m). eps -> eps^m
    maps the order-t residues onto the order-u ones, phi(t) / phi(u) to one,
    and poly's multiplicity at eps is q times f's at eps^m (stride rule).

    On f, at order u: X^u - 1 is squarefree and splits over Z/p, so
    h = gcd(g, X^u - 1), with gcd(h, X^(u/l) - 1) divided out for each prime
    l | u, is the product of X - eps over the roots eps of f of exact order u.
    k is the largest with h^k | f, the least multiplicity among those roots,
    and deg h - deg gcd(f / h^k, h) of them have multiplicity exactly k: the
    roots. So every order-t residue has multiplicity k iff roots = phi(t),
    none is a root iff roots = k = 0, and any other roots means the order-t
    residues disagree.
    """
    u = t // math.gcd(t, m)
    h = _unity_gcd(g, u, p)
    for ell, _ in factorize(u):
        if len(h) > 1:
            h = _divmod(h, _unity_gcd(h, u // ell, p), p)[0]
    if len(h) == 1:
        return 0, 0
    k, rem = _valuation(f, h, p)
    return (len(h) - len(_gcd(h, rem, p))) * (euler_phi(t) // euler_phi(u)), k * q


def order_t_multiplicity(n: int, p: int, t: int) -> int:
    """Common multiplicity of every order-t residue as a root of Phi_n mod p:
    the lemma's fact (a) cell (`_order_cell`) on the stored form f of Phi_n,
    with gcd(f, X^t - 1) in place of the lemma's gcd with X^(p-1) - 1, and no
    p-stripping (a p-power in the stride of Phi_n is the cell's Frobenius
    step). Fails loudly if the order-t residues disagree. p and t are
    checked first, with phi(t) at most MAX_RESIDUES. No residue is listed
    here: the cap bounds the power path, X^t mod Phi_n by square-and-multiply
    on schoolbook reductions when t exceeds deg Phi_n, which takes 15.5 s at
    n = t = 42966, p = 2^31 - 1 (phi(t) = 10,800).
    """
    check_residue_count(p, t)  # validates p and t, and caps the power path
    f, m, q = _frobenius_form(cyclotomic_poly(n), p)
    roots, mult = _order_cell(f, f, p, t, m, q)
    if roots not in (0, euler_phi(t)):
        raise VerificationError(f"order-{t} residues disagree on multiplicity for n={n}, "
                                f"p={p}: {roots} of {euler_phi(t)} have multiplicity {mult}")
    return mult


def verify_lemma_range(n_max: int, primes) -> Report:
    """Sweep all n <= n_max, p in primes, t | p - 1 and check three facts:

    (a) every order-t residue has the same multiplicity as a root of Phi_n mod p;
    (b) that multiplicity is positive iff n = t * p^f, i.e. n's p-free part is t;
    (c) Phi_{n p^f} = Phi_n^{phi(p^f)} mod p for f <= 2 whenever p does not
        divide n and n p^f is a supported cyclotomic index, by one product
        over Z: Phi_{nq} * Phi_n(X^(q/p)) = Phi_n(X^q) for q = p^f. Mod p,
        Phi_n(X^q) = Phi_n^q (Frobenius) and F_p[X] has no zero divisors,
        so the identity gives (c); it also fails a Phi_{nq} off by a
        multiple of p, which (c) alone lets pass.

    Facts (a) and (b) run n by n on the stored form f of Phi_n: g =
    gcd(f, X^(p-1) - 1) mod p, the product of its distinct roots in F_p^*,
    is taken once, with the order of X mod g, the lcm of their orders; every
    t whose cell can hold a root then runs `_order_cell` on g. No residue is
    listed and p is not capped. A uniformity failure records `roots`, the
    number of order-t residues of the least multiplicity found among them,
    and that `multiplicity`. Failures land in the counterexample list by p,
    then t and n, fact (c)'s last for each p; none are expected.
    """
    if not 1 <= n_max <= MAX_CYCLOTOMIC_INDEX:
        raise DomainError(f"n_max out of range [1, 10^6]: {n_max}")
    primes = tuple(sorted({check_prime(p) for p in primes}))
    report = Report(n_max=n_max, primes=list(primes), checks_run=0,
                    counterexamples=[])
    for p in primes:
        orders, cells = divisors(p - 1), []
        for n in range(1, n_max + 1):
            f, m, q = _frobenius_form(cyclotomic_poly(n), p)
            g = _unity_gcd(f, p - 1, p)
            # the order of X mod g, the least d | p - 1 with g | X^d - 1, is
            # the lcm of the orders of f's roots: none has order u unless u | d
            d = next(d for d in orders if len(_unity_gcd(g, d, p)) == len(g))
            for t in orders:
                roots, mult = (_order_cell(f, g, p, t, m, q)
                               if d % (t // math.gcd(t, m)) == 0 else (0, 0))
                uniform = roots in (0, euler_phi(t))
                report.checks_run += 1 + uniform
                if not uniform:
                    cells.append({"n": n, "p": p, "t": t, "fact": "uniformity",
                                  "roots": roots, "multiplicity": mult})
                # n = t * p^f iff n less its p-power part gcd(n, p^bits(n)) is
                # t; a positivity failure expects the opposite of mult > 0
                elif (mult > 0) != (t == n // math.gcd(n, p ** n.bit_length())):
                    cells.append({"n": n, "p": p, "t": t, "fact": "positivity",
                                  "multiplicity": mult, "n_is_t_times_p_power": mult == 0})
        report.counterexamples += sorted(cells, key=lambda c: (c["t"], c["n"]))
        for n in range(1, min(n_max, MAX_CYCLOTOMIC_INDEX // p) + 1):
            if n % p == 0:
                continue
            base = cyclotomic_poly(n)
            for f in (1, 2):
                q = p**f
                if n * q > MAX_CYCLOTOMIC_INDEX:
                    break
                report.checks_run += 1
                if cyclotomic_poly(n * q) * base.compose_power(q // p) != base.compose_power(q):
                    report.counterexamples.append(
                        {"n": n, "p": p, "f": f, "fact": "prime_power_identity"}
                    )
    return report
