"""Seeded input generation for the benchmark, stdlib only.

Nothing here imports cremona_bounds: every input, and every expected value
used to check an output, is computed by this module's own code, so a change
to the library's samplers or algorithms cannot change the workload or the
reference answers.
"""

# ---------------------------------------------------------------- numbers


def factor(n):
    """Prime factorization of n >= 1 as a sorted list of (prime, exponent)."""
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
    return out


def phi(n):
    r = 1
    for p, e in factor(n):
        r *= (p - 1) * p ** (e - 1)
    return r


def divisors(n):
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 2.1e12."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11)
    for b in bases:
        if n % b == 0:
            return n == b
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


def order_mod(a, p):
    """Multiplicative order of a mod the prime p (a not divisible by p)."""
    order = p - 1
    for q, _ in factor(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def prime_power_base(n):
    """ell when n = ell^k with k >= 1, else None."""
    fac = factor(n) if n > 1 else []
    return fac[0][0] if len(fac) == 1 else None


def random_prime(rng, bits, t=1, avoid=()):
    """A random prime p = 1 mod t of bit length `bits`, p not in `avoid`:
    the first prime at or after a random start among the candidates, wrapping
    around; ValueError when there is none."""
    lo, hi = (2 if bits <= 2 else 1 << (bits - 1)), (1 << bits) - 1
    first = lo + (1 - lo) % t
    count = max((hi - first) // t + 1, 0)
    start = rng.randrange(count) if count else 0
    for j in range(count):
        cand = first + (start + j) % count * t
        if cand not in avoid and is_prime(cand):
            return cand
    raise ValueError(f"no prime of {bits} bits is 1 mod {t}")


def random_prime_power(rng, bits, avoid_prime):
    """A prime power ell^k of about `bits` bits with ell != avoid_prime."""
    k = rng.choice([1, 1, 1, 2, 3]) if bits >= 6 else 1
    ell_bits = max(2, bits // k)
    while True:
        ell = random_prime(rng, ell_bits)
        if ell != avoid_prime and ell**k <= 1 << 20:
            return ell**k


# ------------------------------------------------------------ polynomials


def cyclotomic_coeffs(n):
    """Coefficients of Phi_n, ascending, by division of X^n - 1 by the
    lower-index Phi_d. Used only for small n (companion blocks)."""
    quot = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        den = cyclotomic_coeffs(d)
        dd = len(den) - 1
        out = [0] * (len(quot) - dd)
        for i in range(len(quot) - 1, dd - 1, -1):
            c = quot[i]
            out[i - dd] = c
            if c:
                for j, b in enumerate(den):
                    quot[i - dd + j] -= c * b
        assert not any(quot[:dd])
        quot = out
    return quot


def cycle_indices(length, sign):
    """Cyclotomic indices of X^length - sign for sign in {+1, -1}."""
    if sign == 1:
        return divisors(length)
    return [e for e in divisors(2 * length) if length % e]


# ------------------------------------------------------------- matrices


def companion_rows(coeffs):
    k = len(coeffs) - 1
    rows = [[0] * k for _ in range(k)]
    for i in range(1, k):
        rows[i][i - 1] = 1
    for i in range(k):
        rows[i][k - 1] = -coeffs[i]
    return rows


def conjugate_in_place(rows, rng, shears):
    """Replace rows by U rows U^-1 for a random unimodular U built from
    `shears` elementary shears (coefficient +-1) plus row/column swaps and
    sign changes; each step acts on a row and the matching column, so the
    inverse is never formed."""
    d = len(rows)
    for _ in range(shears):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        kind = rng.randrange(4)
        if kind <= 1 and i != j:
            c = rng.choice((-1, 1))
            # E = I + c e_ij: row i += c row j, then column j -= c column i
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            for r in rows:
                r[j] -= c * r[i]
        elif kind == 2:
            rows[i], rows[j] = rows[j], rows[i]
            for r in rows:
                r[i], r[j] = r[j], r[i]
        else:
            rows[i] = [-a for a in rows[i]]
            for r in rows:
                r[i] = -r[i]


# Companion-block indices: every m with phi(m) <= 12 and m <= 42.
BLOCK_INDICES = [m for m in range(1, 43) if phi(m) <= 12]


def finite_order_matrix(rng, d, shears, shape_rng=None):
    """A d x d integer matrix of finite order, and the sorted cyclotomic
    indices of its characteristic polynomial implied by the construction.

    The blocks are drawn from `shape_rng` (default `rng`); the block order
    and the change of basis from `rng`. A fixed `shape_rng` keeps the
    block structure, and with it most of the cost, the same across seeds."""
    blocks, indices, left = [], [], d
    srng = shape_rng or rng
    while left:
        if srng.random() < 0.6:
            m = srng.choice([m for m in BLOCK_INDICES if phi(m) <= left])
            blocks.append(companion_rows(cyclotomic_coeffs(m)))
            indices.append(m)
            left -= phi(m)
        else:
            s = srng.randint(1, min(left, 6))
            perm = list(range(s))
            srng.shuffle(perm)
            block = [[0] * s for _ in range(s)]
            signs = [srng.choice((-1, 1)) for _ in range(s)]
            for j, i in enumerate(perm):
                block[i][j] = signs[j]
            seen = set()
            for start in range(s):
                if start in seen:
                    continue
                length, sign, j = 0, 1, start
                while j not in seen:
                    seen.add(j)
                    sign *= signs[j]
                    j = perm[j]
                    length += 1
                indices.extend(cycle_indices(length, sign))
            blocks.append(block)
            left -= s
    rows = [[0] * d for _ in range(d)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off:off + len(row)] = row
        off += len(b)
    # a random block order, then the unimodular change of basis
    perm = list(range(d))
    rng.shuffle(perm)
    rows = [[rows[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
    conjugate_in_place(rows, rng, shears)
    return rows, tuple(sorted(indices))
