"""Exact integer matrix algebra.

Characteristic polynomials of finite-order matrices (Hessenberg reduction
modulo primes below 2^62, the symmetric lift of the residues mod the first
one, checked modulo the further primes whose number is fixed by a
Hadamard-type coefficient bound; Cohen, GTM 138, Section 2.2), cyclotomic
factorization of monic integer polynomials, finite-order detection, Smith
normal form, and kernel dimensions mod p. One forward Gaussian elimination
mod a prime gives both the kernel dimensions and the determinant that
cross-checks the char poly; no determinant is taken over Z. Matrix products
pack each row of the right operand into one integer (Kronecker
substitution, as for polynomial products).
"""

from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import index, matmul, mul

from .cyclotomic import IntPoly, _pack, _power, _unpack, cyclotomic_poly
from .errors import DomainError, NotCyclotomicProduct, NotFiniteOrder, Record, VerificationError
from .numth import check_prime, euler_phi, is_prime

MAX_DIMENSION = 64


class _Checked(Record):
    # _indices: cyclotomic indices of the char poly, set by finite_order_indices;
    # a slot of the base, so not a field of the matrix
    __slots__ = ("_indices",)


class IntMatrix(_Checked):
    """Immutable square matrix with arbitrary-precision integer entries and
    dimension at most MAX_DIMENSION."""

    __slots__ = ("rows", "dimension")

    def __init__(self, rows):
        rows = tuple(tuple(map(index, row)) for row in rows)
        d = len(rows)
        if d < 1 or any(len(row) != d for row in rows):
            raise DomainError("matrix must be square with dimension >= 1")
        if d > MAX_DIMENSION:
            raise DomainError(f"dimension {d} exceeds cap {MAX_DIMENSION}")
        super().__init__(rows, d)

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @classmethod
    def block_diagonal(cls, blocks) -> "IntMatrix":
        blocks = list(blocks)
        d = sum(b.dimension for b in blocks)
        rows = [[0] * d for _ in range(d)]
        off = 0
        for b in blocks:
            for i in range(b.dimension):
                for j in range(b.dimension):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.dimension
        return cls(rows)

    def shift(self, c: int, e: int) -> "IntMatrix":
        """c*M - e*I, built as one matrix."""
        return IntMatrix([c * x - e if i == j else c * x for j, x in enumerate(row)]
                         for i, row in enumerate(self.rows))

    def __matmul__(self, other):
        """Row i of the product is sum_k a_ik * (row k of other), with each
        row of other packed into one integer whose digits hold the entries."""
        d = self.dimension
        if other.dimension != d:
            raise DomainError("dimension mismatch")
        # every entry of the product is a sum of d products; the digits must
        # hold the entries of other as well, also when self is zero
        bound = d * max(_max_abs(self.rows), 1) * _max_abs(other.rows)
        nbytes = bound.bit_length() // 8 + 1
        packed = [_pack(row, nbytes) for row in other.rows]
        return IntMatrix(
            _unpack(sum(a * b for a, b in zip(row, packed) if a), nbytes, d)
            for row in self.rows
        )

    def __pow__(self, n: int) -> "IntMatrix":
        return _power(self, n, IntMatrix.identity(self.dimension), matmul)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def __reduce__(self):
        return IntMatrix, (self.rows,)


def _max_abs(rows) -> int:
    return max(map(abs, chain.from_iterable(rows)))


def companion_matrix(poly: IntPoly) -> IntMatrix:
    """Companion matrix of a monic integer polynomial of degree >= 1."""
    if not poly.is_monic() or poly.degree < 1:
        raise DomainError("companion matrix needs a monic polynomial of degree >= 1")
    k = poly.degree
    rows = [[0] * k for _ in range(k)]
    for i in range(1, k):
        rows[i][i - 1] = 1
    for i in range(k):
        rows[i][k - 1] = -poly[i]
    return IntMatrix(rows)


def _crt_primes():
    """The primes below 2^62, descending: the same list on every call."""
    q = 2**62 - 1
    while True:
        if is_prime(q):
            yield q
        q -= 2


def _char_poly_mod(rows, p: int) -> list:
    """Ascending coefficients of det(X*I - M) mod p, for any prime p.

    M is reduced to upper Hessenberg form H by similarities mod p, then
    det(X*I - H) follows from the recurrence on its leading principal minors
    (Cohen, GTM 138, Section 2.2, the Hessenberg algorithm).
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        # H <- L H L^-1 with L = I - sum u_i e_i e_m^T: the row operations
        # clear column m-1 below the subdiagonal, then one column update
        tail = h[m][m - 1:]
        inv = pow(tail[0], -1, p)
        us = []
        for i in range(m + 1, n):
            row = h[i]
            u = row[m - 1] * inv % p
            us.append(u)
            if u:
                row[m - 1:] = [(a - u * b) % p for a, b in zip(row[m - 1:], tail)]
        if any(us):
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1:]))) % p
    # minors[k] = det(X*I - H[:k, :k])
    minors = [[1]]
    for k in range(1, n + 1):
        col = k - 1
        prev = minors[-1]
        acc = [0] + prev
        diag = h[col][col]
        for j, c in enumerate(prev):
            acc[j] -= diag * c
        sub = 1
        for i in range(col - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            c = sub * h[i][col] % p
            if c:
                for j, v in enumerate(minors[i]):
                    acc[j] -= c * v
        minors.append([c % p for c in acc])
    return minors[n]


def _residues(m: IntMatrix):
    """(p, residues of det(X*I - M) mod p) for the CRT primes in turn, until
    their product exceeds twice the coefficient bound: an integer polynomial
    within the bound that agrees with every residue list is the char poly,
    which is how `finite_order_indices` accepts its lift.

    Coefficient bound (Cohen, GTM 138, Section 2.2): c_{d-k} is up to sign
    the sum of the C(d,k) principal k-minors, and by Hadamard's inequality a
    principal minor is at most the product of its rows' 2-norms. With N_i the
    rounded-up 2-norm of row i, |c_{d-k}| <= e_k(N_1, ..., N_d), the k-th
    elementary symmetric function, which is at most C(d,k) * B^k for
    B = max N_i.
    """
    elementary = [1]
    for row in m.rows:
        s = sum(x * x for x in row)
        norm = isqrt(s - 1) + 1 if s else 0
        elementary = [a + norm * b for a, b in zip(elementary + [0], [0] + elementary)]
    bound, modulus = 2 * max(elementary), 1
    for p in _crt_primes():
        yield p, _char_poly_mod(m.rows, p)
        modulus *= p
        if modulus > bound:
            return


def _cross_check(m: IntMatrix, coeffs, p: int):
    """c_{d-1} = -tr M exactly and c_0 = (-1)^d det M mod p, det M by
    Gaussian elimination (`_eliminate`), or VerificationError.

    Run on a lift from `finite_order_indices`: c_0 = +-1, as the lift is a
    product of cyclotomic polynomials, and det M = +-1 for any M that the
    final M^N = I accepts. The two sides then differ by 0 or 2, and p is odd,
    so the congruence holds exactly when the equality does.
    """
    if coeffs[-2] != -sum(row[i] for i, row in enumerate(m.rows)):
        raise VerificationError("char poly: coefficient of X^(d-1) is not -trace")
    if (coeffs[0] - (-1) ** m.dimension * _eliminate(m.rows, p)[1]) % p:
        raise VerificationError("char poly: constant term is not (-1)^d det")


def cyclotomic_factorization(f: IntPoly) -> tuple:
    """Multiset of indices d_i with prod Phi_{d_i} = f, ascending.

    Greedy trial division, candidates ascending; the enumeration cap
    d <= 2*deg^2 covers every d with phi(d) <= deg, as phi(d) >= sqrt(d / 2).
    """
    if not f.is_monic() or f.degree < 1:
        raise DomainError("factorization needs a monic polynomial of degree >= 1")
    remaining = f
    indices = []
    cap = 2 * f.degree**2
    for d in range(1, cap + 1):
        if euler_phi(d) > remaining.degree:
            continue
        phi_d = cyclotomic_poly(d)
        while remaining.degree >= phi_d.degree:
            quot, rem = remaining.divmod_monic(phi_d)
            if rem:
                break
            remaining = quot
            indices.append(d)
        if remaining.degree == 0:
            break
    if remaining.degree != 0:
        raise NotCyclotomicProduct(f"{f} is not a product of cyclotomic polynomials")
    return tuple(indices)


def finite_order_indices(m: IntMatrix) -> tuple:
    """Cyclotomic factorization of the char poly of M, checked to have
    M^N = I for N the lcm of the indices; raises NotFiniteOrder otherwise.

    A finite-order M is semisimple with roots of unity as eigenvalues. So its
    char poly, with |c_{d-k}| <= C(d, k), is the symmetric lift of its residues
    mod P = 2^62 - 57 > 2 C(64, 32); and g, the product of the distinct Phi_d
    dividing it, has g(M) v = 0 for v = (1, ..., 1). Both tests run mod P and
    only reject. M is powered only once the lift agrees with the residues
    modulo each further prime of _residues, whose product with P exceeds
    twice the bound on both: then the lift is the char poly. Before the
    power, `_cross_check` compares the lift's c_{d-1} with -tr M over Z and
    its c_0 with (-1)^d det M mod P, det M from a Gaussian elimination mod P,
    a path independent of the Hessenberg reduction.

    M is immutable, so the indices are kept on it and each matrix is
    checked once, however many tori share it.
    """
    indices = getattr(m, "_indices", None)
    if indices is not None:
        return indices
    residues = _residues(m)
    p, first = next(residues)
    lift = [c - p if 2 * c > p else c for c in first]
    try:
        indices = cyclotomic_factorization(IntPoly(lift))
    except NotCyclotomicProduct as exc:
        raise NotFiniteOrder("char poly mod P is not a product of cyclotomics") from exc
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in m.rows]
    w = [0] * m.dimension
    for c in reversed(prod(map(cyclotomic_poly, set(indices)), start=IntPoly([1])).coeffs):
        w = [(sum(x * w[j] for j, x in row) + c) % p for row in nonzero]
    if any(w):
        raise NotFiniteOrder("g(M) v != 0 mod P: M is not semisimple")
    for q, r in residues:
        if [c % q for c in lift] != r:
            raise NotFiniteOrder("char poly is not its lift mod P: M has infinite order")
    _cross_check(m, lift, p)
    n = lcm(*indices)
    if m**n != IntMatrix.identity(m.dimension):
        raise NotFiniteOrder(f"M^{n} != I (matrix is not semisimple)")
    object.__setattr__(m, "_indices", indices)
    return indices


def smith_normal_form(m: IntMatrix) -> tuple:
    """Invariant factors of Z^d / M Z^d, divisibility-chained, zeros last.

    Euclidean row/column reduction to a diagonal, then gcd-lcm normalisation
    of the diagonal (Cohen, GTM 138, Section 2.4); exact arbitrary-precision
    arithmetic throughout. The chain is checked on the result: each
    invariant divides the next (0 divides only 0).
    """
    invariants = _smith_diagonal([list(row) for row in m.rows])
    for a, b in zip(invariants, invariants[1:]):
        divides = b % a == 0 if a else b == 0
        if not divides:
            raise VerificationError(
                f"Smith normal form: invariant {a} does not divide {b}: {invariants}"
            )
    return invariants


def _smith_diagonal(a) -> tuple:
    """The invariant factors of the square matrix a (reduced in place).

    Step k moves the entry of least absolute value in the trailing block to
    (k, k), then clears row k and column k by Euclidean steps, each new pivot
    the least remainder left in them. The diagonal is then brought to a
    divisibility chain, zeros last, by pairwise (gcd, lcm) replacements.
    """
    d = len(a)
    diag = [0] * d
    for k in range(d):
        block = [(abs(x), i, j) for i in range(k, d)
                 for j, x in enumerate(a[i][k:], k) if x]
        if not block:
            break
        _, i, j = min(block)
        while True:
            a[k], a[i] = a[i], a[k]
            for row in a[k:]:
                row[k], row[j] = row[j], row[k]
            top = a[k]
            pivot, tail = top[k], top[k:]
            for row in a[k + 1:]:
                q = row[k] // pivot
                if q:
                    row[k:] = [x - q * y for x, y in zip(row[k:], tail)]
            for j in range(k + 1, d):
                q = top[j] // pivot
                if q:
                    for row in a[k:]:
                        row[j] -= q * row[k]
            rest = [(abs(a[i][k]), i, k) for i in range(k + 1, d) if a[i][k]]
            rest += [(abs(top[j]), k, j) for j in range(k + 1, d) if top[j]]
            if not rest:
                break
            _, i, j = min(rest)
        diag[k] = abs(pivot)
    for i in range(d):
        for j in range(i + 1, d):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return tuple(diag)


def _eliminate(rows, p: int) -> tuple:
    """(rank, det) of M mod p, for any prime p: forward Gaussian elimination,
    det the product of the pivots with one sign flip per row swap, 0 when
    the rank is short. p is not checked, so primes above 2^31 serve too."""
    d = len(rows)
    a = [[x % p for x in row] for row in rows]
    rank, det = 0, 1
    for col in range(d):
        piv = next((i for i in range(rank, d) if a[i][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        # entries left of col are zero in the rows from rank on
        tail = a[rank][col:]
        det = det * tail[0] % p
        inv = pow(tail[0], -1, p)
        for row in a[rank + 1:]:
            if row[col]:
                c = row[col] * inv % p
                row[col:] = [(x - c * y) % p for x, y in zip(row[col:], tail)]
        rank += 1
    return rank, det


def kernel_dim_mod_p(m: IntMatrix, p: int) -> int:
    """Dimension over Z/p of the null space of M mod p."""
    check_prime(p)
    return m.dimension - _eliminate(m.rows, p)[0]
