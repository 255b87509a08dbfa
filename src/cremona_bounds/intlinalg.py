"""Exact integer matrix algebra.

Characteristic polynomials (Hessenberg reduction modulo primes below 2^31,
then CRT, with the number of primes fixed by a Hadamard-type coefficient
bound; Cohen, GTM 138, Section 2.2), cyclotomic factorization of monic
integer polynomials, finite-order detection, Smith normal form, and kernel
dimensions mod p. Matrix products pack each row of the right operand into
one integer (Kronecker substitution, as for polynomial products).
"""

from itertools import chain
from math import isqrt, lcm
from operator import matmul, mul

from .cyclotomic import IntPoly, _pack, _power, _unpack, cyclotomic_poly
from .errors import DomainError, NotCyclotomicProduct, NotFiniteOrder, VerificationError
from .numth import check_prime, euler_phi, is_prime

MAX_DIMENSION = 64


class IntMatrix:
    """Immutable square matrix with arbitrary-precision integer entries."""

    # _indices: cyclotomic indices of the char poly, set by finite_order_indices
    __slots__ = ("rows", "dimension", "_indices")

    def __init__(self, rows):
        rows = tuple(tuple(map(int, row)) for row in rows)
        d = len(rows)
        if d < 1 or any(len(row) != d for row in rows):
            raise DomainError("matrix must be square with dimension >= 1")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dimension", d)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

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

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __sub__(self, other):
        self._check_dim(other)
        return IntMatrix(
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([c * x for x in row] for row in self.rows)

    def _check_dim(self, other):
        if self.dimension != other.dimension:
            raise DomainError("dimension mismatch")

    def __matmul__(self, other):
        """Row i of the product is sum_k a_ik * (row k of other), with each
        row of other packed into one integer whose digits hold the entries."""
        self._check_dim(other)
        d = self.dimension
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

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.dimension)

    def det(self) -> int:
        """Determinant via fraction-free Bareiss elimination."""
        d = self.dimension
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(d - 1):
            if m[k][k] == 0:
                for i in range(k + 1, d):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[d - 1][d - 1]

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"


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


def _check_cap(m: IntMatrix):
    if m.dimension > MAX_DIMENSION:
        raise DomainError(f"dimension {m.dimension} exceeds cap {MAX_DIMENSION}")


def _crt_primes():
    """The primes below 2^31, descending: the same list on every call."""
    q = 2**31 - 1
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


def char_poly(m: IntMatrix) -> IntPoly:
    """Exact det(X*I - M) by Hessenberg reduction mod primes below 2^31 and CRT.

    Coefficient bound (Cohen, GTM 138, Section 2.2): c_{d-k} is up to sign
    the sum of the C(d,k) principal k-minors, and by Hadamard's inequality a
    principal minor is at most the product of its rows' 2-norms. With N_i the
    rounded-up 2-norm of row i, |c_{d-k}| <= e_k(N_1, ..., N_d), the k-th
    elementary symmetric function, which is at most C(d,k) * B^k for
    B = max N_i. Primes are taken until their product exceeds twice the
    largest e_k, so the symmetric residues are the coefficients. The result
    is cross-checked by c_{d-1} = -tr M and c_0 = (-1)^d det M (Bareiss).
    """
    _check_cap(m)
    d = m.dimension
    elementary = [1]
    for row in m.rows:
        s = sum(x * x for x in row)
        norm = isqrt(s - 1) + 1 if s else 0
        elementary = [a + norm * b for a, b in zip(elementary + [0], [0] + elementary)]
    bound = max(elementary)
    coeffs, modulus = [0] * (d + 1), 1
    primes = _crt_primes()
    while modulus <= 2 * bound:
        p = next(primes)
        lift = pow(modulus, -1, p)
        coeffs = [
            x + modulus * ((r - x) * lift % p)
            for x, r in zip(coeffs, _char_poly_mod(m.rows, p))
        ]
        modulus *= p
    coeffs = [x - modulus if 2 * x > modulus else x for x in coeffs]
    if coeffs[d - 1] != -sum(m.rows[i][i] for i in range(d)):
        raise VerificationError("char poly: coefficient of X^(d-1) is not -trace")
    if coeffs[0] != (-1) ** d * m.det():
        raise VerificationError("char poly: constant term is not (-1)^d det")
    return IntPoly(coeffs)


def cyclotomic_factorization(f: IntPoly) -> tuple:
    """Multiset of indices d_i with prod Phi_{d_i} = f, sorted ascending.

    Greedy trial division, candidates ascending; the enumeration cap
    d <= 2*deg^2 + 6 covers every d with phi(d) <= deg.
    """
    if not f.is_monic() or f.degree < 1:
        raise DomainError("factorization needs a monic polynomial of degree >= 1")
    remaining = f
    indices = []
    cap = 2 * f.degree**2 + 6
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
        raise NotCyclotomicProduct(
            f"{f} is not a product of cyclotomic polynomials"
        )
    return tuple(sorted(indices))


def finite_order_indices(m: IntMatrix) -> tuple:
    """Cyclotomic factorization of the char poly of M, checked to have
    M^N = I for N the lcm of the indices; raises NotFiniteOrder otherwise.

    M is immutable, so the indices are kept on it and each matrix is
    checked once, however many tori share it.
    """
    indices = getattr(m, "_indices", None)
    if indices is not None:
        return indices
    try:
        indices = cyclotomic_factorization(char_poly(m))
    except NotCyclotomicProduct as exc:
        raise NotFiniteOrder(
            "characteristic polynomial is not a product of cyclotomics"
        ) from exc
    n = lcm(*indices)
    # semisimplicity is not implied by the char poly; verify by powering
    if not (m**n).is_identity():
        raise NotFiniteOrder(f"M^{n} != I (matrix is not semisimple)")
    object.__setattr__(m, "_indices", indices)
    return indices


def matrix_order(m: IntMatrix) -> int:
    """Least N >= 1 with M^N = I; raises NotFiniteOrder otherwise."""
    return lcm(*finite_order_indices(m))


def smith_normal_form(m: IntMatrix) -> tuple:
    """Invariant factors of Z^d / M Z^d, divisibility-chained, zeros last.

    Plain Euclidean row/column reduction with minimal-absolute-value pivots;
    exact arbitrary-precision arithmetic throughout.
    """
    _check_cap(m)
    d = m.dimension
    a = [list(row) for row in m.rows]

    def find_pivot(k):
        best = None
        for i in range(k, d):
            for j in range(k, d):
                v = abs(a[i][j])
                if v and (best is None or v < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    invariants = []
    for k in range(d):
        while True:
            piv = find_pivot(k)
            if piv is None:
                invariants.extend([0] * (d - k))
                return tuple(invariants)
            i, j = piv
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, d):
                q = a[i][k] // pivot
                if q:
                    for j in range(k, d):
                        a[i][j] -= q * a[k][j]
                if a[i][k]:
                    dirty = True
            for j in range(k + 1, d):
                q = a[k][j] // pivot
                if q:
                    for i in range(k, d):
                        a[i][j] -= q * a[i][k]
                if a[k][j]:
                    dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain to hold
            offender = None
            for i in range(k + 1, d):
                for j in range(k + 1, d):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                invariants.append(abs(pivot))
                break
            for j in range(k, d):
                a[k][j] += a[offender][j]
    return tuple(invariants)


def kernel_dim_mod_p(m: IntMatrix, p: int) -> int:
    """Dimension over Z/p of the null space of M mod p."""
    _check_cap(m)
    check_prime(p)
    d = m.dimension
    a = [[x % p for x in row] for row in m.rows]
    rank = 0
    for col in range(d):
        piv = next((i for i in range(rank, d) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(d):
            if i != rank and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return d - rank

