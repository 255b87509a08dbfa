"""Seeded generators for finite-order integer matrices and unimodular bases.

Finite order is guaranteed by construction: block-diagonal assemblies of
cyclotomic companion blocks and signed permutation blocks, conjugated by
random unimodular matrices built from elementary operations with small
coefficients.
"""

import random

from .cyclotomic import cyclotomic_poly
from .intlinalg import IntMatrix, companion_matrix
from .numth import euler_phi

# companion blocks are drawn from cyclotomic indices up to 12
_BLOCK_INDICES = [m for m in range(1, 13)]


def random_unimodular(rng: random.Random, d: int) -> tuple:
    """(U, U^-1) for U a product of 3d random elementary shear/swap/negation
    matrices (det = +-1).

    Shear coefficients are drawn from [-2, 2]; product entries can grow
    slightly beyond that range. Each row operation on U is undone by the
    inverse column operation on U^-1, so U^-1 costs no further draws.
    """
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    # the columns of U^-1, so that its column operations act on lists
    cols = [list(row) for row in rows]
    for _ in range(3 * d):
        kind = rng.randrange(3)
        i = rng.randrange(d)
        j = rng.randrange(d)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            cols[j] = [a - c * b for a, b in zip(cols[j], cols[i])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
            cols[i], cols[j] = cols[j], cols[i]
        elif kind == 2:
            rows[i] = [-a for a in rows[i]]
            cols[i] = [-a for a in cols[i]]
    return IntMatrix(rows), IntMatrix(zip(*cols))


def _signed_permutation_block(rng: random.Random, s: int) -> IntMatrix:
    perm = list(range(s))
    rng.shuffle(perm)
    rows = [[0] * s for _ in range(s)]
    for j, i in enumerate(perm):
        rows[i][j] = rng.choice([-1, 1])
    return IntMatrix(rows)


def random_finite_order_matrix(rng: random.Random, d: int) -> IntMatrix:
    """Random d x d integer matrix of finite multiplicative order."""
    blocks = []
    remaining = d
    while remaining > 0:
        if rng.random() < 0.5:
            choices = [m for m in _BLOCK_INDICES if euler_phi(m) <= remaining]
            m = rng.choice(choices)
            blocks.append(companion_matrix(cyclotomic_poly(m)))
            remaining -= euler_phi(m)
        else:
            s = rng.randint(1, remaining)
            blocks.append(_signed_permutation_block(rng, s))
            remaining -= s
    base = IntMatrix.block_diagonal(blocks)
    u, u_inv = random_unimodular(rng, d)
    return u @ base @ u_inv

