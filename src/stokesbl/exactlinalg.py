"""Small exact linear algebra helpers over the rationals.

Used for basis generation (nullspaces of divergence/Laplace coefficient maps)
and for certifying the dimension formulas.  The exact routines take lists of
rows of Fraction; the rank certificate works on an int64 matrix mod a prime,
filled from sparse (row, col, Fraction) entries, which need no dense Fraction
rows.  Everything is deterministic (no pivoting heuristics beyond first
nonzero column, so bases come out in a reproducible order).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

#: prime for the fast rank certificate; (P-1)^2 fits in int64 products
RANK_PRIME = 2147483647


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Deterministic basis of the kernel of the matrix (rows act on R^ncols)."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def sparse_rank_mod_p(entries, shape: tuple[int, int]) -> int:
    """Rank mod p = RANK_PRIME of the matrix with these (row, col, Fraction) entries.

    Fills an int64 matrix with one modular inverse per distinct denominator;
    every prime factor of a denominator must be < p (true here: they come
    from small factorials).  The rank mod p is <= the rank over Q, so rank
    == nrows certifies full row rank over Q.  Each pivot step touches only
    the rows with a nonzero entry in the pivot column, and only the columns
    from the pivot column on.
    """
    p = RANK_PRIME
    mat = np.zeros(shape, dtype=np.int64)
    inverses: dict[int, int] = {}
    for i, j, v in entries:
        inv = inverses.get(v.denominator)
        if inv is None:
            if gcd(v.denominator, p) != 1:
                raise ValueError("denominator not invertible mod p")
            inv = inverses[v.denominator] = pow(v.denominator, -1, p)
        mat[i, j] = v.numerator * inv % p
    nrows, ncols = shape
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(mat[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            mat[[rank, piv], c:] = mat[[piv, rank], c:]
        row = mat[rank, c:] * pow(int(mat[rank, c]), -1, p) % p
        # rows below the pivot's old position; the swapped-down row is 0 in c
        below = rank + nz[1:]
        if below.size:
            mat[below, c:] = (mat[below, c:] - mat[below, c, None] * row) % p
        rank += 1
    return rank
