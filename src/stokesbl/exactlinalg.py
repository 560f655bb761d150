"""Exact rank certificate for the basis dimension claims.

The basis itself is built in closed form (``halfspace``), so no nullspace
is computed here.  ``sparse_rank_mod_p`` works on an int64 matrix mod a
prime, filled from sparse (row, col, Fraction) entries, which need no dense
Fraction rows.  It is deterministic: each pivot is the first nonzero entry
of its column.
"""

from __future__ import annotations

from math import gcd

import numpy as np

#: prime for the fast rank certificate; (P-1)^2 fits in int64 products
RANK_PRIME = 2147483647


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
