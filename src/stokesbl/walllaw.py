"""Effective polynomials and the recursive wall-law coefficient table.

Every heterogeneous solution splits into a polynomial part plus an
exponentially decaying remainder; the polynomial parts form the effective
space, and their traces on {y = 0} satisfy one linear identity whose
matrix-valued x-polynomial coefficients Phi^{alpha,l} are intrinsic to the
boundary.  The table is built recursively in increasing |alpha| + l from the
effective parts of the monomial correctors; the first-order entry is the
classical Navier slip matrix whose (1,1) entry is the slip length.

Everything here is 2-D: horizontal multi-indices are integers and x-dependent
coefficients are univariate polynomial coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
import numpy.polynomial.polynomial as npoly

from .polynomials import VectorPolynomial
from .recursion import (
    CorrectorStack,
    HeterogeneousElement,
    coeff_derivative,
    effective_part,
    pad_stack,
)


class WallLawAccuracyError(RuntimeError):
    """Raised when a sign/accuracy guarantee fails (e.g. lambda <= 0)."""


# ---------------------------------------------------------------------------
# polynomial matrices (coefficients ascending in x)
# ---------------------------------------------------------------------------

def matpoly_apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(2,2,degM) polynomial matrix times (2,degV) polynomial vector."""
    rows = []
    for i in range(2):
        acc = np.zeros(1)
        for j in range(2):
            acc = npoly.polyadd(acc, npoly.polymul(mat[i, j], vec[j]))
        rows.append(np.atleast_1d(acc))
    return pad_stack(rows)


# ---------------------------------------------------------------------------
# the wall-law table
# ---------------------------------------------------------------------------

@dataclass
class WallLawTable:
    order: int
    phi: dict          # (alpha, l) -> (2, 2, deg+1) matrix polynomial in x
    tails: dict        # horizontal comp -> (2,) first-order tail T_(comp)
    slip_length: float

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "slip_length": self.slip_length,
            "tails": {str(c): list(map(float, t)) for c, t in self.tails.items()},
            "phi": [
                {"alpha": a, "l": l, "matrix": m.tolist()}
                for (a, l), m in sorted(self.phi.items())
            ],
        }


def monomial_effective(stack: CorrectorStack, alpha: int, l: int) -> np.ndarray:
    """W^{alpha,l}: effective parts of x^alpha y^l e_i + v^{alpha,l}_(i).

    Returned as (2 columns i, 2 components, nx_pow, ny_pow) coefficient
    arrays.
    """
    return pad_stack([effective_part(stack, VectorPolynomial.unit_monomial((alpha, l), i, 2),
                                     (2, alpha + 1, l + 1))[1] for i in range(2)])


def phi_table(stack: CorrectorStack, order: int) -> WallLawTable:
    """Wall-law coefficient polynomials Phi^{alpha,l} for |alpha| + l <= order;
    they read the levels (beta, l, i) with beta + l <= order, so order 1 reads
    only the Navier seed, level (0, 1, 1)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    # Navier tails come from horizontal drivers only; the vertical driver has
    # net flux through the wall and its tail is not constrained to T.e2 = 0
    tails = {1: stack.level(0, 1, 1).const}
    phi: dict = {}
    # seed: Navier matrix (T_(1), 0), last column zero
    seed = np.zeros((2, 2, 1))
    seed[:, 0, 0] = tails[1]
    phi[(0, 1)] = seed

    for mu in range(2, order + 1):
        # all entries of level mu are built from the table below level mu
        lower = dict(phi)
        for l in range(1, mu + 1):
            alpha = mu - l
            W = monomial_effective(stack, alpha, l)
            cols = []
            for i in range(2):
                # x-polynomials d^b d^k W(x, 0) are the y^0 coefficients
                acc = coeff_derivative(W[i], 0, 0)[..., 0]
                for (b, k), phimat in lower.items():
                    corr = matpoly_apply(phimat, coeff_derivative(W[i], b, k)[..., 0])
                    acc = pad_stack([npoly.polysub(acc[c], corr[c]) for c in range(2)])
                cols.append(acc / (factorial(alpha) * factorial(l)))
            # column i of Phi^{alpha,l} is cols[i]
            phi[(alpha, l)] = pad_stack(cols).swapaxes(0, 1)

    lam = float(seed[0, 0, 0])
    return WallLawTable(order=order, phi=phi, tails=tails, slip_length=lam)


def wall_law_identity_residual(table: WallLawTable, element: HeterogeneousElement) -> float:
    """Relative residual of w_poly(x,0) = sum Phi^{alpha,l} d^alpha d^l w_poly(x,0)."""
    w = element.w_poly_xy
    lhs = coeff_derivative(w, 0, 0)[..., 0]
    rhs = np.zeros_like(lhs)
    for (alpha, l), mat in table.phi.items():
        term = matpoly_apply(mat, coeff_derivative(w, alpha, l)[..., 0])
        rhs = pad_stack([npoly.polyadd(rhs[c], term[c]) for c in range(2)])
    resid = pad_stack([npoly.polysub(lhs[c], rhs[c]) for c in range(2)])
    scale = max(np.abs(w).max(), 1e-300)
    return float(np.abs(resid).max() / scale)


def second_order_2d(table: WallLawTable) -> dict:
    """The explicit second-order wall law for 2-D flows, read off an order >= 2
    table: the slip length lambda, the d_y^2 coefficient c_yy and the
    mixed-derivative coefficient vector.

    Raises WallLawAccuracyError if the slip length fails to be positive.
    """
    if table.order < 2:
        raise ValueError("the second-order law needs a table of order >= 2")
    lam = table.slip_length
    if lam <= 0:
        raise WallLawAccuracyError(
            f"slip length {lam} is not positive: refine the cell solve"
        )
    phi02 = table.phi[(0, 2)]
    # e1-coefficient of d_y d_x w1 groups Phi^{1,1} col 1 with -Phi^{0,2} col 2
    c_xy_vector = table.phi[(1, 1)][:, 0, 0] - phi02[:, 1, 0]
    return {
        "lambda": lam,
        "c_yy": float(phi02[0, 0, 0]),
        "c_xy_vector": [float(v) for v in c_xy_vector],
    }
