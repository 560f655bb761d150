"""The trust-suite workload: a scaled `stokesbl verify --suite all` in one process.

Operations, each counted once in `attempted`:
  * stokes_basis(m, d) plus certify_rank for d in {2, 3, 4}, m <= 6
  * exact SqrtExt mode oracles: solve_mode plus residual_check
  * the delta_D_inv contract on random exact polynomials
  * a slip-length refinement ladder per geometry: solve_cell(l=1, i=1) at
    (12, 16), (24, 32) and (48, 64), with a Richardson error bar.  As in the
    acceptance suite, every slip length must exceed 3 error bars, and the
    first wall's (COS_WALL for seed 0) convergence order must be >= 1.5.

Calls go through module attributes so that a traced run sees them.
"""

from __future__ import annotations

import math
from fractions import Fraction

LADDER = ((12, 16), (24, 32), (48, 64))
BASIS_DIMS = (2, 3, 4)
BASIS_ORDERS = range(1, 7)


def _basis_op(halfspace, m: int, d: int):
    basis = halfspace.stokes_basis(m, d)
    dim = len(basis)
    ok = dim == halfspace.dim_stokes_space(m, d) and basis.certify_rank()
    return ok, dim


def _oracle_op(modes, case: dict):
    def ext(pair):
        return modes.SqrtExt.of(Fraction(pair[0]), Fraction(pair[1]))

    k = tuple(case["k"])
    F = [[ext(c) for c in comp] for comp in case["F"]]
    b = [ext(c) for c in case["b"]]
    sol = modes.solve_mode(modes.ModeData(k, F, b))
    return modes.residual_check(k, F, sol, b).ok


def _contract_op(halfspace, ExactPolynomial, poly: dict) -> bool:
    d = poly["dim"]
    f = ExactPolynomial(d, {tuple(e): Fraction(c) for e, c in poly["terms"]})
    inv = halfspace.delta_D_inv
    u = inv(f)
    ok = u.laplacian() == f and u.trace_at_zero().is_zero()
    for i in range(d - 1):
        ok = ok and u.derive(i) == inv(f.derive(i))
    y = d - 1
    return ok and u.derive(y) == inv(f.derive(y)) + inv(f.trace_at_zero()).derive(y)


def _ladder_op(cell, BoundaryGeometry, modes: dict, check_order: bool):
    geometry = BoundaryGeometry.from_fourier(
        {int(k): complex(re, im) for k, (re, im) in modes.items()})
    lams = [float(cell.solve_cell(geometry, l=1, comp=1, nx=nx, ny=ny).tail[0])
            for nx, ny in LADDER]
    e1, e2 = abs(lams[1] - lams[0]), abs(lams[2] - lams[1])
    order = math.log2(e1 / e2) if e2 > 0 else 2.0
    err_bar = e2 / max(2 ** order - 1.0, 1.0)
    ok = lams[2] - 3 * err_bar > 0 and (order >= 1.5 or not check_order)
    return ok, {"lams": lams, "order": order, "err_bar": err_bar}


def run(inputs: dict, span) -> tuple[list[dict], dict]:
    """Run every operation; returns (per-op results, summary for checking).

    `span(name)` is a context manager that times an operation group.
    """
    from stokesbl import cell, halfspace, modes
    from stokesbl.geometry import BoundaryGeometry
    from stokesbl.polynomials import ExactPolynomial

    ops: list[dict] = []
    summary: dict = {"basis_dims": {}, "ladders": []}

    def attempt(name, fn, *args):
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that raises counts as failed
            ops.append({"op": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"})
            return None
        ok, value = result if isinstance(result, tuple) else (result, None)
        ops.append({"op": name, "ok": bool(ok)})
        return value

    with span("trust.bases"):
        for d in BASIS_DIMS:
            for m in BASIS_ORDERS:
                dim = attempt(f"basis d={d} m={m}", _basis_op, halfspace, m, d)
                summary["basis_dims"][f"{d},{m}"] = dim
    with span("trust.oracles"):
        for i, case in enumerate(inputs["oracles"]):
            attempt(f"oracle {i}", _oracle_op, modes, case)
    with span("trust.contract"):
        for i, poly in enumerate(inputs["polynomials"]):
            attempt(f"delta_D_inv {i}", _contract_op, halfspace, ExactPolynomial, poly)
    with span("trust.ladder"):
        for i, geo in enumerate(inputs["geometries"]):
            summary["ladders"].append(
                attempt(f"ladder {i}", _ladder_op, cell, BoundaryGeometry, geo, i == 0))
    return ops, summary
