"""Recursive construction of boundary-layer correctors and their assembly.

Each driving monomial x^alpha y^l e_i is corrected by an ansatz
sum_{beta <= alpha} C(alpha,beta) x^{alpha-beta} V^beta(x,y), where the
periodic-in-x building blocks (V^beta, Q^beta) solve a Stokes hierarchy whose
data comes from the levels beta - e_i and beta - 2 e_i.  Levels are solved on
one periodicity cell with the transparent top condition; the polynomial-in-y
parts are propagated in closed form (integrals of lower-level polynomials),
and the periodic parts above the lid as sums of decaying modes.

Numerics are two-dimensional, so multi-indices are plain integers here.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from math import comb, factorial, isfinite, prod

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.linalg import solve_banded

from . import __version__
from .cell import (
    DEFAULT_HEIGHT,
    CellProblem,
    CellSolution,
    StripGrid,
    TransparentTop,
    solve_stokes,
    trace_expansion,
    wall_problem,
)
from .geometry import BoundaryGeometry, InputError, json_digest, json_object, json_value
from .modes import halfline_integrals, mode_fields, poly_add, poly_derive, poly_scale
from .polynomials import ExactPolynomial, VectorPolynomial


# ---------------------------------------------------------------------------
# dense coefficient arrays: c[..., i, j] is the coefficient of x^i y^j
# ---------------------------------------------------------------------------

def pad_stack(arrays) -> np.ndarray:
    """Stack arrays that share their leading shape, zero-padding the last axis."""
    n = max(a.shape[-1] for a in arrays)
    out = np.zeros((len(arrays),) + arrays[0].shape[:-1] + (max(n, 1),))
    for i, a in enumerate(arrays):
        out[i, ..., : a.shape[-1]] = a
    return out


def padded_sum(terms, shape=()) -> np.ndarray:
    """Sum of scale * block over (scale, block) terms, each block at the origin.

    The zero array it accumulates into holds every block and is at least
    `shape`; accumulating into zeros writes +0.0 where a block has -0.0.
    """
    terms = list(terms)
    dims = [block.shape for _, block in terms] + ([shape] if shape else [])
    out = np.zeros(tuple(map(max, zip(*dims))))
    for scale, block in terms:
        out[tuple(map(slice, block.shape))] += scale * block
    return out


def coeff_derivative(c: np.ndarray, bx: int, by: int) -> np.ndarray:
    """d_x^bx d_y^by of (..., nx, ny) coefficient arrays.

    Each coefficient is multiplied once by its exact integer factor
    m!/(m-bx)! * j!/(j-by)! (a chain of single derivatives would round
    differently) and added into zeros, as padded_sum does.  An annihilated
    axis gives the zero array (..., 1, 1).
    """
    nx, ny = c.shape[-2:]
    if bx >= nx or by >= ny:
        return np.zeros(c.shape[:-2] + (1, 1))
    factor = np.outer([factorial(m) // factorial(m - bx) for m in range(bx, nx)],
                      [factorial(j) // factorial(j - by) for j in range(by, ny)])
    out = np.zeros(c.shape[:-2] + factor.shape)
    out += c[..., bx:, by:] * factor
    return out


def poly_to_coeff2d(p: ExactPolynomial | VectorPolynomial) -> np.ndarray:
    """Dense float coefficients of a 2-D polynomial, (deg_x+1, deg_y+1).

    A VectorPolynomial gives (components, deg_x+1, deg_y+1), each component
    zero-padded to the largest degrees.
    """
    comps = p.components if isinstance(p, VectorPolynomial) else [p]
    exps = [exp for q in comps for exp in q.terms]
    out = np.zeros((len(comps), max([e[0] for e in exps], default=0) + 1,
                    max([e[1] for e in exps], default=0) + 1))
    for i, q in enumerate(comps):
        for exp, c in q.terms.items():
            out[i, exp[0], exp[1]] = float(c)
    return out if isinstance(p, VectorPolynomial) else out[0]


# ---------------------------------------------------------------------------
# level solutions
# ---------------------------------------------------------------------------

@dataclass
class LevelSolution:
    """One block (V^beta, Q^beta) of the corrector hierarchy.

    u, p and the diagnostics are what the level's solve produced, and all a
    stack file stores; level_solution derives the other fields from them.
    modes is trace_expansion's {k: (V1, V2, Q)}, the coefficient lists of
    every mode k = 1..nx/2 above the lid; modes.mode_fields evaluates it
    with the stack grid's height and nx/2.
    """

    beta: int
    l: int
    comp: int
    u: np.ndarray           # (2, nx, ny+1) total velocity on the stack grid
    p: np.ndarray           # (nx, ny) the solve's midpoint pressure
    p_nodes: np.ndarray     # total pressure at nodes, normalization fixed
    v_poly: np.ndarray      # (2, deg+1) coefficients of V^beta_poly(y)
    q_poly: np.ndarray      # coefficients of Q^beta_poly(y)
    modes: dict             # k -> (V1, V2, Q): the periodic part above the lid
    diagnostics: dict

    @property
    def const(self) -> np.ndarray:
        """V^beta_const = V^beta_poly(0), the gathered constant."""
        return self.v_poly[:, 0].copy()


def level_problem(stack: "CorrectorStack", beta: int, l: int, comp: int):
    """Cell problem of level beta, its growth part and Pi^beta_poly.

    Level 0 is the wall problem: data -gamma^l e_comp on the wall, a
    homogeneous top, and zero growth part and Pi.  For beta >= 1, levels
    beta - 1 and beta - 2 (zero below 0) give the data F^beta at the
    nodes and G^beta at the midpoints.  The divergence corrector W^beta has
    polynomial part W_poly(y) = -C(beta,1) int_0^y (V^{beta-1}_poly)_1 e_2 and,
    for k > 0, mode part W_k = -C(beta,1) (V^{beta-1}_k)_1 / (ik) e_1.  The
    polynomial corrector (Lambda^beta e_1, Pi^beta) solves
    -Lap Lambda_poly + grad Pi_poly = F_poly + d_y^2 W_poly exactly in y;
    constants are omitted.  Returns (problem, growth, pi_poly), where growth
    (2, n) holds P = Lambda_poly e_1 + W_poly e_2, whose slope at the lid is
    the zero mode's Neumann data.  Each mode k = 1..nx/2 of the top carries
    the half-line integrals of F_k + W_k'' - 2k W_k', and W_k; the
    wall-region remainder of W is left to the discrete solve as divergence
    data.
    """
    g = stack.grid
    if beta == 0:
        return wall_problem(g, l, comp), np.zeros((2, 1)), np.zeros(1)
    c1 = comb(beta, 1)
    c2 = comb(beta, 2)
    low1 = stack.level(beta - 1, l, comp)
    low2 = stack.level(beta - 2, l, comp) if beta >= 2 else None

    F = np.zeros((2, g.nx, g.ny + 1))
    F[0] = 2 * c1 * g.dx_nodes(low1.u[0]) - c1 * low1.p_nodes
    F[1] = 2 * c1 * g.dx_nodes(low1.u[1])
    if low2 is not None:
        F += 2 * c2 * low2.u
    G = -c1 * g.xi_mean(low1.u[0])

    # G's polynomial part -C(beta,1) (V^{beta-1}_poly)_1 integrates to W_poly
    div_poly = -c1 * low1.v_poly[0]
    integrand = c1 * low1.q_poly
    pi_poly = div_poly
    if low2 is not None:
        integrand = npoly.polyadd(integrand, -2 * c2 * low2.v_poly[0])
        pi_poly = npoly.polyadd(pi_poly, npoly.polyint(2 * c2 * low2.v_poly[1]))
    growth = pad_stack([npoly.polyint(npoly.polyint(integrand)), npoly.polyint(div_poly)])

    exterior = {}
    for k in range(1, g.nx // 2 + 1):
        V1, V2, Q1 = low1.modes[k]
        Fk = [poly_add(poly_scale(2j * c1 * k, V1), poly_scale(-c1, Q1)),
              poly_scale(2j * c1 * k, V2)]
        if low2 is not None:
            Fk = [poly_add(f, poly_scale(2 * c2, v))
                  for f, v in zip(Fk, low2.modes[k])]
        w = poly_scale(-c1 / (1j * k), V1)  # W_k = w e_1
        dw = poly_derive(w)
        reduced = poly_add(Fk[0], poly_add(poly_derive(dw), poly_scale(-2.0 * k, dw)))
        exterior[k] = (*halfline_integrals((k,), [reduced, Fk[1]], knorm=float(k)), [w, []])

    problem = CellProblem(
        grid=g,
        bottom=np.zeros((2, g.nx)),
        top=TransparentTop(exterior, npoly.polyval(g.height, npoly.polyder(growth.T))),
        source=F,
        div_data=G,
    )
    return problem, growth, pi_poly


# ---------------------------------------------------------------------------
# the stack
# ---------------------------------------------------------------------------

class CorrectorStack:
    """Memoized hierarchy of level solutions over one geometry and grid."""

    def __init__(self, geometry: BoundaryGeometry, height: float = DEFAULT_HEIGHT, *,
                 nx: int, ny: int):
        self.geometry = geometry
        self.grid = StripGrid(geometry, height=height, nx=nx, ny=ny)
        self.levels: dict[tuple[int, int, int], LevelSolution] = {}

    @property
    def height(self) -> float:
        return self.grid.height

    def level(self, beta: int, l: int, comp: int) -> LevelSolution:
        """Level (beta, l, comp), solved on first use.

        Level beta reads levels beta - 1 and beta - 2, so a missing level is
        solved after each missing level below it, lowest first: no solve
        nests another, whatever beta is.
        """
        if beta < 0:
            raise InputError(f"level beta = {beta} must be >= 0")
        if (beta, l, comp) not in self.levels:
            for b in range(beta + 1):
                if (b, l, comp) not in self.levels:
                    self.levels[b, l, comp] = self._solve_level(b, l, comp)
        return self.levels[beta, l, comp]

    def _solve_level(self, beta: int, l: int, comp: int) -> LevelSolution:
        problem, growth, q_poly = level_problem(self, beta, l, comp)
        return level_solution(beta, l, comp, problem, growth, q_poly, solve_stokes(problem))


def level_solution(beta: int, l: int, comp: int, problem: CellProblem, growth: np.ndarray,
                   q_poly: np.ndarray, sol: CellSolution) -> LevelSolution:
    """Level beta from its level_problem parts and its cell solution.

    Everything but u, p and the diagnostics follows from them, so a solve
    and a stack file's (u, p) go through this one function.
    """
    g = problem.grid
    # anchor: the growth part meets the top zero mode, so V_per's zero
    # mode vanishes at the lid
    shift = sol.tail - npoly.polyval(g.height, growth.T)
    v_poly = pad_stack([npoly.polyadd(p, [s]) for p, s in zip(growth, shift)])

    if v_poly.shape[1] > beta + 1:
        raise AssertionError(f"deg V_poly {v_poly.shape[1] - 1} exceeds {beta}")
    if len(np.trim_zeros(q_poly, "b")) > max(beta, 1):
        raise AssertionError("deg Q_poly exceeds beta - 1")

    # pressure normalization: Q_per's zero mode, extrapolated to the lid
    # by the pressure closure, vanishes there
    p_lid = float(np.mean(g.pressure_at_nodes(sol.p)[:, -1]))
    p_shift = float(npoly.polyval(g.height, q_poly)) - p_lid

    modes = trace_expansion(sol, problem.top)
    if max((len(v) for m in modes.values() for v in m[:2]), default=1) > 2 * beta + 2:
        raise AssertionError("mode profile degree exceeds 2|beta| + 1")
    return LevelSolution(
        beta=beta, l=l, comp=comp,
        u=sol.u, p=sol.p, p_nodes=g.pressure_at_nodes(sol.p + p_shift),
        v_poly=v_poly, q_poly=q_poly,
        modes=modes,
        diagnostics=dict(sol.diagnostics),
    )


# ---------------------------------------------------------------------------
# assembled correctors v^alpha and S[P]
# ---------------------------------------------------------------------------

@dataclass
class CorrectorField:
    """A corrector as one flat sum: sum of coef * x^power * V^level over terms.

    v^alpha and S[P] are both of this form; v_poly_xy holds the summed
    polynomial parts, c[comp, i, j] the coefficient of x^i y^j.
    """

    terms: list  # (coefficient, x-power, LevelSolution)
    v_poly_xy: np.ndarray  # (2, deg_x+1, deg_y+1)


def assemble_alpha(stack: CorrectorStack, alpha: int, l: int, comp: int) -> CorrectorField:
    """Corrector field v^alpha = sum_beta C(alpha,beta) x^{alpha-beta} V^beta."""
    if alpha < 0 or l < 1:
        raise ValueError("need alpha >= 0 and l >= 1")
    terms, v_terms = [], []
    for beta in range(alpha + 1):
        coef, level = float(comb(alpha, beta)), stack.level(beta, l, comp)
        terms.append((coef, alpha - beta, level))
        x_power = np.eye(alpha + 1)[alpha - beta]  # x-coefficients of x^(alpha-beta)
        v_terms.append((coef, np.einsum("i,cj->cij", x_power, level.v_poly)))
    return CorrectorField(terms, padded_sum(v_terms))


def monomial_coefficients(P: VectorPolynomial) -> list[tuple[int, int, int, float]]:
    """[(alpha, l, comp (1-based), coefficient)] for a 2-D boundary polynomial.

    Raises if the trace P(x, 0) is nonzero (every term needs l >= 1).
    """
    if P.dim != 2 or len(P) != 2:
        raise ValueError("expected a 2-D velocity polynomial")
    out = []
    for comp in range(2):
        for exp, coeff in P[comp].terms.items():
            if exp[1] < 1:
                raise ValueError("boundary polynomial must vanish at y = 0")
            out.append((exp[0], exp[1], comp + 1, float(coeff)))
    return sorted(out)


def script_S(stack: CorrectorStack, P: VectorPolynomial) -> CorrectorField:
    """S[P] (linear in P): each monomial's v^alpha terms, scaled by its coefficient."""
    parts = [(coeff, assemble_alpha(stack, alpha, l, comp))
             for alpha, l, comp, coeff in monomial_coefficients(P)]
    terms = [(coeff * c, power, level) for coeff, fld in parts for c, power, level in fld.terms]
    v = padded_sum([(coeff, fld.v_poly_xy) for coeff, fld in parts], shape=(2, 1, 1))
    return CorrectorField(terms, v)


# ---------------------------------------------------------------------------
# heterogeneous basis elements
# ---------------------------------------------------------------------------

@dataclass
class HeterogeneousElement:
    """(w_P, pi_P) = (P, Q) + S[P]: a Stokes solution on the rough domain."""

    P: VectorPolynomial
    Q: ExactPolynomial
    corrector: CorrectorField
    w_poly_xy: np.ndarray   # effective polynomial part (2, nx_pow, ny_pow)


def effective_part(stack: CorrectorStack, P: VectorPolynomial,
                   shape: tuple) -> tuple[CorrectorField, np.ndarray]:
    """S[P] and the coefficients of P + S[P]'s polynomial part, at least `shape`."""
    corr = script_S(stack, P)
    return corr, padded_sum([(1.0, poly_to_coeff2d(P)), (1.0, corr.v_poly_xy)], shape=shape)


def heterogeneous_basis(stack: CorrectorStack, order: int) -> list[HeterogeneousElement]:
    """Basis of the heterogeneous space: flat-space pairs plus correctors."""
    from .halfspace import stokes_basis

    return [HeterogeneousElement(pair.velocity, pair.pressure,
                                 *effective_part(stack, pair.velocity,
                                                 (2, order + 1, order + 1)))
            for pair in stokes_basis(order, 2).elements]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _f8(arr: np.ndarray) -> dict:
    """{shape, f8}: the shape and the base64 of the little-endian float64 bytes."""
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode()}


def stack_to_json(stack: CorrectorStack) -> dict:
    """The stack file: each level's solve output; stack_from_json derives the rest."""
    return {
        "schema": 6,
        "stokesbl": __version__,
        "geometry": stack.geometry.to_json_dict(),
        "geometry_hash": stack.geometry.digest(),
        "height": stack.height,
        "nx": stack.grid.nx,
        "ny": stack.grid.ny,
        "levels": [{"beta": beta, "l": l, "comp": comp, "u": _f8(lv.u), "p": _f8(lv.p),
                    "diagnostics": lv.diagnostics}  # json writes a tuple as a list
                   for (beta, l, comp), lv in sorted(stack.levels.items())],
    }


_STACK_KEYS = ("geometry", "geometry_hash", "height", "nx", "ny", "levels")
_LEVEL_KEYS = ("beta", "l", "comp", "u", "p", "diagnostics")


def _level_array(lv: dict, key: str, shape: tuple, where: str) -> np.ndarray:
    """lv[key], a {shape, f8} object from _f8, as a float array of the given
    shape and with finite entries."""
    try:
        n, raw = lv[key]["shape"], base64.b64decode(lv[key]["f8"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise InputError(f"{where}: {key} is not a valid {{shape, f8}} array: {exc}") from exc
    if type(n) is not list or any(type(m) is not int for m in n) or tuple(n) != shape:
        raise InputError(f"{where}: {key} has shape {n!r}, expected {list(shape)}")
    if len(raw) != 8 * prod(shape):
        raise InputError(f"{where}: {key} has {len(raw)} bytes, not the {8 * prod(shape)} "
                         f"of its shape")
    arr = np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)
    if not np.isfinite(arr).all():
        raise InputError(f"{where}: {key} holds NaN or inf")
    return arr


def stack_from_json(data: dict) -> CorrectorStack:
    """Rebuild a stack written by stack_to_json, checking it on the way.

    Raises InputError when the file is not schema 6, a key is missing, the
    grid fields or a level's (beta, l, comp) are not in range ints (height a
    finite number), u or p is not a {shape, f8} object of finite numbers
    that fits the grid, the diagnostics are not an object, a level repeats,
    a level beta >= 1 lacks level beta - 1, or geometry_hash is not the
    digest of the geometry as stored.  Every level is read against the
    header before the grid is built, so a header that no level fits
    allocates nothing.
    Each level's other fields are then derived by level_solution, lowest
    beta first, exactly as after a solve; no level is solved.
    """
    if not isinstance(data, dict) or data.get("schema") != 6:
        raise InputError("stack is not schema 6: remove it and rebuild with stokesbl corrector")
    json_object(data, _STACK_KEYS, "stack")
    geometry = BoundaryGeometry.from_json_dict(data["geometry"])
    # hash the header as stored: a stack written before geometries dropped
    # zero modes holds the hash of the wall's spelling, not of the wall
    if data["geometry_hash"] != json_digest(data["geometry"]):
        raise InputError("stack geometry_hash does not match its geometry")
    # a float, so that an int header such as 10**300 meets the grid's float checks
    height = float(json_value(data, "height", "stack", (int, float), isfinite,
                              "a finite number"))
    nx, ny = (json_value(data, key, "stack", int, lambda v: v > 0, "a positive int")
              for key in ("nx", "ny"))
    stored = {}
    for index, lv in enumerate(json_value(data, "levels", "stack", list, lambda v: True,
                                          "a list")):
        where = f"stack level {index}"
        json_object(lv, _LEVEL_KEYS, where)
        json_value(lv, "diagnostics", where, dict, lambda v: True, "a JSON object")
        key = (json_value(lv, "beta", where, int, lambda v: v >= 0, "an int >= 0"),
               json_value(lv, "l", where, int, lambda v: v >= 1, "an int >= 1"),
               json_value(lv, "comp", where, int, lambda v: v in (1, 2), "1 or 2"))
        if key in stored:
            raise InputError(f"{where} repeats level {key}")
        stored[key] = (_level_array(lv, "u", (2, nx, ny + 1), where),
                       _level_array(lv, "p", (nx, ny), where), dict(lv["diagnostics"]))
    for beta, l, comp in stored:
        if beta >= 1 and (beta - 1, l, comp) not in stored:
            raise InputError(f"stack holds level {(beta, l, comp)} "
                             f"but not level {(beta - 1, l, comp)} below it")
    stack = CorrectorStack(geometry, height=height, nx=nx, ny=ny)
    for key in sorted(stored):  # the levels a level_problem reads come first
        stack.levels[key] = level_solution(*key, *level_problem(stack, *key),
                                           CellSolution(stack.grid, *stored[key]))
    return stack


def not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, n-1, ...) of the not-a-knot cubic spline through y(x).

    y holds the values at the n >= 4 knots x on its first axis; c[m, i] is
    the coefficient of (t - x[i])**(3 - m) on [x[i], x[i+1]].  The slopes
    solve the tridiagonal system of scipy's CubicSpline with the same
    banded solver, and the coefficients follow its Hermite formulas in the
    same order of operations, so the result equals CubicSpline(x, y).c bit
    for bit.
    """
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    band = np.zeros((3, n))
    b = np.empty(y.shape)
    band[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    band[0, 2:] = dx[:-1]
    band[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x[1] and x[-2]
    d = x[2] - x[0]
    band[1, 0], band[0, 1] = dx[1], d
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    band[1, -1], band[-1, -2] = dx[-2], d
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    s = solve_banded((1, 1), band, b.reshape(n, -1), overwrite_ab=True,
                     overwrite_b=True, check_finite=False).reshape(y.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


class LevelSampler:
    """V^beta, Q^beta and their first derivatives sampled on another grid.

    The evaluation grid shares the x collocation points (same nx, same
    geometry).  Below the stack lid the values come from one not-a-knot
    cubic spline in xi per level, fitted through every column of u1, u2 and
    p at once, and each column's piecewise cubic is evaluated at that
    column's own xi points.  Above the lid they are the polynomial part plus
    one sweep of mode_fields over all the above-lid nodes.
    Derivatives are formed with the evaluation grid's own discrete
    operators, so comparisons against fields solved on that grid carry
    matching discretization bias.
    """

    def __init__(self, level: LevelSolution, stack: CorrectorStack, grid: StripGrid):
        sg = stack.grid
        if grid.nx != sg.nx or grid.geometry != sg.geometry:
            raise ValueError("evaluation grid must share the stack's x collocation points "
                             "and geometry")
        fields = np.zeros((3, grid.nx, grid.ny + 1))
        columns = np.broadcast_to(np.arange(grid.nx)[:, None], grid.y_nodes.shape)
        below = grid.y_nodes <= sg.height + 1e-12

        knots = sg.xi_nodes
        c = not_a_knot_coefficients(
            knots, np.moveaxis(np.stack([level.u[0], level.u[1], level.p_nodes]), 2, 0))
        cols = columns[below]
        xi = np.clip(sg.xi_of_y(cols, grid.y_nodes[below]), 0.0, 1.0)
        piece = np.clip(np.searchsorted(knots, xi, side="right") - 1, 0, sg.ny - 1)
        s = xi - knots[piece]
        coef = c.transpose(0, 2, 3, 1)[:, :, cols, piece]  # (4, 3, points)
        # PPoly's sum order (constant term first, then rising powers of s),
        # so the values are bit-identical to calling scipy's CubicSpline
        power = s
        acc = 0.0 + coef[3]
        acc = acc + coef[2] * power
        power = power * s
        acc = acc + coef[1] * power
        power = power * s
        fields[:, below] = acc + coef[0] * power

        above = ~below
        if np.any(above):
            xa = grid.x[columns[above]]
            ya = grid.y_nodes[above]
            u1, u2, p = mode_fields(level.modes, sg.height, sg.nx // 2, xa, ya)
            fields[0, above] = npoly.polyval(ya, level.v_poly[0]) + u1
            fields[1, above] = npoly.polyval(ya, level.v_poly[1]) + u2
            fields[2, above] = npoly.polyval(ya, level.q_poly) + p
        self.values = fields[:2]
        self.pressure = fields[2]
        self.dx = np.stack([grid.dx_nodes(self.values[c]) for c in range(2)])
        self.dy = np.stack([grid.dy_nodes(self.values[c]) for c in range(2)])
