"""The acceptance suite: the paper's 13 criteria plus four solver checks.

Every check is written here once; `stokesbl verify` and
`tests/test_acceptance.py` both run this list.  A check has a criterion
number (None for the four checks no criterion covers), a name, a suite
(`symbolic`: criteria 01-04 and the basis residuals; `numeric`: criteria
05-13, the flat twin, the divergence residual and the mass balance) and a
function of the shared objects returning `(ok, detail)`.  The heavy objects several
criteria share are built on first use, once per run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Callable

import numpy as np

from .cell import StripGrid, solve_cell
from .geometry import BoundaryGeometry
from .halfspace import (delta_D_inv, dim_homogeneous_stokes, dim_stokes_space, stokes_basis,
                        verify_stokes_pair)
from .modes import ModeData, SqrtExt, residual_check, solve_mode
from .polynomials import ExactPolynomial, VectorPolynomial
from .recursion import (CorrectorStack, heterogeneous_basis, level_problem, padded_sum,
                        poly_to_coeff2d, script_S)
from .regularity import (KINDS, RegularityWorkspace, build_outer_solution, decay_experiments,
                         dyadic_radii, fit_exponent, pointwise_check, projected_fits)
from .walllaw import phi_table, second_order_2d, wall_law_identity_residual

COS_WALL = BoundaryGeometry.from_fourier({0: -0.5, 1: -0.25})

# gamma(x) = c0 + 2 Re sum_{k>0} c_k e^{ikx}; first entry is -(1+cos x)/2
GEOMETRIES = [
    BoundaryGeometry.from_fourier({0: -0.5, 1: -0.25}),
    BoundaryGeometry.from_fourier({0: -0.5, 1: -0.1, 2: -0.08}),
    BoundaryGeometry.from_fourier({0: -0.4, 2: -0.125}),
    BoundaryGeometry.from_fourier({0: -0.5, 1: complex(-0.08, 0.1), 3: -0.05}),
    BoundaryGeometry.from_fourier({0: -0.35, 1: complex(0.0, -0.14)}),
]


@dataclass(frozen=True)
class Check:
    number: int | None  # acceptance criterion, None for the extra checks
    name: str
    suite: str
    description: str
    run: Callable[["Shared"], tuple[bool, str]]

    def line(self, ok: bool, detail: str) -> str:
        head = f"CHECK {self.name}" if self.number is None else f"ACCEPTANCE {self.number:02d}"
        tail = f" [{detail}]" if detail else ""
        return f"{head} {'PASS' if ok else 'FAIL'} - {self.description}{tail}"


CHECKS: list[Check] = []


def check(number: int | None, name: str, suite: str, description: str):
    """Register the decorated function as a check, in definition order."""
    def register(fn):
        CHECKS.append(Check(number, name, suite, description, fn))
        return fn
    return register


class Shared:
    """The heavy objects several checks use, each built on first use."""

    def __init__(self):
        self._ladders: dict[BoundaryGeometry, tuple] = {}

    def ladder(self, geometry: BoundaryGeometry) -> tuple[list[float], float, float]:
        """(slip lengths, observed order, Richardson error bar) of the
        first-order cell on the 12x16, 24x32, 48x64 ladder, solved once per
        geometry; a ladder whose last two grids agree exactly reads order 2."""
        if geometry not in self._ladders:
            lams = [solve_cell(geometry, l=1, comp=1, nx=nx, ny=ny).tail[0]
                    for nx, ny in ((12, 16), (24, 32), (48, 64))]
            e1, e2 = abs(lams[1] - lams[0]), abs(lams[2] - lams[1])
            order = np.log2(e1 / e2) if e2 > 0 else 2.0
            self._ladders[geometry] = lams, order, e2 / max(2 ** order - 1.0, 1.0)
        return self._ladders[geometry]

    @cached_property
    def stack(self) -> CorrectorStack:
        """The cosine-wall stack the criteria share; each level is solved on first use."""
        return CorrectorStack(COS_WALL, nx=24, ny=32)

    @cached_property
    def growth_ws(self) -> RegularityWorkspace:
        """Order-3 workspace on the height-40 growth strip, for every order's fits."""
        grid = StripGrid(COS_WALL, height=40.0, nx=24, ny=220, stretch=4.0)
        return RegularityWorkspace(self.stack, 3, grid)

    @cached_property
    def tall_ws(self) -> RegularityWorkspace:
        """Order-3 workspace on the R = 64 pi strip: the outer data's lift and fits."""
        grid = StripGrid(COS_WALL, height=64 * np.pi, nx=24, ny=340, stretch=5.5)
        return RegularityWorkspace(self.stack, 3, grid)

    @cached_property
    def decay_runs(self) -> dict:
        """Per outer datum its solution and excess-decay report for orders 1
        and 2 (one pass per order)."""
        solutions = [build_outer_solution(self.tall_ws, kind, seed=0) for kind in KINDS]
        reports = {m: decay_experiments(self.tall_ws, solutions, m) for m in (1, 2)}
        return {kind: {"solution": solution, "reports": {m: reports[m][t] for m in (1, 2)}}
                for t, (kind, solution) in enumerate(zip(KINDS, solutions))}


def run(suite: str) -> int:
    """Run the checks of suite ("symbolic", "numeric" or "all") in list
    order, printing one line each; returns the number that failed.

    A solve that misses its residual bound raises `SolverError` out of
    here, as in every other command.
    """
    shared = Shared()
    failed = 0
    for chk in CHECKS:
        if suite in ("all", chk.suite):
            ok, detail = chk.run(shared)
            print(chk.line(ok, detail))
            failed += not ok
    return failed


# ---------------------------------------------------------------------------
# helpers that implement a paper check
# ---------------------------------------------------------------------------

def script_S_via_trace_formula(stack: CorrectorStack, P: VectorPolynomial,
                               order: int) -> np.ndarray:
    """v_P_poly by the intrinsic formula sum (1/beta! k!) V^{beta,k} d^beta d^k P(x,0).

    Independent assembly route used as a cross-check of script_S.
    """
    blocks = []
    for beta in range(order):
        for k in range(1, order - beta + 1):
            for i in range(2):
                dP = P[i]
                for _ in range(beta):
                    dP = dP.derive(0)
                for _ in range(k):
                    dP = dP.derive(1)
                tr = dP.trace_at_zero()
                if tr.is_zero():
                    continue
                xcoef = poly_to_coeff2d(tr)[:, 0]
                level = stack.level(beta, k, i + 1)
                scale = 1.0 / (factorial(beta) * factorial(k))
                blocks.append((1.0, scale * np.einsum("i,cj->cij", xcoef, level.v_poly)))
    return padded_sum(blocks, shape=(2, order + 1, order + 1))


def growth_experiment(workspace: RegularityWorkspace, order: int, probe: int,
                      radii: list[float]) -> float:
    """Excess growth exponent of a degree-(order+1) column against the order-m basis.

    The workspace's order is above m, and probe indexes one of its columns.
    """
    u_grad = workspace.series["grad"][:, probe]
    H = [workspace.excess([u_grad], r, order)[0]["H"] for r in radii]
    return fit_exponent(radii, H, drop=0)["exponent"]


def liouville_fit(workspace: RegularityWorkspace, u_grad, radii: list[float],
                  tol: float, order: int) -> dict:
    """Coefficients of a subpolynomial-growth solution in the order-m basis span.

    Fits the gradient series u_grad on every window and checks the residuals
    stay below tol relative to the windowed gradient norm; otherwise flags
    non-membership.
    """
    results = [workspace.excess([u_grad], r, order)[0] for r in radii]
    norms = [workspace.grad_norms([u_grad], r)[0] for r in radii]
    return {
        "member": all(res["H"] / max(norm, 1e-300) <= tol for res, norm in zip(results, norms)),
        "coefficients": results[-1]["coefficients"],
    }


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

@check(1, "dimension_formulas", "symbolic",
       "dimension formulas and exact rank, d in {2,3,4}, m <= 6")
def dimension_formulas(shared: Shared):
    ok = True
    detail = []
    for d in (2, 3, 4):
        for m in range(1, 7):
            basis = stokes_basis(m, d)
            ok &= basis.grades.count(m) == dim_homogeneous_stokes(m, d)
            ok &= len(basis) == dim_stokes_space(m, d)
            ok &= basis.certify_rank()
        detail.append(f"d={d}: dim S_6={dim_stokes_space(6, d)}")
    return ok, "; ".join(detail)


@check(2, "listed_basis_reproduction", "symbolic",
       "degree-2 basis matches the four listed pairs up to scalars")
def listed_basis_reproduction(shared: Shared):
    basis = stokes_basis(2, 2)
    listed = [
        (VectorPolynomial.zero(2, 2), ExactPolynomial.constant(1, 2)),
        (VectorPolynomial.unit_monomial((0, 1), 0, 2), ExactPolynomial.zero(2)),
        (VectorPolynomial.unit_monomial((0, 2), 0, 2),
         ExactPolynomial.monomial((1, 0), 2)),
        (VectorPolynomial([ExactPolynomial(2, {(1, 1): -2}),
                           ExactPolynomial.monomial((0, 2))]),
         ExactPolynomial.monomial((0, 1), 2)),
    ]
    scalars = [Fraction(n, d) for n in (-4, -2, -1, 1, 2, 4) for d in (1, 2, 4)]
    ok = len(basis) == 4
    for vel, press in listed:
        ok &= any(
            el.velocity.scale(s) == vel and el.pressure.scale(s) == press
            for el in basis.elements for s in scalars
        )
    return ok, ""


@check(3, "mode_residual_oracle", "symbolic",
       "mode residuals identically zero on 200 random exact cases")
def mode_residual_oracle(shared: Shared):
    rng = random.Random(2024)
    count = 0
    ok = True
    while count < 200:
        d = rng.choice([2, 3])
        k = tuple(rng.randint(-8, 8) for _ in range(d - 1))
        if all(v == 0 for v in k):
            continue
        deg = rng.randrange(0, 7)
        F = [[SqrtExt.of(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                         Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
              for _ in range(deg + 1)] for _ in range(d)]
        b = [SqrtExt.of(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                        Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
             for _ in range(d)]
        data = ModeData(k, F, b)
        res = residual_check(k, F, solve_mode(data), b)
        ok &= res.ok
        count += 1
    return ok, "momentum, divergence and trace all exact"


@check(4, "dirichlet_inverse_contract", "symbolic",
       "Dirichlet inverse Laplacian contract on 500 random polynomials")
def dirichlet_inverse_contract(shared: Shared):
    rng = random.Random(99)
    ok = True
    for _ in range(500):
        d = rng.choice([2, 3])
        terms = {}
        for _ in range(6):
            exp = [0] * d
            for _ in range(rng.randrange(9)):
                exp[rng.randrange(d)] += 1
            terms[tuple(exp)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        f = ExactPolynomial(d, terms)
        u = delta_D_inv(f)
        ok &= u.laplacian() == f
        ok &= u.trace_at_zero().is_zero()
        for i in range(d - 1):
            ok &= u.derive(i) == delta_D_inv(f.derive(i))
        y = d - 1
        ok &= u.derive(y) == (
            delta_D_inv(f.derive(y)) + delta_D_inv(f.trace_at_zero()).derive(y)
        )
    return ok, ""


@check(5, "flat_boundary_annihilation", "numeric",
       "flat wall: cells, tails, correctors and Phi vanish (m <= 3)")
def flat_boundary_annihilation(shared: Shared):
    flat = CorrectorStack(BoundaryGeometry.flat(), nx=16, ny=20)
    worst = 0.0
    for l in (1, 2, 3):
        for comp in (1, 2):
            for beta in range(4 - l):
                lv = flat.level(beta, l, comp)
                worst = max(worst, float(np.abs(lv.u).max()),
                            float(np.abs(lv.v_poly).max()),
                            float(np.abs(lv.q_poly).max()))
    table = phi_table(flat, 3)
    worst = max(worst, max(float(np.abs(m).max()) for m in table.phi.values()))
    return worst <= 1e-10, f"max magnitude {worst:.2e}"


@check(6, "slip_length_sign", "numeric",
       "slip length positive with converged error bar on 5 geometries")
def slip_length_sign(shared: Shared):
    ok = True
    details = []
    for geo in GEOMETRIES:
        lams, _, err_bar = shared.ladder(geo)
        ok &= lams[2] - 3 * err_bar > 0
        details.append(f"{lams[2]:.4f}+-{err_bar:.1e}")
    return ok, ", ".join(details)


@check(7, "grid_convergence_order", "numeric", "observed tail convergence order >= 1.5")
def grid_convergence_order(shared: Shared):
    order = shared.ladder(COS_WALL)[1]
    return order >= 1.5, f"order {order:.2f}"


@check(8, "wall_law_identity_and_pattern", "numeric",
       "wall-law identity <= 1e-6 and closed-form coefficient pattern")
def wall_law_identity_and_pattern(shared: Shared):
    stack = shared.stack
    table = phi_table(stack, 2)
    residuals = [wall_law_identity_residual(table, el)
                 for el in heterogeneous_basis(stack, 2)]
    ok = max(residuals) <= 1e-6
    rep = second_order_2d(table)
    lam = stack.level(0, 1, 1).const[0]
    c_yy = stack.level(0, 2, 1).const[0] / 2.0
    c_xy = -0.5 * (-2.0 * stack.level(1, 1, 1).const + stack.level(0, 2, 2).const)
    ok &= abs(rep["lambda"] - lam) <= 1e-10 * max(1.0, abs(lam))
    ok &= abs(rep["c_yy"] - c_yy) <= 1e-8 * max(1.0, abs(c_yy))
    ok &= np.allclose(rep["c_xy_vector"], c_xy, rtol=1e-8, atol=1e-10)
    return ok, f"max residual {max(residuals):.2e}"


@check(9, "route_equivalence", "numeric",
       "monomial and intrinsic-formula assembly agree (|alpha|+l <= 3)")
def route_equivalence(shared: Shared):
    worst = 0.0
    for alpha in range(0, 3):
        for l in range(1, 4 - alpha):
            for comp in (1, 2):
                P = VectorPolynomial.unit_monomial((alpha, l), comp - 1, 2)
                direct = script_S(shared.stack, P)
                formula = script_S_via_trace_formula(shared.stack, P, alpha + l)
                gap = padded_sum([(1.0, direct.v_poly_xy), (-1.0, formula)])
                worst = max(worst, float(np.abs(gap).max()))
    return worst <= 1e-10, f"max coefficient gap {worst:.2e}"


@check(10, "excess_growth", "numeric",
       "excess growth exponent m +- 0.3 for degree-(m+1) probes")
def excess_growth(shared: Shared):
    ok = True
    details = []
    radii = dyadic_radii(2.0, 32.0)
    ws = shared.growth_ws
    for m in (1, 2):
        exponent = growth_experiment(ws, m, ws.degrees.index(m + 1), radii)
        ok &= abs(exponent - m) <= 0.3
        details.append(f"m={m}: {exponent:.2f}")
    return ok, ", ".join(details)


@check(11, "excess_decay", "numeric", "excess decay exponent >= m - 0.3 on R = 64pi strips")
def excess_decay(shared: Shared):
    runs = shared.decay_runs
    ok = True
    details = []
    for kind, entry in runs.items():
        for m in (1, 2):
            rep = entry["reports"][m]
            ok &= rep["fitted_exponent"] >= m - 0.3
            tag = "inf" if rep["floored"] else f"{rep['fitted_exponent']:.2f}"
            details.append(f"{kind}/m={m}: {tag}")
    return ok, ", ".join(details)


@check(12, "pointwise_envelope", "numeric",
       "pointwise error dominated by the two-term envelope (>= 99%)")
def pointwise_envelope(shared: Shared):
    runs = shared.decay_runs
    ok = True
    details = []
    for kind, m in (("quadratic", 1), ("random", 2)):
        solution = runs[kind]["solution"]
        coeffs = projected_fits(shared.tall_ws, [solution.series["grad"]], m, m + 1)[0]
        out = pointwise_check(shared.tall_ws, solution, coeffs, order=m)
        ok &= out["fraction_dominated"] >= 0.99
        ok &= out["crossover_ok"]
        details.append(f"{kind}/m={m}: {100 * out['fraction_dominated']:.1f}%")
    return ok, ", ".join(details)


@check(13, "liouville_fit", "numeric", "Liouville fit: exact recovery and flagged contamination")
def liouville_recovery(shared: Shared):
    ws = shared.growth_ws
    radii = [4.0, 8.0, 16.0, 32.0]
    fit = liouville_fit(ws, ws.series["grad"][:, 1], radii, tol=1e-8, order=2)
    expect = np.zeros(ws.prefixes[2][0])
    expect[1] = 1.0
    error = np.abs(fit["coefficients"] - expect).max()
    ok = fit["member"] and error <= 1e-8
    probe = ws.degrees.index(3)
    contaminated = ws.series["grad"][:, 1] + 1e-2 * ws.series["grad"][:, probe]
    ok &= not liouville_fit(ws, contaminated, radii, tol=1e-5, order=2)["member"]
    return ok, f"max coefficient error {error:.1e}"


# ---------------------------------------------------------------------------
# checks no criterion covers
# ---------------------------------------------------------------------------

@check(None, "basis_residuals", "symbolic",
       "exact Stokes residuals of every basis pair, d in {2,3}, m <= 4")
def basis_residuals(shared: Shared):
    pairs = [pair for d in (2, 3) for m in (1, 2, 3, 4) for pair in stokes_basis(m, d).elements]
    ok = all(verify_stokes_pair(pair).ok for pair in pairs)
    return ok, f"{len(pairs)} pairs"


def flat_wall_phi(h: float) -> dict:
    """The order-3 wall-law table of the flat wall gamma = -h in closed form:
    (alpha, l) -> {(row, col, x_power): value}; every other coefficient is 0.

    No-slip at y = -h, Taylor-expanded about y = 0, is the table:
    w(0) = sum_l (-1)^(l+1) h^l / l! d_y^l w(0) for each component; the vertical
    h d_y w_2 is carried, through d_y w_2 = -d_x w_1, by the x^0 terms -h^2 and
    h^3 / 2 of Phi^{1,1} and Phi^{1,2}.  The x-dependent entries of Phi^{1,1} and
    Phi^{2,1} combine to zero on every divergence-free cubic that vanishes at
    y = -h.  Second-order differences are exact on cubics, so the solver meets
    orders <= 3 to rounding.
    """
    return {
        (0, 1): {(0, 0, 0): h},
        (0, 2): {(0, 0, 0): -h ** 2 / 2, (1, 1, 0): -h ** 2 / 2},
        (0, 3): {(0, 0, 0): h ** 3 / 6, (1, 1, 0): h ** 3 / 6},
        (1, 1): {(1, 0, 0): -h ** 2, (1, 1, 1): h},
        (1, 2): {(1, 0, 0): h ** 3 / 2},
        (2, 1): {(1, 0, 1): h ** 2, (1, 1, 2): -h / 2},
    }


def flat_twin_gap(table, h: float) -> float:
    """Largest gap between an order-3 table of the flat wall gamma = -h and
    flat_wall_phi(h), relative to the closed form's largest entry."""
    closed_form = flat_wall_phi(h)
    gap = 0.0
    for key, entries in closed_form.items():
        want = np.zeros_like(table.phi[key])
        for index, value in entries.items():
            want[index] = value
        gap = max(gap, float(np.abs(table.phi[key] - want).max()))
    return gap / max(abs(v) for entries in closed_form.values() for v in entries.values())


@check(None, "flat_twin", "numeric",
       "flat walls at depth 1/4 and 1/2: order-3 table is the no-slip Taylor expansion")
def flat_twin(shared: Shared):
    gaps = [flat_twin_gap(phi_table(CorrectorStack(BoundaryGeometry.flat(h), nx=16, ny=20), 3), h)
            for h in (0.25, 0.5)]
    return max(gaps) <= 1e-10, f"gap {gaps[0]:.1e}, {gaps[1]:.1e} of the largest entry"


@check(None, "divergence_residual", "numeric",
       "divergence residual at solver precision (< 1e-9) on the cosine wall")
def divergence_residual(shared: Shared):
    rough = solve_cell(COS_WALL, l=1, comp=1, nx=24, ny=32)
    residual = rough.diagnostics["divergence_residual"]
    return residual < 1e-9, f"residual {residual:.1e}"


def flux_law_gap(stack: CorrectorStack, beta: int, l: int, comp: int) -> float:
    """Gap in the discrete flux law of level (beta, l, comp), relative to its largest |u|.

    The x-mean of the continuity rows telescopes on an unstretched grid:
    lid mean u2 - wall mean (u2 - gamma' u1) = sum vol (G - mu) / 2 pi, with G
    the level's divergence data (none at beta = 0) and mu its multiplier.
    """
    g = stack.grid
    level = stack.level(beta, l, comp)
    G = level_problem(stack, beta, l, comp)[0].div_data
    u1, u2 = level.u
    flux = np.mean(u2[:, -1]) - np.mean(u2[:, 0] - g.dgam * u1[:, 0])
    source = np.sum(g.mid_volumes() * ((0.0 if G is None else G)
                                       - level.diagnostics["multiplier"])) / (2 * np.pi)
    return float(abs(flux - source) / np.abs(level.u).max())


@check(None, "mass_balance", "numeric",
       "discrete flux law (<= 1e-12) on every cosine-wall level with beta + l <= 4")
def mass_balance(shared: Shared):
    gap = max(flux_law_gap(shared.stack, beta, l, comp)
              for l in range(1, 5) for beta in range(5 - l) for comp in (1, 2))
    return gap <= 1e-12, f"largest gap {gap:.1e}"
