"""Polynomial solutions of the Stokes system in the flat half space.

Everything here is exact.  The building blocks are:

* the odd/even harmonic extension of boundary polynomials, which parametrizes
  harmonic polynomials by their trace and normal-derivative trace;
* the Dirichlet inverse Laplacian ``delta_D_inv`` acting termwise on
  monomials;
* the pressure lift ``pressure_lift`` producing the velocity S[p] so that
  (S[p], p) solves the no-slip Stokes system;
* the degree-graded basis of the Stokes pair space up to a given degree,
  each degree a pressure-lift block followed by a zero-pressure block.

Dimension claims are certified by exact rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .exactlinalg import sparse_rank_mod_p
from .polynomials import (
    ExactPolynomial,
    VectorPolynomial,
    add_terms,
    monomial_exponents,
)


# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------

def dim_homogeneous_poly(m: int, nvars: int) -> int:
    """dim of homogeneous polynomials of degree m in nvars variables."""
    if m < 0:
        return 0
    return comb(m + nvars - 1, nvars - 1)


def dim_harmonic(m: int, d: int) -> int:
    """dim of homogeneous harmonic polynomials of degree m in d variables."""
    return dim_homogeneous_poly(m, d) - dim_homogeneous_poly(m - 2, d)


def dim_homogeneous_stokes(m: int, d: int) -> int:
    """dim of the homogeneous degree-m Stokes pair space: d*C(m+d-3, d-2)."""
    if m < 1:
        return 0
    return d * comb(m + d - 3, d - 2)


def dim_stokes_space(m: int, d: int) -> int:
    """dim of the Stokes pair space up to degree m: d*C(m+d-2, d-1)."""
    if m < 1:
        return 0
    return d * comb(m + d - 2, d - 1)


def dim_zero_pressure(m: int, d: int) -> int:
    """dim of the zero-pressure block of degree m."""
    if m < 1:
        return 0
    return (d - 1) * dim_homogeneous_poly(m - 1, d - 1) - dim_homogeneous_poly(m - 2, d - 1)


# ---------------------------------------------------------------------------
# harmonic extension machinery
# ---------------------------------------------------------------------------

def _x_poly(exp_x: tuple[int, ...], dim: int, coeff=1) -> ExactPolynomial:
    """Monomial in the horizontal variables only, embedded in dimension dim."""
    return ExactPolynomial.monomial(exp_x + (0,), coeff, dim)


def _laplacian_series(out: dict, q: ExactPolynomial, power: int, scale: int) -> None:
    """Add sum_j (-1)^j scale/(power+2j)! (Lap'^j q) y^{power+2j} into the term map out.

    The series terminates because the horizontal Laplacian is nilpotent.
    """
    j = 0
    while not q.is_zero():
        factor = Fraction((-1) ** j * scale, factorial(power + 2 * j))
        add_terms(out, ((e[:-1] + (e[-1] + power + 2 * j,), factor * c)
                        for e, c in q._terms.items()))
        q = q.horizontal_laplacian()
        j += 1


def harmonic_extension(q1: ExactPolynomial, q2: ExactPolynomial) -> ExactPolynomial:
    """Harmonic polynomial with trace q1 and normal-derivative trace q2.

    q(x,y) = sum_j (-1)^j/(2j)! (Lap'^j q1) y^{2j}
           + sum_j (-1)^j/(2j+1)! (Lap'^j q2) y^{2j+1}.
    """
    if q1.dim != q2.dim:
        raise ValueError("dimension mismatch")
    out: dict = {}
    for parity, seed in ((0, q1), (1, q2)):
        _laplacian_series(out, seed, parity, 1)
    return ExactPolynomial._trusted(q1.dim, out)


def harmonic_basis(m: int, d: int) -> list[ExactPolynomial]:
    """Basis of homogeneous harmonic polynomials of degree m in d variables.

    One element per horizontal monomial of degree m (even extension) and per
    horizontal monomial of degree m-1 (odd extension), in graded-lex order.
    """
    if m < 0 or d < 2:
        raise ValueError("need m >= 0 and d >= 2")
    zero_x = ExactPolynomial.zero(d)
    basis = []
    for exp in monomial_exponents(d - 1, m):
        basis.append(harmonic_extension(_x_poly(exp, d), zero_x))
    for exp in monomial_exponents(d - 1, m - 1):
        basis.append(harmonic_extension(zero_x, _x_poly(exp, d)))
    assert len(basis) == dim_harmonic(m, d)
    return basis


# ---------------------------------------------------------------------------
# Dirichlet inverse Laplacian and the pressure lift
# ---------------------------------------------------------------------------

def delta_D_inv(f: ExactPolynomial) -> ExactPolynomial:
    """u with Lap u = f and u(x, 0) = 0, termwise on monomials.

    For a single monomial x^a y^l:
        sum_j (-1)^j l! / (l+2j+2)! (Lap'^j x^a) y^{l+2j+2}.
    """
    out: dict = {}
    for exp, coeff in f._terms.items():
        l = exp[-1]
        term = ExactPolynomial._trusted(f.dim, {exp[:-1] + (0,): coeff})
        _laplacian_series(out, term, l + 2, factorial(l))
    return ExactPolynomial._trusted(f.dim, out)


def pressure_lift(p: ExactPolynomial) -> VectorPolynomial:
    """Velocity S[p] so that (S[p], p) is a no-slip Stokes pair.

    S[p] = Delta_D^{-1} grad p plus the odd extension of
    c(x) = -int_0^{x_1} d_y p(z, x_2, ..., 0) dz in the first component.
    Precondition, not checked: p is harmonic.  For any other p the result
    is not a Stokes pair.
    """
    d = p.dim
    u_comps = [delta_D_inv(p.derive(axis)) for axis in range(d)]
    g = p.derive(d - 1).trace_at_zero()
    c = -g.antiderive(0)
    v1 = harmonic_extension(ExactPolynomial.zero(d), c)
    u_comps[0] = u_comps[0] + v1
    return VectorPolynomial(u_comps)


# ---------------------------------------------------------------------------
# Stokes pairs and bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesPair:
    """A polynomial velocity/pressure pair."""

    velocity: VectorPolynomial
    pressure: ExactPolynomial

    @property
    def dim(self) -> int:
        return self.pressure.dim


@dataclass
class StokesResidualReport:
    """Exact residuals of the three half-space Stokes identities."""

    momentum: VectorPolynomial
    divergence: ExactPolynomial
    trace: VectorPolynomial

    @property
    def ok(self) -> bool:
        return (
            self.momentum.is_zero()
            and self.divergence.is_zero()
            and self.trace.is_zero()
        )


def verify_stokes_pair(pair: StokesPair) -> StokesResidualReport:
    """Exact check of -Lap u + grad p = 0, div u = 0, u(x,0) = 0."""
    u, p = pair.velocity, pair.pressure
    momentum = VectorPolynomial(
        [-(u[i].laplacian()) + p.derive(i) for i in range(p.dim)]
    )
    return StokesResidualReport(momentum, u.divergence(), u.trace_at_zero())


def zero_pressure_basis(m: int, d: int) -> list[StokesPair]:
    """Basis of the degree-m zero-pressure block.

    Elements are odd harmonic extensions of divergence-free horizontal
    polynomial fields of degree m-1, with vanishing last component.  The
    fields are the kernel of the horizontal divergence, in closed form.
    Write a for a multi-index of degree m-1 and e_i (1-based) for the
    horizontal unit vectors.  The divergence sends x^a e_i to a_i x^(a-e_i),
    one monomial, so each constraint row x^b (b of degree m-2) has exactly
    one component-1 column, x^(b+e_1) e_1, and no two rows share it.  With
    the columns ordered by component, then graded-lex, the reduced row
    echelon form therefore pivots on x^a e_1 for every a with a_1 >= 1, and
    its free columns give the kernel basis in this order: x^a e_1 with
    a_1 = 0; then, for i >= 2 and each a, x^a e_i - a_i/(a_1+1) x^(a-e_i+e_1) e_1.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if d < 2:  # no horizontal variable, no field
        return []
    zero_x = ExactPolynomial.zero(d)
    out = []
    for i in range(d - 1):
        for a in monomial_exponents(d - 1, m - 1):
            if i == 0 and a[0]:
                continue  # a pivot column
            fields = [zero_x] * (d - 1)
            fields[i] = _x_poly(a, d)
            if i and a[i]:
                pivot = (a[0] + 1,) + a[1:i] + (a[i] - 1,) + a[i + 1:]
                fields[0] = _x_poly(pivot, d, Fraction(-a[i], a[0] + 1))
            comps = [harmonic_extension(zero_x, f) for f in fields]
            comps.append(ExactPolynomial.zero(d))
            out.append(StokesPair(VectorPolynomial(comps), ExactPolynomial.zero(d)))
    assert len(out) == dim_zero_pressure(m, d)
    return out


@dataclass
class SpaceBasis:
    """Basis of the Stokes pair space up to order m, with block tags.

    grades[i] is the homogeneous degree of element i and ascends; tags[i] is
    "V1" (pressure-lift block) or "V2" (zero-pressure block), and within a
    degree the V1 elements come first.
    """

    elements: list[StokesPair]
    order: int
    dim: int
    tags: list[str] = field(default_factory=list)
    grades: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.elements)

    def certify_rank(self) -> bool:
        """True iff the elements are linearly independent over Q.

        Full rank mod p certifies full rank over Q.  The columns are the
        monomial slots (exponents of degree <= order, graded-lex) of every
        velocity component and of the pressure, and the mod-p matrix is
        filled straight from the term maps.
        """
        slots = [e for deg in range(self.order + 1) for e in monomial_exponents(self.dim, deg)]
        index = {exp: j for j, exp in enumerate(slots)}
        entries = (
            (i, comp * len(slots) + index[exp], c)
            for i, el in enumerate(self.elements)
            for comp, poly in enumerate((*el.velocity.components, el.pressure))
            for exp, c in poly._terms.items() if exp in index
        )
        shape = (len(self.elements), (self.dim + 1) * len(slots))
        return sparse_rank_mod_p(entries, shape) == len(self.elements)


def stokes_basis(m: int, d: int) -> SpaceBasis:
    """Degree-graded basis of the Stokes pair space up to order m.

    Degree j holds the pressure lifts (S[p], p) of the degree j-1 harmonic
    basis ("V1"), then the zero-pressure block of degree j ("V2"):
    dim_homogeneous_stokes(j, d) elements in all.
    """
    if m < 1 or d < 2:
        raise ValueError("need m >= 1 and d >= 2")
    elements: list[StokesPair] = []
    tags: list[str] = []
    grades: list[int] = []
    for j in range(1, m + 1):
        lifts = [StokesPair(pressure_lift(p), p) for p in harmonic_basis(j - 1, d)]
        block = lifts + zero_pressure_basis(j, d)
        if len(block) != dim_homogeneous_stokes(j, d):
            raise AssertionError(f"degree-{j} block has {len(block)} elements, "
                                 f"expected {dim_homogeneous_stokes(j, d)}")
        elements.extend(block)
        tags.extend(["V1"] * len(lifts) + ["V2"] * (len(block) - len(lifts)))
        grades.extend([j] * len(block))
    basis = SpaceBasis(elements, m, d, tags, grades)
    expected = dim_stokes_space(m, d)
    if len(basis) != expected:
        raise AssertionError(f"basis size {len(basis)} != {expected}")
    return basis

