"""Half-space Stokes polynomial spaces: lift, bases, dimension counts."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings

from stokesbl.exactlinalg import sparse_rank_mod_p
from stokesbl.halfspace import (
    SpaceBasis,
    StokesPair,
    delta_D_inv,
    dim_harmonic,
    dim_homogeneous_stokes,
    dim_stokes_space,
    harmonic_basis,
    harmonic_extension,
    pressure_lift,
    stokes_basis,
    verify_stokes_pair,
    zero_pressure_basis,
)
from stokesbl.polynomials import ExactPolynomial, VectorPolynomial, monomial_exponents

from test_polynomials import (
    assert_canonical,
    dim_and_polys,
    random_poly,
    ref_add,
    ref_laplacian,
    same_terms,
    shift_y,
)


def mono(dim, *exp):
    return ExactPolynomial.monomial(exp, 1, dim)


def term_degrees(p: ExactPolynomial) -> list[int]:
    """Total degrees of p's terms, ascending."""
    return sorted({sum(e) for e in p.terms})


def test_harmonic_basis_degree_one():
    basis = harmonic_basis(1, 2)
    assert len(basis) == 2
    assert set(basis) == {mono(2, 1, 0), mono(2, 0, 1)}  # {x1, y}


def test_harmonic_basis_counts_and_harmonicity():
    for d in (2, 3, 4):
        for m in range(0, 6):
            basis = harmonic_basis(m, d)
            assert len(basis) == dim_harmonic(m, d)
            for q in basis:
                assert q.laplacian().is_zero()
                assert term_degrees(q) in ([m], [])
    assert len(harmonic_basis(2, 3)) == 5


def test_harmonic_basis_degree_two_d2():
    basis = harmonic_basis(2, 2)
    expected = [
        ExactPolynomial(2, {(2, 0): 1, (0, 2): -1}),  # x1^2 - y^2
        ExactPolynomial(2, {(1, 1): 1}),  # x1 y
    ]
    assert basis == expected


def trace_split(q: ExactPolynomial) -> tuple[ExactPolynomial, ExactPolynomial]:
    """Recover (q1, q2) with q = harmonic_extension(q1, q2); q must be harmonic."""
    if not q.laplacian().is_zero():
        raise ValueError("input is not harmonic")
    q1 = q.trace_at_zero()
    q2 = q.derive(q.dim - 1).trace_at_zero()
    if harmonic_extension(q1, q2) != q:
        raise ValueError("harmonic trace expansion failed to reconstruct input")
    return q1, q2


def test_trace_split_examples():
    d = 2
    q = mono(d, 1, 1)  # x1 y
    q1, q2 = trace_split(q)
    assert q1.is_zero() and q2 == mono(d, 1, 0)
    q = ExactPolynomial(2, {(2, 0): 1, (0, 2): -1})
    q1, q2 = trace_split(q)
    assert q1 == mono(d, 2, 0) and q2.is_zero()
    q1, q2 = trace_split(mono(d, 0, 1))  # y
    assert q1.is_zero() and q2 == ExactPolynomial.constant(1, 2)
    with pytest.raises(ValueError):
        trace_split(mono(d, 0, 2))  # y^2 is not harmonic


def test_trace_split_reconstructs_random_harmonics():
    rng = random.Random(3)
    for d in (2, 3):
        for m in range(1, 6):
            basis = harmonic_basis(m, d)
            q = ExactPolynomial.zero(d)
            for b in basis:
                q = q + b.scale(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
            q1, q2 = trace_split(q)
            assert harmonic_extension(q1, q2) == q


def test_delta_D_inv_examples():
    one = ExactPolynomial.constant(1, 2)
    assert delta_D_inv(one) == ExactPolynomial(2, {(0, 2): Fraction(1, 2)})
    assert delta_D_inv(mono(2, 2, 0)) == ExactPolynomial(
        2, {(2, 2): Fraction(1, 2), (0, 4): Fraction(-1, 12)}
    )
    assert delta_D_inv(mono(2, 1, 1)) == ExactPolynomial(2, {(1, 3): Fraction(1, 6)})


def test_delta_D_inv_contract_random():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.choice([2, 3])
        f = random_poly(rng, d, 8)
        u = delta_D_inv(f)
        assert u.laplacian() == f
        assert u.trace_at_zero().is_zero()


def test_delta_D_inv_commutation_identities():
    rng = random.Random(6)
    for _ in range(40):
        d = rng.choice([2, 3])
        f = random_poly(rng, d, 7)
        for i in range(d - 1):
            assert delta_D_inv(f).derive(i) == delta_D_inv(f.derive(i))
        # vertical: d_y Delta^-1 f = Delta^-1 d_y f + d_y Delta^-1 (f(x,0))
        y = d - 1
        lhs = delta_D_inv(f).derive(y)
        rhs = delta_D_inv(f.derive(y)) + delta_D_inv(f.trace_at_zero()).derive(y)
        assert lhs == rhs


def test_pressure_lift_listed_pairs():
    # S[2x] = (y^2, 0) and S[2y] = (-2xy, y^2)
    p = mono(2, 1, 0).scale(2)
    assert pressure_lift(p) == VectorPolynomial(
        [mono(2, 0, 2), ExactPolynomial.zero(2)]
    )
    q = mono(2, 0, 1).scale(2)
    assert pressure_lift(q) == VectorPolynomial(
        [ExactPolynomial(2, {(1, 1): -2}), mono(2, 0, 2)]
    )
    # S[x1 y] completes to an exact Stokes pair
    r = mono(2, 1, 1)
    assert verify_stokes_pair(StokesPair(pressure_lift(r), r)).ok


def test_pressure_lift_makes_stokes_pairs_any_dim():
    for d in (2, 3):
        for m in range(1, 5):
            for p in harmonic_basis(m, d):
                pair = StokesPair(pressure_lift(p), p)
                assert verify_stokes_pair(pair).ok


def test_pressure_lift_injective_on_harmonic_basis():
    rng = random.Random(9)
    for d in (2, 3):
        for m in range(1, 4):
            basis = harmonic_basis(m, d)
            coeffs = [Fraction(rng.randrange(-4, 5)) for _ in basis]
            if all(c == 0 for c in coeffs):
                coeffs[0] = Fraction(1)
            p = ExactPolynomial.zero(d)
            for c, b in zip(coeffs, basis):
                p = p + b.scale(c)
            assert not pressure_lift(p).is_zero()


def test_zero_pressure_basis_counts():
    b = zero_pressure_basis(1, 2)
    assert len(b) == 1
    assert b[0].velocity == VectorPolynomial([mono(2, 0, 1), ExactPolynomial.zero(2)])
    assert zero_pressure_basis(2, 2) == []  # trivial at d=2, m>=2 (asserted, not assumed)
    assert zero_pressure_basis(3, 2) == []
    assert len(zero_pressure_basis(2, 3)) == 3
    for pair in zero_pressure_basis(3, 3):
        assert verify_stokes_pair(pair).ok
        assert pair.velocity[2].is_zero()


def test_stokes_basis_dimensions_small():
    assert len(stokes_basis(2, 2)) == dim_stokes_space(2, 2) == 4
    assert dim_homogeneous_stokes(2, 2) == 2
    assert dim_homogeneous_stokes(1, 3) == 3
    basis = stokes_basis(3, 3)
    assert len(basis) == dim_stokes_space(3, 3)
    assert basis.certify_rank()
    for pair in basis.elements:
        assert verify_stokes_pair(pair).ok


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stokes_basis_block_layout(d):
    # grades ascend; grade j holds dim_homogeneous_stokes(j, d) elements, its
    # dim_harmonic(j - 1, d) pressure lifts ("V1") before its zero-pressure
    # block ("V2")
    for m in range(1, 6):
        basis = stokes_basis(m, d)
        assert basis.grades == sorted(basis.grades)
        for j in range(1, m + 1):
            n_lift = dim_harmonic(j - 1, d)
            n_block = dim_homogeneous_stokes(j, d)
            tags = [t for t, g in zip(basis.tags, basis.grades) if g == j]
            assert tags == ["V1"] * n_lift + ["V2"] * (n_block - n_lift)


def test_stokes_basis_reproduces_listed_degree2_pairs():
    basis = stokes_basis(2, 2)
    listed = [
        StokesPair(VectorPolynomial.zero(2, 2), ExactPolynomial.constant(1, 2)),
        StokesPair(VectorPolynomial([mono(2, 0, 1), ExactPolynomial.zero(2)]),
                   ExactPolynomial.zero(2)),
        StokesPair(VectorPolynomial([mono(2, 0, 2), ExactPolynomial.zero(2)]),
                   mono(2, 1, 0).scale(2)),
        StokesPair(VectorPolynomial([ExactPolynomial(2, {(1, 1): -2}), mono(2, 0, 2)]),
                   mono(2, 0, 1).scale(2)),
    ]
    for target in listed:
        matched = False
        for el in basis.elements:
            for scale in (1, 2, -1, -2, Fraction(1, 2), Fraction(-1, 2)):
                if (el.velocity.scale(scale) == target.velocity
                        and el.pressure.scale(scale) == target.pressure):
                    matched = True
        assert matched, f"no scalar multiple of a basis element matches {target}"


def test_verify_stokes_pair_examples():
    good = StokesPair(
        VectorPolynomial([mono(2, 0, 1), ExactPolynomial.zero(2)]),
        ExactPolynomial.zero(2),
    )
    assert verify_stokes_pair(good).ok
    good2 = StokesPair(
        VectorPolynomial([mono(2, 0, 2), ExactPolynomial.zero(2)]),
        mono(2, 1, 0).scale(2),
    )
    assert verify_stokes_pair(good2).ok
    bad = StokesPair(
        VectorPolynomial([mono(2, 0, 1), ExactPolynomial.zero(2)]),
        mono(2, 1, 0),
    )
    report = verify_stokes_pair(bad)
    assert not report.ok
    # residual of -Lap u + grad p is exactly grad(x1) = e1
    assert report.momentum == VectorPolynomial(
        [ExactPolynomial.constant(1, 2), ExactPolynomial.zero(2)]
    )


def pressure_from_velocity(u: VectorPolynomial) -> ExactPolynomial:
    """Recover the pressure of a Stokes velocity, normalized to p(0) = 0.

    Raises ValueError if u is not the velocity of any polynomial Stokes pair.
    """
    d = u.dim
    if len(u) != d:
        raise ValueError("velocity must have d components in d variables")
    g = VectorPolynomial([u[i].laplacian() for i in range(d)])
    for i in range(d):
        for j in range(i + 1, d):
            if g[i].derive(j) != g[j].derive(i):
                raise ValueError("Lap u is not a gradient: not a Stokes velocity")
    # grad p = g; p = sum over homogeneous parts of (1/(k+1)) sum_j x_j g_j^{(k)}
    p = ExactPolynomial.zero(d)
    degrees = sorted({deg for i in range(d) for deg in term_degrees(g[i])})
    for k in degrees:
        part = ExactPolynomial.zero(d)
        for j in range(d):
            g_jk = ExactPolynomial(d, {e: c for e, c in g[j].terms.items() if sum(e) == k})
            part = part + ExactPolynomial.monomial([int(i == j) for i in range(d)]) * g_jk
        p = p + part.scale(Fraction(1, k + 1))
    if VectorPolynomial([p.derive(i) for i in range(d)]) != g:
        raise ValueError("gradient reconstruction failed: not a Stokes velocity")
    report = verify_stokes_pair(StokesPair(u, p))
    if not report.ok:
        raise ValueError("no polynomial pressure completes this velocity")
    return p


def test_pressure_from_velocity():
    u = VectorPolynomial([mono(2, 0, 2), ExactPolynomial.zero(2)])
    assert pressure_from_velocity(u) == mono(2, 1, 0).scale(2)
    u = VectorPolynomial([mono(2, 0, 1), ExactPolynomial.zero(2)])
    assert pressure_from_velocity(u).is_zero()
    u = VectorPolynomial([ExactPolynomial(2, {(1, 1): -2}), mono(2, 0, 2)])
    assert pressure_from_velocity(u) == mono(2, 0, 1).scale(2)
    with pytest.raises(ValueError):
        pressure_from_velocity(VectorPolynomial([mono(2, 2, 0), ExactPolynomial.zero(2)]))


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
    """Kernel basis of the matrix (rows act on Q^ncols), one vector per free column."""
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def zero_pressure_by_elimination(m: int, d: int) -> list[StokesPair]:
    """zero_pressure_basis's oracle: the RREF kernel of the horizontal divergence.

    Columns are (component i, degree m-1 monomial) in component-then-grlex
    order; the column of x^a e_i holds a_i in the row of x^(a-e_i).
    """
    exps = monomial_exponents(d - 1, m - 1)
    row_of = {b: r for r, b in enumerate(monomial_exponents(d - 1, m - 2))}
    rows = [[Fraction(0)] * ((d - 1) * len(exps)) for _ in row_of]
    for i in range(d - 1):
        for j, a in enumerate(exps):
            if a[i]:
                rows[row_of[a[:i] + (a[i] - 1,) + a[i + 1:]]][i * len(exps) + j] = Fraction(a[i])
    zero = ExactPolynomial.zero(d)
    out = []
    for vec in nullspace(rows, (d - 1) * len(exps)):
        comps = []
        for i in range(d - 1):
            field = ExactPolynomial(d, {a + (0,): c for j, a in enumerate(exps)
                                        if (c := vec[i * len(exps) + j])})
            comps.append(harmonic_extension(zero, field))
        out.append(StokesPair(VectorPolynomial(comps + [zero]), zero))
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_zero_pressure_basis_is_the_rref_kernel(d):
    for m in range(1, 8):
        basis = zero_pressure_basis(m, d)
        assert basis == zero_pressure_by_elimination(m, d)
        for pair in basis:
            assert pair.velocity.divergence().is_zero()
            assert pair.velocity[d - 1].is_zero() and pair.pressure.is_zero()


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by exact elimination."""
    return len(rref(rows)[1]) if rows else 0


def coefficient_matrix(basis: SpaceBasis) -> list[list[Fraction]]:
    """Rows = elements, columns = every velocity/pressure monomial slot of degree <= order."""
    slots = [e for deg in range(basis.order + 1) for e in monomial_exponents(basis.dim, deg)]
    return [[poly._terms.get(exp, Fraction(0))
             for poly in (*el.velocity.components, el.pressure) for exp in slots]
            for el in basis.elements]


def certify_rank_exactly(basis: SpaceBasis) -> bool:
    """certify_rank's oracle: full rank of the dense Fraction matrix over Q."""
    rows = coefficient_matrix(basis)
    return exact_rank(rows) == len(rows)


def rank_mod_p(rows: list[list[Fraction]]) -> int:
    """Rank mod the prime of `sparse_rank_mod_p` of a matrix of Fraction rows."""
    entries = ((i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v)
    return sparse_rank_mod_p(entries, (len(rows), len(rows[0]) if rows else 0))


def test_rank_mod_p_matches_exact_rank():
    rng = random.Random(21)
    for _ in range(20):
        rows = [
            [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(6)]
            for _ in range(4)
        ]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])  # planted dependency
        assert exact_rank(rows) == rank_mod_p(rows)
    for d, m in ((2, 3), (3, 2)):
        basis = stokes_basis(m, d)
        rows = coefficient_matrix(basis)
        assert exact_rank(rows) == rank_mod_p(rows) == len(basis)


def test_certify_rank_agrees_with_exact_rank():
    for d, m in ((2, 4), (3, 3), (4, 2)):
        basis = stokes_basis(m, d)
        assert basis.certify_rank() and certify_rank_exactly(basis)


@pytest.mark.parametrize("d, m", [(2, 4), (3, 3), (4, 2)])
def test_certify_rank_rejects_dependent_elements(d, m):
    basis = stokes_basis(m, d)
    els = basis.elements
    a, b = els[1], els[-1]
    planted = StokesPair(a.velocity + b.velocity, a.pressure + b.pressure)
    for extra in (els[len(els) // 2], planted):
        dependent = SpaceBasis(els + [extra], m, d, basis.tags + ["V1"],
                               basis.grades + [m])
        assert not dependent.certify_rank()
        assert not certify_rank_exactly(dependent)


# ---------------------------------------------------------------------------
# delta_D_inv and harmonic_extension against the old copying sums
# ---------------------------------------------------------------------------

def ref_delta_D_inv(f):
    out = ExactPolynomial.zero(f.dim)
    for exp, coeff in f.terms.items():
        l = exp[-1]
        term = ExactPolynomial.monomial(exp[:-1] + (0,), coeff, f.dim)
        j = 0
        while not term.is_zero():
            power = l + 2 * j + 2
            factor = Fraction((-1) ** j * factorial(l), factorial(power))
            out = ref_add(out, shift_y(term.scale(factor), power))
            term = ref_laplacian(term, f.dim - 1)
            j += 1
    return out


def ref_harmonic_extension(q1, q2):
    out = ExactPolynomial.zero(q1.dim)
    for parity, seed in ((0, q1), (1, q2)):
        term = seed
        j = 0
        while not term.is_zero():
            power = 2 * j + parity
            out = ref_add(out, shift_y(term.scale(Fraction((-1) ** j, factorial(power))), power))
            term = ref_laplacian(term, q1.dim - 1)
            j += 1
    return out


@settings(max_examples=100, deadline=None)
@given(dim_and_polys)
def test_delta_D_inv_and_extension_match_old_sums(case):
    d, (f, g, *_) = case
    u = delta_D_inv(f)
    assert_canonical(u, d)
    assert same_terms(u, ref_delta_D_inv(f))
    h = harmonic_extension(f, g)
    assert_canonical(h, d)
    assert same_terms(h, ref_harmonic_extension(f, g))
