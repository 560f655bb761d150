"""Closed-form Stokes solutions for one Fourier mode in a half cylinder.

A right-hand side F(x,y) = P(y-L) e^{-|k|(y-L)} e^{ik.x} together with a trace
at y = L determines the decaying Stokes solution above L in closed form: two
half-line integrals produce polynomial profiles (Qbar, Vbar), a scalar c_k
closes the system, and the resulting profiles satisfy exact residual
identities under the mode-wise operators

    Lap -> d_z^2 - 2|k| d_z,      grad -> [ik, -|k|]^T (.) + e_d d_z.

The machinery is generic over the coefficient scalars: `SqrtExt` (complex
rationals extended by sqrt(k.k), so identities hold exactly in any dimension)
or plain Python complex for the floating pipeline.  A `SqrtExt` keeps four
Python-int numerators over one positive common denominator in lowest terms,
so its arithmetic is integer arithmetic plus one gcd per result, and equal
values have equal representations.  The same code path also yields the
Dirichlet-to-Neumann matrices used as transparent top boundary conditions
by the cell solver.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt

import numpy as np


# ---------------------------------------------------------------------------
# exact scalars: (a) + (b) sqrt(n) with Gaussian-rational a, b
# ---------------------------------------------------------------------------

class SqrtExt:
    """Exact complex scalar (ar + i*ai) + (br + i*bi) * sqrt(n).

    Stored as four integer numerators over one positive common denominator,
    reduced so that gcd(ar, ai, br, bi, den) == 1.  Perfect-square radicands
    (0 included) fold into the rational part, and n is 0 exactly when
    br = bi = 0, so each value has one representation and equality compares
    the stored integers.  For d = 2 the arithmetic collapses to Gaussian
    rationals automatically.  The parts read back as Fractions.
    """

    __slots__ = ("_ar", "_ai", "_br", "_bi", "_den", "n")

    def __new__(cls, ar=0, ai=0, br=0, bi=0, n=0):
        parts = [Fraction(v) for v in (ar, ai, br, bi)]
        n = int(n)
        if n < 0:
            raise ValueError("radicand must be >= 0")
        den = lcm(*(p.denominator for p in parts))
        ar, ai, br, bi = (p.numerator * (den // p.denominator) for p in parts)
        r = isqrt(n)
        if r * r == n:  # perfect squares, 0 included, fold into the rational part
            ar, ai = ar + br * r, ai + bi * r
            br = bi = n = 0
        return _reduced(ar, ai, br, bi, den, n)

    # -- parts -------------------------------------------------------------

    @property
    def ar(self) -> Fraction:
        return Fraction(self._ar, self._den)

    @property
    def ai(self) -> Fraction:
        return Fraction(self._ai, self._den)

    @property
    def br(self) -> Fraction:
        return Fraction(self._br, self._den)

    @property
    def bi(self) -> Fraction:
        return Fraction(self._bi, self._den)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, SqrtExt):
            return value
        if isinstance(value, int):
            return _new(int(value), 0, 0, 0, 1, 0)
        if isinstance(value, Fraction):
            return _new(value.numerator, 0, 0, 0, value.denominator, 0)
        return None

    @classmethod
    def of(cls, re, im=0) -> "SqrtExt":
        return cls(re, im)

    @classmethod
    def sqrt_of(cls, n: int) -> "SqrtExt":
        return cls(0, 0, 1, 0, n)

    def _common_n(self, other: "SqrtExt") -> int:
        if self.n and other.n and self.n != other.n:
            raise ValueError(f"incompatible radicands {self.n} and {other.n}")
        return self.n or other.n

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self._common_n(o)
        d1, d2 = self._den, o._den
        if d1 == d2:
            return _reduced(self._ar + o._ar, self._ai + o._ai,
                            self._br + o._br, self._bi + o._bi, d1, n)
        return _reduced(self._ar * d2 + o._ar * d1, self._ai * d2 + o._ai * d1,
                        self._br * d2 + o._br * d1, self._bi * d2 + o._bi * d1,
                        d1 * d2, n)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._ar, -self._ai, -self._br, -self._bi, self._den, self.n)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self._common_n(o)
        a1r, a1i, b1r, b1i = self._ar, self._ai, self._br, self._bi
        a2r, a2i, b2r, b2i = o._ar, o._ai, o._br, o._bi
        # (a1 + b1 r)(a2 + b2 r) = (a1 a2 + n b1 b2) + (a1 b2 + b1 a2) r
        rr = a1r * a2r - a1i * a2i
        ri = a1r * a2i + a1i * a2r
        if n:
            rr += n * (b1r * b2r - b1i * b2i)
            ri += n * (b1r * b2i + b1i * b2r)
            sr = a1r * b2r - a1i * b2i + b1r * a2r - b1i * a2i
            si = a1r * b2i + a1i * b2r + b1r * a2i + b1i * a2r
        else:
            sr = si = 0
        return _reduced(rr, ri, sr, si, self._den * o._den, n)

    __rmul__ = __mul__

    def inverse(self) -> "SqrtExt":
        # 1/(a + b r) = (a - b r) / w with w = a^2 - n b^2, and 1/w = conj(w)/|w|^2
        ar, ai, br, bi, n = self._ar, self._ai, self._br, self._bi, self.n
        den = self._den
        if not n:
            norm = ar * ar + ai * ai
            if norm == 0:
                raise ZeroDivisionError("division by zero SqrtExt")
            return _reduced(den * ar, -den * ai, 0, 0, norm, 0)
        wr = ar * ar - ai * ai - n * (br * br - bi * bi)
        wi = 2 * (ar * ai - n * br * bi)
        wnorm = wr * wr + wi * wi
        if wnorm == 0:
            raise ZeroDivisionError("division by zero SqrtExt")
        # multiply (a - b r) by den * conj(w)
        cr, ci = den * wr, -den * wi
        return _reduced(ar * cr - ai * ci, ar * ci + ai * cr,
                        bi * ci - br * cr, -(br * ci + bi * cr), wnorm, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._ar == o._ar and self._ai == o._ai and self._br == o._br
                and self._bi == o._bi and self._den == o._den and self.n == o.n)

    def __hash__(self):
        if not (self._ai or self.n):
            return hash(Fraction(self._ar, self._den))  # as the equal int or Fraction
        return hash((self._ar, self._ai, self._br, self._bi, self._den, self.n))

    def is_zero(self) -> bool:
        return not (self._ar or self._ai or self._br or self._bi)

    def as_complex(self) -> complex:
        # int / int true division rounds correctly, as float(Fraction) does
        root = sqrt(self.n) if self.n else 0.0
        den = self._den
        return complex(
            self._ar / den + self._br / den * root,
            self._ai / den + self._bi / den * root,
        )

    def __repr__(self):
        if self.n:
            return f"({self.ar}+{self.ai}i) + ({self.br}+{self.bi}i)*sqrt({self.n})"
        return f"({self.ar}+{self.ai}i)"


def _reduced(ar, ai, br, bi, den, n) -> SqrtExt:
    """SqrtExt from int numerators over den > 0, brought to lowest terms.

    Results of exact arithmetic come here, skipping coercion and isqrt: n must
    not be a perfect square > 0, and is dropped when the sqrt part vanishes.
    """
    if not (br or bi):
        n = 0
    g = gcd(ar, ai, br, bi, den)
    if g != 1:
        ar //= g
        ai //= g
        br //= g
        bi //= g
        den //= g
    return _new(ar, ai, br, bi, den, n)


def _new(ar, ai, br, bi, den, n) -> SqrtExt:
    """Wrap parts that are already in lowest terms."""
    out = object.__new__(SqrtExt)
    out._ar, out._ai, out._br, out._bi, out._den, out.n = ar, ai, br, bi, den, n
    return out


# ---------------------------------------------------------------------------
# generic univariate polynomial helpers (coefficient list, index = power)
# ---------------------------------------------------------------------------

def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p: list, q: list) -> list:
    out = list(p) + [0 * c for c in q[len(p):]]
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _trim(out)


def poly_scale(c, p: list) -> list:
    return _trim([c * v for v in p])


def poly_derive(p: list) -> list:
    return _trim([i * p[i] for i in range(1, len(p))])


def poly_integral0(p: list) -> list:
    """Antiderivative vanishing at z = 0."""
    return _trim([0 * c for c in p[:1]] + [p[i] / (i + 1) for i in range(len(p))])


def poly_exp_tail(p: list, inv2k) -> list:
    """int_z^inf p(w) e^{2|k|(z-w)} dw = sum_j p^(j)(z) / (2|k|)^{j+1}."""
    out: list = []
    cur = list(p)
    factor = inv2k
    while cur:
        out = poly_add(out, poly_scale(factor, cur))
        cur = poly_derive(cur)
        factor = factor * inv2k
    return out


def poly_eval0(p: list, zero):
    return p[0] if p else zero


def poly_is_zero(p: list) -> bool:
    return all(c == 0 for c in p)


# ---------------------------------------------------------------------------
# exact mode data and solutions
# ---------------------------------------------------------------------------

def _wavevector(k) -> tuple[int, ...]:
    """k as a tuple of ints, refusing k = 0: the recursion handles the zero mode."""
    k = tuple(int(v) for v in k)
    if not any(k):
        raise ValueError("k must be nonzero: the zero mode is handled by the recursion")
    return k


def knorm_exact(k: tuple[int, ...]) -> SqrtExt:
    """|k| as an exact scalar (integer when k.k is a perfect square)."""
    return SqrtExt.sqrt_of(sum(v * v for v in _wavevector(k)))


def symbol_vector(k: tuple[int, ...], knorm) -> list:
    """a = [i k_1, ..., i k_{d-1}, -|k|] as scalars matching knorm's type."""
    if isinstance(knorm, SqrtExt):
        return [SqrtExt(0, int(v)) for v in k] + [-knorm]
    return [1j * float(v) for v in k] + [-knorm]


@dataclass
class ModeData:
    """One mode's source amplitude and trace value.

    F_poly[i] is the coefficient list (in z) of source component i; b_hat is
    the velocity trace at the reference height.
    """

    k: tuple[int, ...]
    F_poly: list[list]
    b_hat: list

    def __post_init__(self):
        self.k = _wavevector(self.k)
        d = len(self.k) + 1
        if len(self.F_poly) != d or len(self.b_hat) != d:
            raise ValueError(f"need {d} components for k={self.k}")


@dataclass
class ModeSolution:
    """Profiles (V_k, Q_k) of the decaying solution above L."""

    V: list[list]
    Q: list
    knorm: object


def halfline_integrals(k: tuple[int, ...], F_poly: list[list], knorm):
    """The two closed-form half-line integrals (Qbar, Vbar) driven by F,
    over the scalar type of knorm = |k| (knorm_exact(k) or a float)."""
    k = _wavevector(k)
    d = len(k) + 1
    a = symbol_vector(k, knorm)
    one = knorm / knorm
    inv2k = one / (knorm + knorm)
    minus_inv2k = -inv2k

    S: list = []
    for j in range(d):
        S = poly_add(S, poly_scale(a[j], F_poly[j]))
    S = poly_add(S, poly_derive(F_poly[d - 1]))
    qbar = poly_scale(minus_inv2k, poly_add(poly_integral0(S), poly_exp_tail(S, inv2k)))

    dqbar = poly_derive(qbar)
    vbar = []
    for j in range(d):
        T = poly_scale(-one, F_poly[j])
        T = poly_add(T, poly_scale(a[j], qbar))
        if j == d - 1:
            T = poly_add(T, dqbar)
        vbar.append(
            poly_scale(minus_inv2k, poly_add(poly_integral0(T), poly_exp_tail(T, inv2k)))
        )
    return qbar, vbar


def _closed_form(k: tuple[int, ...], qbar: list, vbar: list[list], b_hat: list, knorm):
    """(V, Q) of the decaying mode solution, over knorm's scalar type.

    (qbar, vbar) are the half-line integrals of the mode's source, and
    V_j(z) = b_j + (c/|k|) a_j z + vbar_j(z) - vbar_j(0) and
    Q(z) = -2c + qbar(z), with c = a . b + (vbar_d)'(0).
    """
    d = len(k) + 1
    a = symbol_vector(k, knorm)
    zero = knorm - knorm

    c = zero
    for j in range(d):
        c = c + a[j] * b_hat[j]
    c = c + poly_eval0(poly_derive(vbar[d - 1]), zero)

    c_over_k = c / knorm
    V = []
    for j in range(d):
        head = [b_hat[j] - poly_eval0(vbar[j], zero), c_over_k * a[j]]
        V.append(poly_add(head, vbar[j]))
    Q = poly_add([-2 * c], qbar)
    return V, Q


def solve_mode(data: ModeData) -> ModeSolution:
    """Decaying mode solution with trace b_hat, per the closed formulas."""
    knorm = knorm_exact(data.k)
    qbar, vbar = halfline_integrals(data.k, data.F_poly, knorm)
    V, Q = _closed_form(data.k, qbar, vbar, data.b_hat, knorm)
    return ModeSolution(V, Q, knorm)


@dataclass
class ModeResiduals:
    """Exact residual polynomials of the Appendix identities."""

    momentum: list[list]
    divergence: list
    trace: list

    @property
    def ok(self) -> bool:
        return (
            all(poly_is_zero(m) for m in self.momentum)
            and poly_is_zero(self.divergence)
            and all(t == 0 for t in self.trace)
        )


def residual_check(k: tuple[int, ...], F_poly: list[list], sol: ModeSolution,
                   b_hat: list) -> ModeResiduals:
    """Momentum, divergence and trace residuals of a mode solution.

    Mode-wise operators: Lap -> d_z^2 - 2|k| d_z and grad -> a (.) + e_d d_z
    with a = [ik, -|k|].  All three residuals vanish identically for outputs
    of solve_mode.
    """
    knorm = sol.knorm
    d = len(k) + 1
    a = symbol_vector(k, knorm)
    zero = knorm - knorm
    two_k = knorm + knorm

    dQ = poly_derive(sol.Q)
    momentum = []
    for j in range(d):
        dV = poly_derive(sol.V[j])
        d2V = poly_derive(dV)
        res = poly_scale(-1 * (knorm / knorm), d2V)
        res = poly_add(res, poly_scale(two_k, dV))
        res = poly_add(res, poly_scale(a[j], sol.Q))
        if j == d - 1:
            res = poly_add(res, dQ)
        res = poly_add(res, poly_scale(-(knorm / knorm), F_poly[j]))
        momentum.append(res)

    div: list = []
    for j in range(d):
        div = poly_add(div, poly_scale(a[j], sol.V[j]))
    div = poly_add(div, poly_derive(sol.V[d - 1]))

    trace = [poly_eval0(sol.V[j], zero) - b_hat[j] for j in range(d)]
    return ModeResiduals(momentum, div, trace)


def dtn_map(k: tuple[int, ...]):
    """Exact DtN matrix M_k with (d_y V)(L) = M_k b for the source-free mode.

    M_k = -|k| I + (1/|k|) a a^T with a = [ik, -|k|]; the associated pressure
    trace is Q_k(0) = -2 c_k = -2 a . b.
    """
    knorm = knorm_exact(k)
    a = symbol_vector(k, knorm)
    d = len(a)
    inv_k = (knorm / knorm) / knorm
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            entry = inv_k * a[i] * a[j]
            if i == j:
                entry = entry - knorm
            row.append(entry)
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=None)
def dtn_matrix(k: tuple[int, ...]) -> np.ndarray:
    """Floating DtN matrix (complex) for the cell solver.

    Memoized per k, a tuple; the returned array is read-only and shared.
    """
    M = np.array([[e.as_complex() for e in row] for row in dtn_map(k)])
    M.setflags(write=False)
    return M


# ---------------------------------------------------------------------------
# floating path used by the corrector pipeline
# ---------------------------------------------------------------------------

def solve_mode_numeric(k: tuple[int, ...], integrals, b_hat):
    """solve_mode over complex floats from the integrals (qbar, vbar) that
    halfline_integrals gives for the float knorm |k|; returns lists (V, Q)."""
    k = _wavevector(k)
    knorm = float(np.sqrt(sum(v * v for v in k)))
    return _closed_form(k, *integrals, [complex(v) for v in b_hat], knorm)


# ---------------------------------------------------------------------------
# sums of decaying modes above the reference height
# ---------------------------------------------------------------------------

def mode_fields(modes: dict, L: float, nyquist: int,
                x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real (u1, u2, p) at (x, y) of a finite sum of decaying modes above y = L.

    modes maps each wavenumber 0 < k <= nyquist to the coefficient lists
    (V1, V2, Q) of its profiles (d = 2), each of length >= 1, and the real
    field is the sum over the modes of w_k Re[P_k(y - L) e^{-k(y-L)} e^{ikx}].
    Each real mode is stored once: w_k = 2 stands for the conjugate mode at
    -k, and the Nyquist mode k = nyquist (nx/2 of the grid it came from) has
    w_k = 1, since on the grid it is its own conjugate, as in the cell
    solver's top rows.  e^{-kz} and e^{ikx} are formed once per mode and
    shared by the three profiles.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = y - L
    outs = np.zeros((3,) + np.broadcast(x, y).shape, dtype=complex)
    for k, profiles in modes.items():
        weight = 2.0 if k < nyquist else 1.0
        decay = np.exp(-k * z)
        wave = np.exp(1j * k * x)
        for out, poly in zip(outs, profiles):
            out += weight * (np.polynomial.polynomial.polyval(z, poly) * decay * wave)
    return tuple(outs.real)
