"""Seeded inputs for the benchmark workloads (standard library only).

Everything a workload hands to stokesbl is drawn here from the benchmark
seed, so the same seed gives the same files and arguments.  One seed drives
the geometries, the random outer data (passed on as ``--seed``), the exact
mode-oracle cases and the random polynomials.

Geometries are Fourier walls gamma(x) = c0 + 2 Re sum_{0<k<=3} c_k e^{ikx}
with -1 <= gamma <= 0, |gamma'| <= 0.5 and a k = 1 or k = 2 mode.  Modes
stop at k = 3 so that every grid in the workloads (the coarsest has nx = 12)
resolves them: ``StripGrid`` does not reject aliased modes, so the generator
has to guarantee this itself.  Seed 0
reproduces the acceptance suite's walls: ``COS_WALL`` first, then the rest of
``GEOMETRIES``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

MAX_MODE = 3
# drawn walls stay inside the acceptance walls' envelope: |c_k| up to the
# largest acceptance coefficient of each mode, slope up to COS_WALL's, and a
# peak-to-peak height that leaves MARGIN to both bounds
MODE_CAP = {1: 0.25, 2: 0.125, 3: 0.05}
MAX_SLOPE = 0.5
MAX_HEIGHT = 0.9
N_GEOMETRIES = 5
N_ORACLES = 200
N_POLYNOMIALS = 200
RANGE_SAMPLES = 4096
# distance kept from the bounds -1 and 0 by drawn walls
MARGIN = 0.02

# {k: (re, im)}; the acceptance suite's GEOMETRIES, COS_WALL first
ACCEPTANCE_GEOMETRIES = [
    {0: (-0.5, 0.0), 1: (-0.25, 0.0)},
    {0: (-0.5, 0.0), 1: (-0.1, 0.0), 2: (-0.08, 0.0)},
    {0: (-0.4, 0.0), 2: (-0.125, 0.0)},
    {0: (-0.5, 0.0), 1: (-0.08, 0.1), 3: (-0.05, 0.0)},
    {0: (-0.35, 0.0), 1: (0.0, -0.14)},
]


def _rng(seed: int, stream: str) -> random.Random:
    # string seeds hash with SHA-512, so streams are stable across runs
    return random.Random(f"stokesbl-bench:{seed}:{stream}")


def gamma_samples(modes: dict, n: int = RANGE_SAMPLES, derivative: bool = False) -> list[float]:
    """gamma (or gamma') at n equispaced points of one period."""
    out = []
    for i in range(n):
        x = 2.0 * math.pi * i / n
        val = 0.0 if derivative else modes.get(0, (0.0, 0.0))[0]
        for k, (re, im) in modes.items():
            if k == 0:
                continue
            if derivative:
                val -= 2.0 * k * (re * math.sin(k * x) + im * math.cos(k * x))
            else:
                val += 2.0 * (re * math.cos(k * x) - im * math.sin(k * x))
        out.append(val)
    return out


def _draw_geometry(rng: random.Random) -> dict:
    # a k = 1 or k = 2 mode always leads: pure k = 3 walls leave the coarsest
    # ladder grid (nx = 12, four points per wavelength) outside its
    # asymptotic range, and the slip-length ladder stops converging
    ks = [k for k in (1, 2) if rng.random() < 0.7] or [rng.randint(1, 2)]
    ks += [3] if rng.random() < 0.5 else []
    raw = {}
    for k in ks:
        r = rng.uniform(0.3, 1.0) * MODE_CAP[k]
        theta = rng.uniform(0.0, 2.0 * math.pi)
        raw[k] = (r * math.cos(theta), r * math.sin(theta))
    vals = gamma_samples(raw)
    lo, hi = min(vals), max(vals)
    slope = max(abs(v) for v in gamma_samples(raw, derivative=True))
    scale = min(1.0, MAX_HEIGHT / (hi - lo), MAX_SLOPE / slope)
    modes = {k: (re * scale, im * scale) for k, (re, im) in raw.items()}
    lo, hi = lo * scale, hi * scale
    c0 = rng.uniform(-1.0 - lo + MARGIN, -hi - MARGIN)
    return {0: (c0, 0.0), **modes}


def geometries(seed: int) -> list[dict]:
    """N_GEOMETRIES walls as {k: (re, im)}; seed 0 gives the acceptance walls."""
    if seed == 0:
        return [dict(g) for g in ACCEPTANCE_GEOMETRIES]
    rng = _rng(seed, "geometry")
    return [_draw_geometry(rng) for _ in range(N_GEOMETRIES)]


def geometry_json(modes: dict) -> dict:
    """The geometry file format `stokesbl` reads."""
    return {"fourier": [{"k": k, "re": re, "im": im} for k, (re, im) in sorted(modes.items())]}


def _fraction(rng: random.Random, span: int) -> str:
    return str(Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4)))


def oracle_cases(seed: int, n: int = N_ORACLES) -> list[dict]:
    """Exact SqrtExt mode cases; dimension and source degree cycle evenly.

    Each entry holds k, the source coefficients F[i][j] and the trace b[i]
    as (re, im) pairs of fraction strings.
    """
    rng = _rng(seed, "oracles")
    cases = []
    for i in range(n):
        d = 2 + i % 2
        deg = (i // 2) % 7
        k = [0] * (d - 1)
        while all(v == 0 for v in k):
            k = [rng.randint(-8, 8) for _ in range(d - 1)]
        F = [[[_fraction(rng, 5), _fraction(rng, 5)] for _ in range(deg + 1)] for _ in range(d)]
        b = [[_fraction(rng, 5), _fraction(rng, 5)] for _ in range(d)]
        cases.append({"k": k, "F": F, "b": b})
    return cases


def random_polynomials(seed: int, n: int = N_POLYNOMIALS) -> list[dict]:
    """Random exact polynomials in d = 2 and 3 variables, six terms each.

    Each entry is {"dim": d, "terms": [[exponent, fraction string], ...]}.
    """
    rng = _rng(seed, "polynomials")
    polys = []
    for i in range(n):
        d = 2 + i % 2
        terms = {}
        for _ in range(6):
            exp = [0] * d
            for _ in range(rng.randrange(9)):
                exp[rng.randrange(d)] += 1
            terms[tuple(exp)] = str(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
        polys.append({"dim": d, "terms": [[list(e), c] for e, c in sorted(terms.items())]})
    return polys
