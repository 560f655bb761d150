"""The seeded generator keeps its promises.

Run with `python3 -m pytest -q bench/tests/selftest_*.py` from the repository
root (the file names keep them out of the package's own test run).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src"),
                os.path.join(ROOT, "tests")]

import inputs  # noqa: E402
from stokesbl.geometry import BoundaryGeometry  # noqa: E402

COARSEST_NX = 12   # the trust-suite ladder's first grid


def as_geometry(modes):
    return BoundaryGeometry.from_json_dict(inputs.geometry_json(modes))


def test_seed_zero_reproduces_the_acceptance_walls():
    import test_acceptance

    walls = [as_geometry(g) for g in inputs.geometries(0)]
    assert walls == test_acceptance.GEOMETRIES
    assert walls[0] == test_acceptance.COS_WALL


def test_drawn_walls_stay_in_the_layer_and_resolved():
    for seed in range(1, 200):
        walls = inputs.geometries(seed)
        assert len(walls) == inputs.N_GEOMETRIES
        for modes in walls:
            assert set(modes) - {0} and max(modes) <= inputs.MAX_MODE < COARSEST_NX // 2
            assert modes[0][1] == 0.0
            vals = inputs.gamma_samples(modes)
            assert -1.0 + inputs.MARGIN / 2 <= min(vals) and max(vals) <= -inputs.MARGIN / 2
            slopes = inputs.gamma_samples(modes, derivative=True)
            assert max(map(abs, slopes)) <= inputs.MAX_SLOPE + 1e-9
            geometry = as_geometry(modes)     # the program's own range check
            assert geometry.max_mode <= inputs.MAX_MODE


def test_same_seed_same_inputs_other_seed_other_inputs():
    for draw in (inputs.geometries, inputs.oracle_cases, inputs.random_polynomials):
        assert draw(7) == draw(7)
        assert draw(7) != draw(8)


def test_oracle_cases_are_valid_mode_data():
    cases = inputs.oracle_cases(3)
    assert len(cases) == inputs.N_ORACLES
    for i, case in enumerate(cases):
        d = len(case["k"]) + 1
        assert d == 2 + i % 2 and any(case["k"])
        assert len(case["F"]) == d and len(case["b"]) == d
        assert all(len(comp) == (i // 2) % 7 + 1 for comp in case["F"])
