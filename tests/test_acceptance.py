"""Acceptance suite: one test per check in `stokesbl.verify`, printing its line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The criteria, their inputs and their tolerances live in `stokesbl.verify`,
which `stokesbl verify` runs too; the tests of this module share one set of
the heavy objects, as a `stokesbl verify` run does.
"""

import pytest

from stokesbl import verify
from stokesbl.verify import COS_WALL, GEOMETRIES  # noqa: F401  (bench/tests compare its walls)


@pytest.fixture(scope="module")
def shared():
    return verify.Shared()


def _check_test(check: verify.Check):
    def test(shared):
        ok, detail = check.run(shared)
        print("\n" + check.line(ok, detail))
        assert ok, check.line(ok, detail)
    return test


# one named test per check, test_criterion_NN_<name> or test_check_<name>, so
# that each criterion keeps the test id it had when it was written out here
for _check in verify.CHECKS:
    _name = (f"test_check_{_check.name}" if _check.number is None
             else f"test_criterion_{_check.number:02d}_{_check.name}")
    globals()[_name] = _check_test(_check)
