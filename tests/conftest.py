import json
import os

from hypothesis import settings

from artifact.linalg import Matrix

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# every property test draws the same examples on every run, with no deadline:
# a failure reproduces, and a slow shared host does not fail a test
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_fixture(name: str):
    with open(fixture_path(name)) as fh:
        return json.load(fh)


def solve(m: Matrix, b):
    """One solution x of m @ x = b, or None if inconsistent, read off the
    RREF of [m | b]: an oracle of the tests, once Matrix.solve."""
    f, nc = m.field, m.ncols
    if not m.rows:
        return (f.zero,) * nc
    red = Matrix.from_rows(f, (r + (bv,) for r, bv in zip(m.rows, b))).rref()
    if nc in red.pivots:
        return None
    x = [f.zero] * nc
    for pc, row in zip(red.pivots, red.rows):
        x[pc] = row[nc]
    return tuple(x)
