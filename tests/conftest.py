import json
import os

from hypothesis import settings

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
