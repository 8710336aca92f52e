"""Package metadata tests."""

import os
import tomllib

import drlearn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_version_matches_pyproject():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert drlearn.__version__ == project["version"]
