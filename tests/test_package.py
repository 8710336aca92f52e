"""Package metadata tests."""

import os
import pkgutil
import subprocess
import sys
import tomllib

import pytest

import drlearn
import drlearn.models
from drlearn.config import MODEL_KINDS
from drlearn.models.common import MODEL_CLASSES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_version_matches_pyproject():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert drlearn.__version__ == project["version"]


def test_serving_imports_neither_yaml_nor_process_pool():
    # A serving process loads the library and models only; YAML and the
    # worker pool are imported where a config file or a pool is used.
    code = (
        "import sys, drlearn.pipeline, drlearn.models; "
        "print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def test_records_import_nothing_from_drlearn():
    # every layer declares its records there, so it must sit below all of them
    code = "import sys, drlearn.records; print(sorted(m for m in sys.modules if 'drlearn' in m))"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "['drlearn', 'drlearn.errors', 'drlearn.records']"


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.walk_packages(drlearn.__path__, "drlearn.")]
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    # A circular import fails only for the modules that enter the cycle first.
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True, timeout=60)


def test_model_kinds_match_the_registry_and_rnn_lstm_are_recurrent():
    assert set(MODEL_KINDS) == set(MODEL_CLASSES)
    assert {kind for kind in MODEL_KINDS if MODEL_CLASSES[kind].recurrent} == {"rnn", "lstm"}


def test_every_name_the_models_package_exports_resolves():
    # a name left in __all__ after its definition goes breaks `import *` only
    missing = [name for name in drlearn.models.__all__ if not hasattr(drlearn.models, name)]
    assert missing == []
    assert len(set(drlearn.models.__all__)) == len(drlearn.models.__all__)
