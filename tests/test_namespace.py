"""The package namespace is lazy: ``import cohomotopy`` imports no
submodule, and each exported name, or submodule name, imports its module on
first use and is then the object that module defines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohomotopy

ROOT = Path(__file__).resolve().parents[1]
DB_PATH = ROOT / "src" / "cohomotopy" / "data" / "paper.cohdb"


@pytest.mark.parametrize("code, loaded", [
    ("import cohomotopy", []),
    (f"import cohomotopy; cohomotopy.load_db({str(DB_PATH)!r})",
     ["abelian", "database", "extensions", "record"]),
    ("import cohomotopy.abelian", ["abelian", "record"]),
], ids=["import", "load_db", "import abelian"])
def test_a_fresh_process_imports_only_what_it_uses(code, loaded):
    code += "; import sys; print(sorted(m for m in sys.modules if m.startswith('cohomotopy.')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == str([f"cohomotopy.{m}" for m in loaded])


@pytest.mark.parametrize("name", cohomotopy.__all__)
def test_an_exported_name_is_its_modules_object(name):
    value = getattr(cohomotopy, name)
    assert getattr(sys.modules[value.__module__], name) is value
    assert value.__module__.startswith("cohomotopy.")
    namespace = {}
    exec("from cohomotopy import *", namespace)
    assert namespace[name] is value
    assert name in dir(cohomotopy)


def test_submodules_resolve_and_unknown_names_raise():
    from cohomotopy import pipeline

    assert cohomotopy.pipeline is pipeline is sys.modules["cohomotopy.pipeline"]
    with pytest.raises(AttributeError, match="no_such_name"):
        cohomotopy.no_such_name
