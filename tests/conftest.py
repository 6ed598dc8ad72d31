import importlib.util
from pathlib import Path

import pytest

from cohomotopy.database import load_db

ROOT = Path(__file__).resolve().parents[1]
DB_PATH = ROOT / "src" / "cohomotopy" / "data" / "paper.cohdb"


@pytest.fixture(scope="session")
def db():
    return load_db(DB_PATH)


@pytest.fixture(scope="session")
def db_text():
    return DB_PATH.read_text()


@pytest.fixture(scope="session")
def mutants():
    """The benchmark's mutant generator and curator check
    (``perfbench/mutants.py``), loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_mutants", ROOT / "perfbench" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replaced(text, old, new, count=1):
    """``text`` with ``old`` made ``new``, once ``old`` is seen to occur
    ``count`` times: an edit meant for some records then changes no other."""
    assert text.count(old) == count, (old, text.count(old))
    return text.replace(old, new)
