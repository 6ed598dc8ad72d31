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


# The stable odd-part row of k=6 and a copy of it split in two at n=15, each
# half agreeing with itself: only the sum at n >= 15 (Z/9) disagrees with the
# bracket row's odd part (Z/3), and no row's first n sees it.
ODD_PART_K6_STABLE = (
    "context = odd-part k=6 n=12.. p=3\ngroup = Z/3\n"
    "generators = beta_1(n) . S^{n+6} p : 3\n"
)
SPLIT_ODD_PART_K6_STABLE = (
    "context = odd-part k=6 n=12..14 p=3\ngroup = Z/3\n"
    "generators = beta_1(n) . S^{n+6} p : 3\n"
    "cite = [T] ch.13; stable 3-component beta_1 of the 10-stem\n\n[group]\n"
    "context = odd-part k=6 n=15.. p=3\ngroup = Z/9\n"
    "generators = beta_1(n) . S^{n+6} p : 9\n"
)

# The odd-part row of k=6 n=7 and a copy that says Z/9, agreeing with itself:
# the odd-part records at n=7 then sum to Z/9, the bracket row's odd part is Z/3.
ODD_PART_K6_N7 = "context = odd-part k=6 n=7 p=3\ngroup = Z/3\ngenerators = beta_1(7) . S^13 p : 3"
NINEFOLD_ODD_PART_K6_N7 = ODD_PART_K6_N7.replace("Z/3", "Z/9").replace(": 3", ": 9")
