"""Set-up cost in a fresh interpreter: ``import cohomotopy``, ``load_db`` of
the shipped database, and the list of abelian groups of order <= 64 that the
algebra workloads sweep.  Prints one JSON object with the three times.

Run with the repository's ``src`` on ``PYTHONPATH``:
``python3 perfbench/setup_probe.py <path to paper.cohdb>``
"""

import json
import sys
from itertools import product
from time import perf_counter


def abelian_groups_up_to(limit: int):
    """Every finite abelian group of order <= ``limit``, one per
    isomorphism class, in order of increasing order."""
    from cohomotopy.abelian import FinAbGroup, _factorint
    from cohomotopy.extensions import partitions

    out = []
    for order in range(1, limit + 1):
        per_prime = [
            [tuple(p**e for e in lam) for lam in partitions(exp)]
            for p, exp in _factorint(order).items()
        ]
        for combo in product(*per_prime):
            out.append(FinAbGroup.from_factors([x for part in combo for x in part]))
    return out


def main(db_path: str) -> None:
    t0 = perf_counter()
    import cohomotopy

    t1 = perf_counter()
    cohomotopy.load_db(db_path)
    t2 = perf_counter()
    abelian_groups_up_to(64)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_db_s": t2 - t1, "group_list_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1])
