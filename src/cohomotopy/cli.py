"""Command-line interface.

Exit codes: 0 success, 1 verification failures, 2 database errors,
3 unresolved extension, 4 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

from .database import DbError, load_db, validate_db
from .extensions import ExtensionError, UnresolvedExtensionError, order_text
from .gottlieb import fibration_equivalences
from .pipeline import (
    MAPSPACE_RANGE,
    check_components,
    check_gottlieb,
    compute_group,
    mapping_space_pi,
    pairing_ns,
    paper_notation,
    render_table,
    verify_all,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_DB = 2
EXIT_UNRESOLVED = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _print_row(row, show_evidence=False):
    print(f"group: {row.group}")
    print(f"order notation: {paper_notation(row.group)}")
    print("generators:")
    for order, name in row.generators:
        print(f"  {name}  (order {order_text(order)})")
    if row.cites:
        print("cites:")
        for c in row.cites:
            print(f"  {c}")
    if show_evidence and row.evidence_used:
        print("evidence used:")
        for item in row.evidence_used:
            print(f"  {item}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cohomotopy",
        description="Bracket groups of suspended CP^2, mapping-space homotopy "
        "groups, and Gottlieb/evaluation data from a curated database.",
    )
    parser.add_argument(
        "--db", default=Path(__file__).parent / "data" / "paper.cohdb", metavar="PATH",
        help="database file (default: the packaged paper.cohdb)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute one bracket group [Sigma^(n+k) CP^2, S^n]")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--show-evidence", action="store_true")

    p = sub.add_parser("table", help="render a full k-table")
    p.add_argument("k", type=int)
    p.add_argument("--format", choices=("ascii", "csv"), default="ascii")

    p = sub.add_parser("mapspace", help="homotopy groups of the based self-mapping space of CP^2")
    p.add_argument("n", type=int, nargs="?", default=None)

    p = sub.add_parser("gottlieb", help="Gottlieb subgroups of the identity-component brackets")
    p.add_argument("n", type=int, nargs="?", default=None)
    p.add_argument("--equivalences", action="store_true",
                   help="also partition generator multiples by fibration equivalence")

    p = sub.add_parser("components", help="path-component counts of the self-mapping spaces")
    p.add_argument("n", type=int, nargs="?", default=None)

    sub.add_parser("verify", help="recompute every golden value and compare")
    sub.add_parser("db-check", help="parse and validate the database")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        db = load_db(args.db)
    except (OSError, DbError) as e:
        print(f"error: cannot load database: {e}", file=sys.stderr)
        return EXIT_DB

    out = io.StringIO()  # written once the command returns: an error leaves stdout empty
    try:
        with contextlib.redirect_stdout(out):
            code = _dispatch(args, db)
    except UnresolvedExtensionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except (DbError, ExtensionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DB
    sys.stdout.write(out.getvalue())
    return code


def _dispatch(args, db) -> int:
    if args.command == "compute":
        row = compute_group(db, args.k, args.n)
        print(f"[Sigma^({args.n}+{args.k}) CP^2, S^{args.n}]")
        _print_row(row, args.show_evidence)
        return EXIT_OK

    if args.command == "table":
        print(render_table(db, args.k, args.format))
        return EXIT_OK

    if args.command == "mapspace":
        ns = [args.n] if args.n is not None else list(MAPSPACE_RANGE)
        for n in ns:
            row = mapping_space_pi(db, n)
            gens = " ; ".join(f"{name} : {order_text(order)}" for order, name in row.generators)
            print(f"pi_{n} = {row.group}" + (f"  {{ {gens} }}" if gens else ""))
        return EXIT_OK

    if args.command == "gottlieb":
        ns = [args.n] if args.n is not None else pairing_ns(db)
        checks = []
        for n in ns:
            check = check_gottlieb(db, n)
            if check.status == "error":  # a database error, not a failed check
                raise DbError(check.detail)
            checks.append(check)
            print(f"G_{n} = {check.computed}")
            for order, name in check.recorded.terms:
                print(f"  {name}  (order {order_text(order)})")
            if args.equivalences:
                for name, classes in fibration_equivalences(db, n).items():
                    parts = " | ".join(
                        "{" + ", ".join(map(str, cls)) + "}" for cls in classes
                    )
                    print(f"  multiples of {name}: {parts}")
        failed = [c for c in checks if not c.passed()]
        for c in failed:
            print(f"{c.label}: {c.detail}", file=sys.stderr)
        return EXIT_VERIFY if failed else EXIT_OK

    if args.command == "components":
        ns = [args.n] if args.n is not None else pairing_ns(db)
        failures = 0
        for n in ns:
            check = check_components(db, n)
            if check.status == "error":
                raise DbError(check.detail)
            expected = check.recorded.expected
            print(f"n={n}: {check.computed} equivalence classes (recorded {expected}, {check.status})")
            failures += check.status == "fail"
        return EXIT_VERIFY if failures else EXIT_OK

    if args.command == "verify":
        results = verify_all(db)
        failures = 0
        for r in results:
            mark = "ok " if r.status == "ok" else ("DOC" if r.passed() else "FAIL")
            if not r.passed():
                failures += 1
            print(f"[{mark}] {r.family:10s} {r.label:18s} {r.detail}")
        total = len(results)
        print(f"{total - failures}/{total} checks passed")
        return EXIT_VERIFY if failures else EXIT_OK

    if args.command == "db-check":
        problems = validate_db(db)
        for p in problems:
            print(f"problem: {p}")
        counts = Counter(entry.TAG for entry in db.records)
        print(
            f"{counts['group']} group records, {counts['symbol']} symbols, "
            f"{counts['evidence']} evidence records, {counts['whitehead']} pairings, "
            f"{counts['components']} component rows"
        )
        return EXIT_DB if problems else EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
