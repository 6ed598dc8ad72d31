import contextlib
import io

import pytest

from cohomotopy.abelian import GroupHom
from cohomotopy.cli import (
    EXIT_DB,
    EXIT_OK,
    EXIT_UNRESOLVED,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from cohomotopy.database import (
    DbError,
    WhiteheadEntry,
    clear_memos,
    load_db,
    loads_db,
    validate_db,
)
from cohomotopy.pipeline import verify_all
from conftest import (
    DB_PATH,
    NINEFOLD_ODD_PART_K6_N7,
    ODD_PART_K6_N7,
    ODD_PART_K6_STABLE,
    SPLIT_ODD_PART_K6_STABLE,
    replaced,
)
from test_record_deletions import record_blocks


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def edited(tmp_path, db_text, old, new):
    """Path of a copy of the shipped database with its one ``old`` text
    replaced by ``new``."""
    assert db_text.count(old) == 1
    path = tmp_path / "edited.cohdb"
    path.write_text(db_text.replace(old, new))
    return str(path)


class TestCompute:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "compute", "6", "4")
        assert code == EXIT_OK
        assert "Z/6 + Z/120" in out
        assert "nu_4 . sigma' . S^10 p" in out
        assert "8+2+3^2+5" in out

    def test_show_evidence(self, capsys):
        code, out, _ = run(capsys, "compute", "8", "10", "--show-evidence")
        assert code == EXIT_OK
        assert "evidence used" in out

    def test_missing_row_is_db_error(self, capsys):
        code, _, err = run(capsys, "compute", "9", "4")
        assert code == EXIT_DB
        assert "error" in err


class TestTable:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "table", "7")
        assert code == EXIT_OK
        assert "n>=13" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "6", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "k,n,paper,canonical"


class TestOtherCommands:
    def test_mapspace_all(self, capsys):
        code, out, _ = run(capsys, "mapspace")
        assert code == EXIT_OK
        assert "pi_4 = Z/12" in out and "pi_13 = Z/36" in out

    def test_gottlieb_single_with_equivalences(self, capsys):
        code, out, _ = run(capsys, "gottlieb", "3", "--equivalences")
        assert code == EXIT_OK
        assert "G_3 = Z + Z/2" in out
        assert "multiples of" in out

    @pytest.mark.parametrize("argv", [["gottlieb"], ["gottlieb", "--equivalences"], ["components"]])
    def test_one_whitehead_pairing_per_n(self, capsys, monkeypatch, argv):
        built = []
        real = WhiteheadEntry.pairing

        def counted(self, src):
            built.append(self.context.n_range.lo)
            return real(self, src)

        monkeypatch.setattr(WhiteheadEntry, "pairing", counted)
        clear_memos()  # a cold load: no pairing is remembered yet
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert built == list(range(1, 9))  # the n of the shipped records, each once

    @pytest.mark.parametrize("argv", [["gottlieb"], ["gottlieb", "--equivalences"]])
    def test_one_kernel_per_n(self, capsys, monkeypatch, argv):
        # the command prints the kernel its check computed, not a second one
        kernels = []
        real = GroupHom.kernel

        def counted(self):
            kernels.append(self)
            return real(self)

        monkeypatch.setattr(GroupHom, "kernel", counted)
        clear_memos()  # a cold load: no check is remembered yet
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert len(kernels) == 8  # one per n of the shipped records

    def test_components(self, capsys):
        code, out, _ = run(capsys, "components")
        assert code == EXIT_OK
        assert "n=7: 7 equivalence classes (recorded 6, documented-discrepancy)" in out

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert "65/65 checks passed" in out

    def test_db_check(self, capsys):
        code, out, _ = run(capsys, "db-check")
        assert code == EXIT_OK
        assert "group records" in out

    def test_without_db_the_packaged_copy_is_read(self, capsys, monkeypatch, tmp_path):
        # a database in the working directory is only read when --db names it
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "paper.cohdb").write_text("[group]\nbroken line\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "65/65 checks passed"


class TestExitCodes:
    def test_usage_error_is_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_db_is_2(self, capsys):
        code, _, err = run(capsys, "--db", "/nonexistent.cohdb", "verify")
        assert code == EXIT_DB

    def test_invalid_db_content_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cohdb"
        bad.write_text("[group]\nbroken line\n")
        code, _, err = run(capsys, "--db", str(bad), "verify")
        assert code == EXIT_DB

    def test_empty_db_fails_db_check(self, capsys, tmp_path):
        # no mapspace rows: mapspace, and so verify, cannot read it
        empty = tmp_path / "empty.cohdb"
        empty.write_text("")
        code, out, _ = run(capsys, "--db", str(empty), "db-check")
        assert code == EXIT_DB
        assert out.startswith("problem: no mapspace row for n=4\n")
        assert run(capsys, "--db", str(empty), "mapspace")[0] == EXIT_DB

    # a bad byte is named at its offset in the file, a byte-order mark's included
    @pytest.mark.parametrize("data, at", [
        (b"\xff\xfe[group]\n", 0), (b"\xef\xbb\xbf\xff[group]\n", 3),
    ], ids=["bad-first-byte", "bad-byte-after-a-bom"])
    def test_db_that_is_not_utf8_is_2(self, capsys, tmp_path, data, at):
        bad = tmp_path / "bad.cohdb"
        bad.write_bytes(data)
        code, out, err = run(capsys, "--db", str(bad), "db-check")
        assert (code, out) == (EXIT_DB, "")
        assert err == (
            f"error: cannot load database: {bad}:1: "
            f"not UTF-8 text: invalid start byte at byte {at}\n"
        )

    def test_context_without_n_is_2(self, capsys, tmp_path, db_text):
        broken = tmp_path / "broken.cohdb"
        broken.write_text(
            db_text.replace("context = components n=1\n", "context = components m=1\n")
        )
        code, _, err = run(capsys, "--db", str(broken), "verify")
        assert code == EXIT_DB
        assert "cannot load database" in err and "lacks n" in err

    def test_mapspace_failure_prints_nothing(self, capsys, tmp_path, db_text):
        # without the n=10 record, pi_4..pi_9 are computed before n=10 fails
        record = db_text[db_text.index("[group]\ncontext = mapspace n=10\n"):]
        path = edited(tmp_path, db_text, record[: record.index("\n\n") + 2], "")
        code, out, err = run(capsys, "--db", path, "mapspace")
        assert (code, out, err) == (EXIT_DB, "", "error: no mapspace row for n=10\n")

    @pytest.mark.parametrize("record, command", [
        ("[group]\ncontext = gottlieb n=3\n", "gottlieb"),
        ("[components]\ncontext = components n=3\n", "components"),
    ], ids=["gottlieb", "components"])
    def test_missing_pairing_row_is_2(self, capsys, tmp_path, db_text, record, command):
        # the pairing at n=3 is well formed; only the row it is checked against is gone
        block = db_text[db_text.index(record):]
        path = edited(tmp_path, db_text, block[: block.index("\n\n") + 2], "")
        extra = [["--equivalences"]] if command == "gottlieb" else []
        for argv in [["3"], []] + extra:
            code, out, err = run(capsys, "--db", path, command, *argv)
            assert (code, out, err) == (EXIT_DB, "", f"error: no {command} row for n=3\n")

    def test_deeply_nested_name_is_2(self, capsys, tmp_path, db_text):
        old = "generators = eta_2 . mu_3 : 2\n"
        assert old in db_text
        deep = db_text.replace(old, "generators = " + "S " * 2000 + "eta_2 . mu_3 : 2\n")
        path = tmp_path / "deep.cohdb"
        path.write_text(deep)
        code, out, _ = run(capsys, "--db", str(path), "db-check")
        assert code == EXIT_DB
        assert "problem:" in out and "nested deeper than" in out

    def test_verify_failure_is_1(self, capsys, tmp_path, db_text):
        text = replaced(
            db_text,
            "context = bracket k=6 n=5\ngroup = Z/4 + Z/9\n"
            "generators = nu_5 . sigma_8 . S^11 p : 4",
            "context = bracket k=6 n=5\ngroup = Z/8 + Z/9\n"
            "generators = nu_5 . sigma_8 . S^11 p : 8",
        )
        broken = tmp_path / "broken.cohdb"
        broken.write_text(text)
        code, out, _ = run(capsys, "--db", str(broken), "verify")
        assert code == EXIT_VERIFY
        assert "FAIL" in out

    def test_odd_part_sums_past_a_rows_first_n_are_2(self, capsys, tmp_path, db_text):
        path = edited(tmp_path, db_text, ODD_PART_K6_STABLE, SPLIT_ODD_PART_K6_STABLE)
        code, out, _ = run(capsys, "--db", path, "db-check")
        assert code == EXIT_DB
        assert [line for line in out.splitlines() if line.startswith("problem:")] == [
            "problem: bracket k=6 n=12..: odd-part records sum to Z/9, bracket has odd part Z/3"
        ]

    @pytest.mark.parametrize(
        "argv, line", [(("compute", "6", "7"), "group:"), (("table", "6"), "n=7 ")]
    )
    def test_compute_and_table_print_the_odd_part_sum(self, capsys, tmp_path, db_text, argv, line):
        # db-check rejects an odd-part sum that is not the bracket row's odd
        # part; compute and table print the group with the sum and succeed
        path = edited(tmp_path, db_text, ODD_PART_K6_N7, NINEFOLD_ODD_PART_K6_N7)
        code, out, _ = run(capsys, "--db", path, *argv)
        assert code == EXIT_OK
        assert [row.split()[-1] for row in out.splitlines() if row.startswith(line)] == ["Z/36"]

    def test_unresolved_extension_is_3(self, capsys, tmp_path, db_text):
        # drop every k=7 n=9 evidence record: that extension is then ambiguous
        blocks = db_text.split("\n\n")
        kept = [b for b in blocks if "context = extension k=7 n=9\n" not in b]
        assert len(blocks) - len(kept) == 2
        path = tmp_path / "gapped.cohdb"
        path.write_text("\n\n".join(kept))
        code, _, err = run(capsys, "--db", str(path), "compute", "7", "9")
        assert code == EXIT_UNRESOLVED
        assert "unresolved extension" in err

    def test_relation_fact_with_an_infinite_rhs_is_2(self, capsys, tmp_path, db_text):
        # the rhs nu_4 . eps_7 of the k=7 n=4 relation fact made infinite
        path = edited(
            tmp_path, db_text,
            "group = Z/2 + Z/2 + Z/2 + Z/2\ngenerators = S mu' : 2 ; nu_4 . nubar_7 : 2 ; "
            "nu_4 . eps_7 : 2 ;",
            "group = Z + Z/2 + Z/2 + Z/2\ngenerators = S mu' : 2 ; nu_4 . nubar_7 : 2 ; "
            "nu_4 . eps_7 : inf ;",
        )
        problem = (
            "bracket k=7 n=4: relation-fact 'nu_4^2 . g_10(C)' has rhs 'nu_4 . eps_7' "
            "of infinite order, so its lift has no finite order"
        )
        code, out, _ = run(capsys, "--db", path, "db-check")
        assert code == EXIT_DB
        assert [line for line in out.splitlines() if line.startswith("problem")] == [
            f"problem: {problem}"
        ]
        code, out, err = run(capsys, "--db", path, "compute", "7", "4")
        assert (code, out, err) == (EXIT_DB, "", f"error: {problem}\n")
        code, out, err = run(capsys, "--db", path, "verify")
        assert (code, err) == (EXIT_VERIFY, "")
        assert f"[FAIL] bracket    k=7 n=4            {problem}\n" in out


class TestByteOrderMark:
    """A UTF-8 byte-order mark that starts the file is not part of its text."""

    @pytest.fixture
    def bom_copy(self, tmp_path):
        path = tmp_path / "paper-bom.cohdb"
        path.write_bytes(b"\xef\xbb\xbf" + DB_PATH.read_bytes())
        return str(path)

    def test_the_copy_loads_to_the_database_of_the_file(self, bom_copy):
        shipped = load_db(DB_PATH)
        assert load_db(bom_copy) is shipped

    @pytest.mark.parametrize("command", ["verify", "db-check"])
    def test_the_copy_prints_what_the_file_prints(self, capsys, bom_copy, command):
        shipped = run(capsys, command)
        assert shipped[0] == EXIT_OK
        assert run(capsys, "--db", bom_copy, command) == shipped


class TestMalformedWhitehead:
    """A ``[whitehead]`` record whose images define no homomorphism is a
    database error: ``verify`` fails its two checks, the other commands exit
    2, and all of them and ``db-check`` report the same problem."""

    # name -> (old text, new text, n, the problem every command reports)
    EDITS = {
        "ill-defined": (
            "alpha_1(6) . S^5 p -> (0, 1)", "alpha_1(6) . S^5 p -> (1, 1)", 5,
            "image of 'alpha_1(6) . S^5 p' has order 12, not a divisor of 3",
        ),
        "ragged": (
            "nu_9 . S^8 p -> (1)", "nu_9 . S^8 p -> (1, 0)", 8,
            "image of 'nu_9 . S^8 p' has 2 coordinates, target has 1",
        ),
        "missing": (
            "nu_4 . S^3 p -> (2, 0, 0) ; ", "", 3,
            "missing image for generator 'nu_4 . S^3 p'",
        ),
        "unknown": (
            "alpha_1(8) . S^7 p -> (0, 0, 1)",
            "alpha_1(8) . S^7 p -> (0, 0, 1) ; bogus_8 . S^7 p -> (0, 0, 0)", 7,
            "image for unknown generator 'bogus_8 . S^7 p'",
        ),
        "given twice": (
            "nu_8 . S^7 p -> (2, odd, 0)",
            "nu_8 . S^7 p -> (2, odd, 0) ; nu_8 . S^7 p -> (2, odd, 0)", 7,
            "more than one image for generator 'nu_8 . S^7 p'",
        ),
    }

    @pytest.fixture(params=sorted(EDITS))
    def broken(self, request, tmp_path, db_text):
        old, new, n, problem = self.EDITS[request.param]
        return edited(tmp_path, db_text, old, new), n, f"whitehead n={n}: {problem}"

    def test_verify_fails_the_pairing_checks(self, capsys, broken):
        path, n, problem = broken
        code, out, err = run(capsys, "--db", path, "verify")
        assert (code, err) == (EXIT_VERIFY, "")
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert len(failed) == 2
        assert failed[0].split()[1:3] == ["gottlieb", f"G_{n}"]
        assert failed[1].split()[1:4] == ["components", "components", f"n={n}"]
        assert all(line.endswith(f" {problem}") for line in failed)
        assert out.splitlines()[-1] == "63/65 checks passed"

    @pytest.mark.parametrize("argv", [["gottlieb", "--equivalences"], ["components"]])
    def test_commands_report_a_db_error(self, capsys, broken, argv):
        # stdout stays empty: no lines for the n before the failing one
        path, _, problem = broken
        code, out, err = run(capsys, "--db", path, *argv)
        assert (code, out, err) == (EXIT_DB, "", f"error: {problem}\n")

    def test_db_check_reports_it(self, capsys, broken):
        path, _, problem = broken
        code, out, _ = run(capsys, "--db", path, "db-check")
        assert code == EXIT_DB
        assert [line for line in out.splitlines() if line.startswith("problem:")] == [
            f"problem: {problem}"
        ]

    def test_the_pairing_comes_before_a_missing_row(self, capsys, tmp_path, db_text):
        # at n=5 the gottlieb and components rows are gone and the pairing is
        # ill-defined: every command names the pairing's problem alone
        old, new, n, problem = self.EDITS["ill-defined"]
        problem = f"whitehead n={n}: {problem}"
        text = db_text
        for row in ("[group]\ncontext = gottlieb n=5\n",
                    "[components]\ncontext = components n=5\n"):
            block = text[text.index(row):]
            text = replaced(text, block[: block.index("\n\n") + 2], "")
        path = edited(tmp_path, text, old, new)
        for command in ("gottlieb", "components"):
            code, out, err = run(capsys, "--db", path, command, str(n))
            assert (code, out, err) == (EXIT_DB, "", f"error: {problem}\n")
        code, out, err = run(capsys, "--db", path, "verify")
        assert (code, err) == (EXIT_VERIFY, "")
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert [line.split()[1:3] for line in failed] == [
            ["gottlieb", f"G_{n}"], ["components", "components"]
        ]
        assert failed[1].split()[3] == f"n={n}"
        assert all(line.endswith(f" {problem}") for line in failed)
        code, out, _ = run(capsys, "--db", path, "db-check")
        assert code == EXIT_DB
        assert [line for line in out.splitlines() if line.startswith("problem:")] == [
            f"problem: {problem}"
        ]


class TestPairingImage:
    """Components are counted whenever the pairing's image is finite, also in
    an infinite target; an infinite image is a database error."""

    FINITE_IMAGE = (
        "target = Z/2\n"
        "target-generators = nubar_9 . nu_17 . S^16 p : 2\n"
        "images = nu_9 . S^8 p -> (1)",
        "target = Z\n"
        "target-generators = nubar_9 . nu_17 . S^16 p : inf\n"
        "images = nu_9 . S^8 p -> (0)",
    )
    INFINITE_IMAGE = (
        "target = Z/4 + Z/3 + Z/3\ntarget-generators = nu_4^2 . S^6 p : 4 ;",
        "target = Z + Z/3 + Z/3\ntarget-generators = nu_4^2 . S^6 p : inf ;",
    )
    # a well-formed pairing whose kernel is not the recorded G_3
    WRONG_KERNEL = ("alpha_1(4) . S^3 p -> (0, 0, 1)", "alpha_1(4) . S^3 p -> (0, 0, 0)")

    def test_finite_image_in_an_infinite_target_is_counted(self, capsys, tmp_path, db_text):
        path = edited(tmp_path, db_text, *self.FINITE_IMAGE)
        code, out, _ = run(capsys, "--db", path, "components", "8")
        assert (code, out) == (EXIT_VERIFY, "n=8: 1 equivalence classes (recorded 2, fail)\n")
        code, out, _ = run(capsys, "--db", path, "verify")
        assert code == EXIT_VERIFY
        assert "[FAIL] components components n=8     computed 1, recorded 2\n" in out

    def test_infinite_image_is_a_db_error(self, capsys, tmp_path, db_text):
        path = edited(tmp_path, db_text, *self.INFINITE_IMAGE)
        problem = "whitehead n=3: the pairing has an infinite image"
        for argv in (
            ["components", "3"], ["components"], ["gottlieb", "3"],
            ["gottlieb", "3", "--equivalences"], ["gottlieb", "--equivalences"],
        ):
            code, out, err = run(capsys, "--db", path, *argv)
            assert (code, out, err) == (EXIT_DB, "", f"error: {problem}\n")
        code, out, _ = run(capsys, "--db", path, "db-check")
        assert code == EXIT_DB
        assert [line for line in out.splitlines() if line.startswith("problem:")] == [
            f"problem: {problem}"
        ]
        code, out, _ = run(capsys, "--db", path, "verify")
        assert code == EXIT_VERIFY
        for check in ("G_3", "components n=3"):
            [line] = [line for line in out.splitlines() if f" {check} " in line]
            assert line.startswith("[FAIL]") and line.endswith(problem)

    def test_gottlieb_fails_on_a_kernel_that_is_not_the_recorded_row(
        self, capsys, tmp_path, db_text
    ):
        path = edited(tmp_path, db_text, *self.WRONG_KERNEL)
        code, out, err = run(capsys, "--db", path, "gottlieb", "3")
        assert code == EXIT_VERIFY
        assert out.startswith("G_3 = Z + Z/6\n")
        assert err == "G_3: kernel Z + Z/6 != recorded Z + Z/2\n"
        assert run(capsys, "--db", path, "db-check")[0] == EXIT_OK


class TestWhatDbCheckAccepts:
    """``db-check`` accepts only what every command can read."""

    # the commands that read a whole table, list or pairing; `compute` runs
    # at each bracket cell that verify checks
    ARGVS = (
        ("table", "6"), ("table", "7"), ("table", "8"), ("mapspace",),
        ("gottlieb", "--equivalences"), ("components",),
    )

    def test_no_command_errs_on_a_text_db_check_accepts(self, tmp_path, db_text, mutants):
        # every record deletion of the shipped text and 500 of its number
        # mutants, in the mutants workload's order for seed 1
        lines = db_text.split("\n")
        texts = [(label, db_text[:a] + db_text[b:]) for label, a, b in record_blocks(db_text)]
        texts += [
            (spec[4], mutants.apply_spec(lines, spec))
            for spec in mutants.seeded_specs(db_text, 1)[:500]
        ]
        path = tmp_path / "edited.cohdb"
        accepted, errors, exits = 0, [], []
        for label, text in texts:
            try:
                db = loads_db(text)
            except DbError:
                continue
            if validate_db(db):
                continue
            accepted += 1
            results = verify_all(db)
            errors += [(label, r.label, r.detail) for r in results if r.status == "error"]
            cells = [r.label.replace("=", " ").split()[1::2] for r in results if r.family == "bracket"]
            path.write_text(text)
            for argv in [*self.ARGVS, *(("compute", k, n) for k, n in cells)]:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(["--db", str(path), *argv])
                if code not in (EXIT_OK, EXIT_VERIFY):
                    exits.append((label, " ".join(argv), code))
        assert accepted
        assert errors == []
        assert exits == []
