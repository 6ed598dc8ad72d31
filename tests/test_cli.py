import pytest

from cohomotopy import cli
from cohomotopy.cli import (
    EXIT_DB,
    EXIT_OK,
    EXIT_UNRESOLVED,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from cohomotopy.database import dumps_db


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
        real = cli.whitehead_hom

        def counted(db, n):
            built.append(n)
            return real(db, n)

        monkeypatch.setattr(cli, "whitehead_hom", counted)
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert built == list(range(1, 9))  # the n of the shipped records, each once

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

    def test_db_that_is_not_utf8_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cohdb"
        bad.write_bytes(b"\xff\xfe[group]\n")
        code, out, err = run(capsys, "--db", str(bad), "db-check")
        assert (code, out) == (EXIT_DB, "")
        assert err == (
            f"error: cannot load database: {bad}:1: "
            "not UTF-8 text: invalid start byte at byte 0\n"
        )

    def test_context_without_n_is_2(self, capsys, tmp_path, db_text):
        broken = tmp_path / "broken.cohdb"
        broken.write_text(
            db_text.replace("context = components n=1\n", "context = components m=1\n")
        )
        code, _, err = run(capsys, "--db", str(broken), "verify")
        assert code == EXIT_DB
        assert "cannot load database" in err and "lacks n" in err

    def test_deeply_nested_name_is_2(self, capsys, tmp_path, db_text):
        old = "generators = eta_2 . mu_3 : 2\n"
        assert old in db_text
        deep = db_text.replace(old, "generators = " + "S " * 2000 + "eta_2 . mu_3 : 2\n")
        path = tmp_path / "deep.cohdb"
        path.write_text(deep)
        code, out, _ = run(capsys, "--db", str(path), "db-check")
        assert code == EXIT_DB
        assert "problem:" in out and "nested deeper than" in out

    def test_verify_failure_is_1(self, capsys, tmp_path, db):
        text = dumps_db(db).replace(
            "context = bracket k=6 n=5\ngroup = Z/4 + Z/9",
            "context = bracket k=6 n=5\ngroup = Z/8 + Z/9",
        ).replace("nu_5 . sigma_8 . S^11 p : 4", "nu_5 . sigma_8 . S^11 p : 8")
        broken = tmp_path / "broken.cohdb"
        broken.write_text(text)
        code, out, _ = run(capsys, "--db", str(broken), "verify")
        assert code == EXIT_VERIFY
        assert "FAIL" in out

    def test_unresolved_extension_is_3(self, capsys, tmp_path, db):
        # drop every k=7 n=9 evidence record: that extension is then ambiguous
        lines = dumps_db(db).split("\n\n")
        kept = [
            b
            for b in lines
            if not (b.startswith("[evidence]") and "extension k=7 n=9" in b)
        ]
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
        assert run(capsys, "--db", path, "db-check")[0] == EXIT_OK
        code, out, err = run(capsys, "--db", path, "compute", "7", "4")
        assert (code, out, err) == (EXIT_DB, "", f"error: {problem}\n")
        code, out, err = run(capsys, "--db", path, "verify")
        assert (code, err) == (EXIT_VERIFY, "")
        assert f"[FAIL] bracket    k=7 n=4            {problem}\n" in out


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
        path, _, problem = broken
        code, _, err = run(capsys, "--db", path, *argv)
        assert (code, err) == (EXIT_DB, f"error: {problem}\n")

    def test_db_check_reports_it(self, capsys, broken):
        path, _, problem = broken
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

    def test_finite_image_in_an_infinite_target_is_counted(self, capsys, tmp_path, db_text):
        path = edited(tmp_path, db_text, *self.FINITE_IMAGE)
        code, out, _ = run(capsys, "--db", path, "components", "8")
        assert (code, out) == (EXIT_VERIFY, "n=8: 1 equivalence classes (recorded 2, fail)\n")
        code, out, _ = run(capsys, "--db", path, "verify")
        assert code == EXIT_VERIFY
        assert "[FAIL] components components n=8     computed 1, recorded 2\n" in out

    def test_infinite_image_is_a_db_error(self, capsys, tmp_path, db_text):
        path = edited(tmp_path, db_text, *self.INFINITE_IMAGE)
        code, _, err = run(capsys, "--db", path, "components", "3")
        assert (code, err) == (EXIT_DB, "error: whitehead n=3: the pairing has an infinite image\n")
        code, out, _ = run(capsys, "--db", path, "verify")
        assert code == EXIT_VERIFY
        [line] = [line for line in out.splitlines() if "components n=3" in line]
        assert line.startswith("[FAIL]") and "whitehead n=3: " in line
