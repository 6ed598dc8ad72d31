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


class TestMalformedWhitehead:
    """A ``[whitehead]`` record whose images define no homomorphism is a
    database error: ``verify`` fails its two checks, the other commands say
    why and exit 2."""

    EDITS = {
        "ill-defined": ("alpha_1(6) . S^5 p -> (0, 1)", "alpha_1(6) . S^5 p -> (1, 1)", 5),
        "ragged": ("nu_9 . S^8 p -> (1)", "nu_9 . S^8 p -> (1, 0)", 8),
    }

    @pytest.fixture(params=sorted(EDITS))
    def broken(self, request, tmp_path, db_text):
        old, new, n = self.EDITS[request.param]
        assert db_text.count(old) == 1
        path = tmp_path / "broken.cohdb"
        path.write_text(db_text.replace(old, new))
        return str(path), n

    def test_verify_fails_the_pairing_checks(self, capsys, broken):
        path, n = broken
        code, out, err = run(capsys, "--db", path, "verify")
        assert (code, err) == (EXIT_VERIFY, "")
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert len(failed) == 2
        assert failed[0].split()[1:3] == ["gottlieb", f"G_{n}"]
        assert failed[1].split()[1:4] == ["components", "components", f"n={n}"]
        assert all(f"whitehead n={n}: " in line for line in failed)
        assert out.splitlines()[-1] == "63/65 checks passed"

    @pytest.mark.parametrize("argv", [["gottlieb", "--equivalences"], ["components"]])
    def test_commands_report_a_db_error(self, capsys, broken, argv):
        path, n = broken
        code, _, err = run(capsys, "--db", path, *argv)
        assert code == EXIT_DB
        assert err.startswith(f"error: whitehead n={n}: ") and "Traceback" not in err

    def test_db_check_reports_it(self, capsys, broken):
        path, n = broken
        code, out, _ = run(capsys, "--db", path, "db-check")
        assert code == EXIT_DB
        assert f"problem: whitehead n={n}: image of " in out
