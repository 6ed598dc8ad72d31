import pytest

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
        assert "lacks the n parameter" in err

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
