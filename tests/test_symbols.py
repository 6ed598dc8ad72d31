import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomotopy import symbols
from cohomotopy.symbols import NameParseError, families_of


class TestParsing:
    @pytest.mark.parametrize(
        "text,families",
        [
            ("nu_4 . sigma' . S^10 p", {"nu", "sigma'", "p"}),
            ("S eps'", {"eps'"}),
            ("2 nubar_6", {"nubar"}),
            ("nu_7^3", {"nu"}),
            ("sigma' . eta_14^2 + eta_7 . eps_8", {"sigma'", "eta", "eps"}),
            ("ext(S sigma' . eta_15^2 + eta_8 . eps_9)", {"sigma'", "eta", "eps"}),
            ("P(iota_21) . coext(2 iota_19)", {"P", "iota"}),
            ("[i_6,i_6] . ext(alpha_1(11))", {"i", "alpha"}),
            ("alpha_1_7(10) . S^17 p", {"alpha", "p"}),
            ("alpha_3'(5) . S^12 p", {"alpha", "p"}),
            ("beta_1(n) . S^{n+6} p", {"beta", "p"}),
            ("eta_n . eps_{n+1}", {"eta", "eps"}),
            ("nu_n^2 . g_{n+6}(C)", {"nu", "g"}),
            ("2 sigma_10 . g_17(C) - P(nu_21) . S^18 p", {"sigma", "g", "P", "nu", "p"}),
            ("odd nu_8 . sigma_11", {"nu", "sigma"}),
            ("eta_2 . ext(alpha_1_5(3))", {"eta", "alpha"}),
        ],
    )
    def test_families(self, text, families):
        assert families_of(text) == families

    def test_primes_stay_in_family(self):
        assert families_of("sigma'''") == {"sigma'''"}
        assert families_of("nu'") == {"nu'"}

    def test_symbolic_markers_are_not_families(self):
        assert families_of("g_10(C)") == {"g"}
        assert families_of("beta_1(n)") == {"beta"}

    def test_nested_argument_contributes_families(self):
        assert families_of("P(iota_25)") == {"P", "iota"}


class TestErrors:
    @pytest.mark.parametrize(
        "bad,pos,msg",
        [
            pytest.param(bad, pos, msg, id=bad)
            for bad, pos, msg in [
                ("", 0, "empty name"),
                ("   ", 0, "empty name"),
                ("nu_4 .", 6, "expected identifier"),
                ("ext(", 4, "expected identifier"),
                ("[i_6,i_6", 8, "expected ']'"),
                ("nu_4 +", 6, "expected identifier"),
                ("(nu_4)", 0, "expected identifier"),
                ("3", 1, "expected identifier"),
            ]
        ],
    )
    def test_rejects(self, bad, pos, msg):
        with pytest.raises(NameParseError) as exc:
            families_of(bad)
        assert exc.value.pos == pos
        assert str(exc.value) == f"cannot parse generator name {bad!r} at {pos}: {msg}"

    def test_error_carries_position(self):
        with pytest.raises(NameParseError) as exc:
            families_of("nu_4 . ")
        assert exc.value.text == "nu_4 ."
        assert exc.value.pos == 6

    @pytest.mark.parametrize(
        "nest",
        [
            lambda x, d: "S " * d + x,
            lambda x, d: "ext(" * d + x + ")" * d,
            lambda x, d: "P(" * d + x + ")" * d,
        ],
        ids=["suspension", "ext", "argument"],
    )
    def test_nesting_depth_is_bounded(self, nest):
        depth = symbols.MAX_NESTING
        assert families_of(nest("eta_2 . mu_3", depth - 1)) >= {"eta", "mu"}
        with pytest.raises(NameParseError, match="nested deeper than"):
            families_of(nest("eta_2 . mu_3", depth))
        with pytest.raises(NameParseError, match="nested deeper than"):
            families_of(nest("eta_2 . mu_3", 2000))


# Tokens of the generator-name grammar, plus a few characters outside it.
TOKENS = [
    "S ", "S^", "S^{n+1} ", "ext(", "coext(", "(", ")", "[", "]", ",", " + ",
    " - ", " . ", "odd ", "2 ", "3", "_", "^2", "{", "}", "'", "C", "n", "nu",
    "eta_2", "sigma'", "P", "p", "i_6", " ", "#", "=",
]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=30).map("".join))
def test_random_names_raise_only_name_parse_errors(text):
    try:
        families = families_of(text)
    except NameParseError:
        return
    assert isinstance(families, frozenset) and families
