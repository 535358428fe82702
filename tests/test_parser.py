"""Parser: grammar, precedence, error positions, print/parse round trips."""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathlib import Path

from plauscalc import parser
from plauscalc.epsnum import EPS, ONE, ZERO, EpsRational, const
from plauscalc.parser import MAX_DEPTH, MAX_SIZE, EpsSyntaxError, parse_eps_expr
from plauscalc.scenario import load_scenario

from conftest import rand_eps_rational

REPO = Path(__file__).resolve().parent.parent


class TestGrammar:
    def test_rational_plus_eps(self):
        assert parse_eps_expr("1/2 + eps") == const(Fr(1, 2)) + EPS

    def test_quotient_of_polynomials(self):
        assert parse_eps_expr("(1+eps)/(2-eps)") == (ONE + EPS) / (2 - EPS)

    def test_power_binds_before_division(self):
        assert parse_eps_expr("eps^2/3") == EPS ** 2 / 3

    def test_power_binds_before_division_of_literals(self):
        assert parse_eps_expr("2/3^2") == const(Fr(2, 9))

    def test_power_binds_before_multiplication(self):
        assert parse_eps_expr("2*eps^3") == 2 * EPS ** 3

    def test_left_associative_terms(self):
        assert parse_eps_expr("8/2/2") == const(2)
        assert parse_eps_expr("1 - 2 - 3") == const(-4)

    def test_unary_minus(self):
        assert parse_eps_expr("-eps") == -EPS
        assert parse_eps_expr("-1/2") == const(Fr(-1, 2))

    def test_whitespace_insensitive(self):
        assert parse_eps_expr(" ( 1 + eps ) / 2 ") == parse_eps_expr("(1+eps)/2")


class TestErrors:
    def test_dangling_operator_position(self):
        with pytest.raises(EpsSyntaxError) as err:
            parse_eps_expr("eps +")
        assert err.value.position == 5

    @pytest.mark.parametrize(
        "text", ["", "(1", "1 +* 2", "foo", "eps^-1", "eps^(2)", "1 2", "2 ** 3"]
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(EpsSyntaxError):
            parse_eps_expr(text)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_eps_expr("1/0")
        with pytest.raises(ZeroDivisionError):
            parse_eps_expr("1/(1 - 1)")

    @pytest.mark.parametrize("text, position", [("1/0)", 3), ("(1/0", 4), ("1/0 +", 5)])
    def test_syntax_error_wins_over_division_by_zero(self, text, position):
        with pytest.raises(EpsSyntaxError) as err:
            parse_eps_expr(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["2/0/0", "1/0^2", "(1/0)^0", "-(1/0) + 1"])
    def test_division_by_zero_survives_later_operations(self, text):
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            parse_eps_expr(text)


class TestDigits:
    @pytest.mark.parametrize("text, position", [("\u00b2", 0), ("eps^\u00b2", 4), ("1/2\u00b2", 3)])
    def test_superscript_digit_is_an_unexpected_character(self, text, position):
        with pytest.raises(EpsSyntaxError, match="unexpected character '\u00b2'") as err:
            parse_eps_expr(text)
        assert err.value.position == position

    def test_other_decimal_digits_parse(self):
        # Arabic-Indic three and four, which int() accepts
        assert parse_eps_expr("\u0663/\u0664 + eps^\u0662") == const(Fr(3, 4)) + EPS ** 2


def by_rules(text):
    return parser._Parser(parser._tokenize(text)).parse()


def outcome(parse, text):
    try:
        x = parse(text)
    except (EpsSyntaxError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return [(type(c), c) for c in x.num.coeffs], [(type(c), c) for c in x.den.coeffs]


class TestLiteralRoute:
    """A plain ``p`` or ``p/q`` gives exactly what the rules give, error included."""

    @pytest.mark.parametrize("text", [
        "0", "7", "007", "0/5", "00/0003", "6/4", "1/1", "123456789012345678901234567890/35",
        "1/0", "0/0", "007/000",
        "1" * 4301, "1/" + "1" * 4301, "1" * 4301 + "/2", "1" * 4300 + "/" + "3" * 4300,
        " 1/2", "1/2 ", "1 / 2", "-1/2", "+1", "1/-2", "1//2", "1/", "/2", "1/2/3", "3/2\n",
        "\u0663/\u0664",
    ], ids=lambda t: repr(t) if len(t) < 30 else f"{len(t)}-chars")
    def test_same_outcome_as_the_rules(self, text):
        assert outcome(parse_eps_expr, text) == outcome(by_rules, text)

    @given(st.integers(0, 10 ** 40), st.integers(0, 10 ** 40), st.integers(0, 3),
           st.integers(0, 3), st.booleans())
    def test_random_literals(self, p, q, zp, zq, fraction):
        text = "0" * zp + str(p) + ("/" + "0" * zq + str(q) if fraction else "")
        assert outcome(parse_eps_expr, text) == outcome(by_rules, text)

    def rules_runs(self, monkeypatch):
        runs = []

        class Counting(parser._Parser):
            def __init__(self, tokens):
                runs.append(tokens)
                super().__init__(tokens)

        monkeypatch.setattr(parser, "_Parser", Counting)
        return runs

    def test_only_plain_literals_skip_the_rules(self, monkeypatch):
        runs = self.rules_runs(monkeypatch)
        for text in ("3", "3/4", "0/4"):
            parse_eps_expr(text)
        assert runs == []
        for text in (" 3", "3/4 ", "1/0", "-3", "eps"):
            try:
                parse_eps_expr(text)
            except ZeroDivisionError:
                pass
        assert len(runs) == 5

    def test_gelman_scenario_runs_no_rules(self, monkeypatch):
        # every number in the file is a plain literal
        runs = self.rules_runs(monkeypatch)
        load_scenario(str(REPO / "scenarios" / "gelman.json"))
        assert runs == []


class TestRoundTrip:
    def test_random_values_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            x = rand_eps_rational(rng, max_deg=4, bound=25)
            assert parse_eps_expr(str(x)) == x

    @given(
        st.integers(-30, 30),
        st.integers(1, 30),
        st.integers(-30, 30),
        st.integers(0, 4),
    )
    def test_constructed_values_round_trip(self, a, b, c, k):
        x = const(Fr(a, b)) + c * EPS ** k
        assert parse_eps_expr(str(x)) == x

    def test_notable_forms(self):
        for text in ("0", "1", "eps", "1/(eps)", "eps/2", "1 - eps", "(1 + 2*eps)/(2 + eps)"):
            v = parse_eps_expr(text)
            assert parse_eps_expr(str(v)) == v


# (input, words of the EpsSyntaxError it must raise)
HOSTILE = [
    ("(" * 3000 + "1" + ")" * 3000, "tokens"),  # was an uncaught RecursionError
    ("(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1), "deep"),
    ("-" * (MAX_DEPTH + 1) + "1", "deep"),
    ("(1+eps)^2000", "too large"),  # took seconds before any limit
    (f"eps^{MAX_SIZE + 1}", "too large"),
    ("((1+eps)^16)^16", "too large"),  # nested powers multiply
    ("*".join(["(1+eps)^16"] * 9), "too large"),  # products add
    ("(eps+eps+eps+eps)^0*" * 65 + "1", "too large"),  # x^0 still evaluates x
    ("+".join(["((1))"] * 200), "tokens"),
    ("1" * 5000, "literal too long"),  # longer than the interpreter converts
    ("eps^" + "9" * 5000, "literal too long"),
]


class TestLimits:
    @pytest.mark.parametrize("text, why", HOSTILE)
    def test_hostile_input_is_a_syntax_error(self, text, why):
        with pytest.raises(EpsSyntaxError, match=why):
            parse_eps_expr(text)

    @pytest.mark.parametrize(
        "text", [text for text, _ in HOSTILE] + ["7^3354046", "eps^378030251/0"]
    )
    def test_size_is_checked_before_the_power(self, monkeypatch, text):
        power = EpsRational.__pow__

        def bounded_power(x, n):
            assert n <= MAX_SIZE, f"computed a power {n} before checking its size"
            return power(x, n)

        monkeypatch.setattr(EpsRational, "__pow__", bounded_power)
        with pytest.raises(EpsSyntaxError):
            parse_eps_expr(text)

    def test_limits_are_inclusive(self):
        assert parse_eps_expr("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH) == ONE
        assert parse_eps_expr("-" * MAX_DEPTH + "1") == const(1 if MAX_DEPTH % 2 == 0 else -1)
        assert parse_eps_expr(f"eps^{MAX_SIZE}") == EPS ** MAX_SIZE
        assert parse_eps_expr("+".join(["eps"] * MAX_SIZE)) == MAX_SIZE * EPS

    def test_benchmark_sized_expressions_are_admitted(self):
        # degree-12 numerator over degree-6 denominator, the largest shape the
        # benchmark generator writes
        num = " + ".join(f"{-97 + 13 * i}*eps^{i}" for i in range(13))
        den = " + ".join(f"{5 + i}*eps^{i}" for i in range(7))
        x = parse_eps_expr(f"({num})/({den})")
        assert (len(x.num.coeffs) - 1, len(x.den.coeffs) - 1, x.degree) == (12, 6, 12)

