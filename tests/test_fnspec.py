"""Expression language for command-line test functions."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraflow.errors import FunctionSpecError
from ultraflow.fnspec import FunctionExpr, parse_function
from ultraflow.functionals import extremal_profile

Z = np.linspace(-0.9, 0.9, 7)
N = 4.0


def ev(text: str, z=Z, n: float = N) -> np.ndarray:
    return parse_function(text)(z, n)


class TestAtoms:
    @pytest.mark.parametrize(
        "text,value",
        [("2", 2.0), ("2.5", 2.5), (".5", 0.5), ("1e-3", 1e-3), ("2.5E2", 250.0)],
    )
    def test_number_literals(self, text, value):
        out = ev(text)
        assert out.shape == Z.shape  # scalars broadcast over the grid
        assert np.all(out == value)

    def test_variable(self):
        assert np.array_equal(ev("z"), Z)

    def test_const_ignores_the_variable(self):
        out = ev("const(-2.5)")
        assert out.shape == Z.shape
        assert np.all(out == -2.5)

    def test_parentheses(self):
        assert np.allclose(ev("(1+z)/2"), (1.0 + Z) / 2.0)


class TestArithmetic:
    def test_precedence(self):
        assert np.allclose(ev("1+2*z"), 1.0 + 2.0 * Z)

    def test_left_associative_subtraction(self):
        assert np.all(ev("1-2-3") == -4.0)

    def test_left_associative_division(self):
        assert np.all(ev("12/4/3") == 1.0)

    def test_unary_minus(self):
        assert np.array_equal(ev("-z"), -Z)
        assert np.array_equal(ev("--z"), Z)
        assert np.array_equal(ev("+-z"), -Z)

    def test_unary_minus_binds_below_power(self):
        assert np.allclose(ev("-z^2"), -(Z**2))

    def test_unary_minus_as_right_operand(self):
        assert np.allclose(ev("z*-2"), -2.0 * Z)

    def test_whitespace_insensitive(self):
        assert np.allclose(ev(" 1 + 2 * z "), ev("1+2*z"))


class TestPowers:
    def test_caret_and_double_star_agree(self):
        assert np.allclose(ev("z^3"), ev("z**3"))
        assert np.allclose(ev("z^3"), Z**3)

    def test_signed_exponents(self):
        assert np.allclose(ev("(2+z)^-1"), 1.0 / (2.0 + Z))
        assert np.all(ev("2**-2") == 0.25)

    def test_fractional_exponent(self):
        assert np.all(ev("2^0.5") == pytest.approx(np.sqrt(2.0)))
        assert np.allclose(ev("(1+z)^2.5"), (1.0 + Z) ** 2.5)

    def test_exponent_must_be_a_literal(self):
        with pytest.raises(FunctionSpecError, match="expected a number"):
            parse_function("z^(2)")
        with pytest.raises(FunctionSpecError, match="expected a number"):
            parse_function("z^z")


class TestFunctions:
    def test_exp(self):
        assert np.allclose(ev("exp(z)"), np.exp(Z))
        assert np.allclose(ev("exp(-z+1)"), np.exp(1.0 - Z))

    def test_abs(self):
        assert np.allclose(ev("abs(z-0.5)"), np.abs(Z - 0.5))

    def test_fab_matches_the_profile_family(self):
        for n in (2.5, 3.0, 4.0):
            out = ev("fab(2, -0.3)", n=n)
            assert np.allclose(out, extremal_profile(n, -0.3, Z, a=2.0))

    def test_fab_has_a_negative_exponent(self):
        # larger |1 - b z| means smaller value
        out = ev("fab(1, 0.5)", n=4.0)
        assert out[0] < out[-1]  # z = -0.9 vs z = 0.9 with b > 0

    def test_fab_signed_arguments(self):
        assert np.allclose(ev("fab(-1, -0.5)", n=3.0), -ev("fab(1, -0.5)", n=3.0))

    @pytest.mark.parametrize("b", ["1", "-1", "1.5"])
    def test_fab_rejects_wide_slopes(self, b):
        with pytest.raises(FunctionSpecError, match=r"\|b\| < 1"):
            parse_function(f"fab(1, {b})")

    def test_power_of_a_function_atom(self):
        assert np.all(ev("const(2)^2") == 4.0)


class TestErrors:
    def test_empty_input(self):
        for text in ("", "   "):
            with pytest.raises(FunctionSpecError, match="empty") as excinfo:
                parse_function(text)
            assert excinfo.value.position == 0

    def test_bad_character_position(self):
        with pytest.raises(FunctionSpecError, match=r"unexpected character '\$'") as excinfo:
            parse_function("1 + $")
        assert excinfo.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(FunctionSpecError, match="unknown function 'foo'") as excinfo:
            parse_function("foo(z)")
        assert excinfo.value.position == 0

    def test_case_sensitive_variable(self):
        with pytest.raises(FunctionSpecError, match="unknown function 'Z'"):
            parse_function("Z")

    def test_truncated_input(self):
        with pytest.raises(FunctionSpecError, match="end of input") as excinfo:
            parse_function("1 + ")
        assert excinfo.value.position == 4

    def test_unbalanced_parenthesis(self):
        with pytest.raises(FunctionSpecError, match=r"expected '\)'"):
            parse_function("(1+z")

    def test_trailing_input(self):
        with pytest.raises(FunctionSpecError, match="trailing") as excinfo:
            parse_function("1 2")
        assert excinfo.value.position == 2

    def test_function_needs_parentheses(self):
        with pytest.raises(FunctionSpecError, match=r"expected '\('"):
            parse_function("exp z")

    def test_message_carries_the_position(self):
        with pytest.raises(FunctionSpecError, match=r"\(at position 2\)"):
            parse_function("1 2")


class TestLongAndDeepInputs:
    def test_deep_parentheses_raise_with_the_position(self):
        with pytest.raises(FunctionSpecError, match="nesting deeper than 64") as excinfo:
            parse_function("(" * 2000 + "z" + ")" * 2000)
        assert excinfo.value.position == 64

    def test_many_unary_signs_raise_with_the_position(self):
        with pytest.raises(FunctionSpecError, match="nesting deeper than 64") as excinfo:
            parse_function("-" * 5000 + "z")
        assert excinfo.value.position == 64

    def test_nesting_up_to_the_limit_parses(self):
        assert np.array_equal(ev("(" * 63 + "z" + ")" * 63), Z)
        assert np.array_equal(ev("-" * 62 + "z"), Z)

    def test_long_sum_evaluates_left_to_right(self):
        # 5,000 terms, one flat loop: the same operations in the same order
        text, want = "z", Z
        for k in range(4999):
            op, c = "+-"[k % 2], 0.1 * (k % 7)
            text += f"{op}{c!r}*z"
            want = want + c * Z if op == "+" else want - c * Z
        assert np.array_equal(ev(text), want)

    def test_long_product_evaluates_left_to_right(self):
        text, want = "(1+z/8)", 1.0 + Z / 8.0
        for k in range(2999):
            op = "*/"[k % 2]
            text += f"{op}(1+z/{k % 5 + 8})"
            f = 1.0 + Z / (k % 5 + 8.0)
            want = want * f if op == "*" else want / f
        assert np.array_equal(ev(text), want)


_PIECES = ["z", "1", ".5", "2e-1", "3.", " ", "+", "-", "*", "/", "^", "**", "(", ")", ",",
           "exp(", "abs(", "const(", "fab(", "e", "x", "q"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789.eE+-*/^(),z abcfpostx", max_size=40),
                 st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)))
def test_any_string_over_the_alphabet_parses_or_raises_the_spec_error(text):
    try:
        expr = parse_function(text)
    except FunctionSpecError:
        return
    assert isinstance(expr, FunctionExpr)


class TestFunctionExpr:
    def test_repr_shows_the_source(self):
        expr = parse_function("1+z")
        assert isinstance(expr, FunctionExpr)
        assert "1+z" in repr(expr)

    def test_scalar_evaluation(self):
        expr = parse_function("exp(z)")
        assert float(expr(0.5, 3.0)) == pytest.approx(np.exp(0.5))

    def test_dimension_is_threaded_through(self):
        expr = parse_function("fab(1, 0.5)")
        at3 = expr(0.5, 3.0)
        at5 = expr(0.5, 5.0)
        assert float(at3) == pytest.approx(0.75 ** (-0.5))
        assert float(at5) == pytest.approx(0.75 ** (-1.5))
