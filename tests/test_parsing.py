import pytest

from sosperturb import parsing
from sosperturb.errors import ParseError, VariableOutOfRangeError
from sosperturb.parsing import parse


def test_simple_univariate():
    assert parse("1 - x1^2", 1).terms == {(0,): 1.0, (2,): -1.0}


def test_motzkin_expression():
    p = parse("1 + x1^2*x2^2*(x1^2 + x2^2 - 3)", 2)
    assert p.terms == {(0, 0): 1.0, (4, 2): 1.0, (2, 4): 1.0, (2, 2): -3.0}


def test_zero():
    p = parse("0", 3)
    assert p.is_zero


def test_rational_literal():
    assert parse("4/27", 1).coeff((0,)) == 4.0 / 27.0
    assert parse("1/2*x1", 1).coeff((1,)) == 0.5
    assert parse("1.5/0.5", 1).coeff((0,)) == 3.0
    # evaluated exactly, then rounded once: 10^310 overflows a double, these
    # quotients do not
    huge = "1" + "0" * 310
    p = parse(f"1/{huge} + x1", 1)
    assert p.coeff((0,)) == 1e-310 and p.coeff((1,)) == 1.0
    assert parse(f"{huge}/{huge}*x1^2", 1).coeff((2,)) == 1.0


def test_decimal_literal():
    assert parse("1.5*x1^2", 1).coeff((2,)) == 1.5


def test_nesting_up_to_the_limit():
    assert parsing.MAX_NESTING == 100
    assert parse("(" * 100 + "x1" + ")" * 100, 1).terms == {(1,): 1.0}
    # parentheses side by side do not nest
    assert parse("+".join(["(x1)"] * 101), 1).terms == {(1,): 101.0}


def test_nesting_past_the_limit():
    text = "x1 + " + "(" * 101 + "x1" + ")" * 101
    with pytest.raises(ParseError, match="nested more than 100 deep") as err:
        parse(text, 1)
    # the 101st opening parenthesis
    assert err.value.position == 5 + 100


def test_power_of_parenthesized_expression():
    p = parse("(1 - x1^2)^3", 1)
    assert p.terms == {(0,): 1.0, (2,): -3.0, (4,): 3.0, (6,): -1.0}


def test_power_binds_tighter_than_unary_minus():
    assert parse("-x1^2", 1).terms == {(2,): -1.0}


def test_leading_sign():
    assert parse("-1", 1).terms == {(0,): -1.0}
    assert parse("+x1", 1).terms == {(1,): 1.0}


def test_whitespace_insignificant():
    assert parse("  1-x1 ^ 2 ", 1).terms == parse("1 - x1^2", 1).terms


def test_variable_out_of_range():
    with pytest.raises(VariableOutOfRangeError) as err:
        parse("x3", 2)
    assert err.value.position == 0


def test_variable_index_zero_rejected():
    with pytest.raises(VariableOutOfRangeError):
        parse("x0", 2)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse("2 x1", 1)
    with pytest.raises(ParseError):
        parse("(1 + x1)(1 - x1)", 1)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2", 1)
    assert err.value.position == 4


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse("(1 + x1", 1)


def test_unclosed_parenthesis_before_more_input():
    with pytest.raises(ParseError, match="expected '\\)', found 'x1'") as err:
        parse("(1 + x1 x1)", 1)
    assert err.value.position == 8


def test_rational_literal_division_by_zero():
    with pytest.raises(ParseError, match="division by zero") as err:
        parse("x1 + 1/0", 1)
    assert err.value.position == 5


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^1.5", 1)


def test_empty_input():
    with pytest.raises(ParseError):
        parse("   ", 1)


def test_unknown_character():
    with pytest.raises(ParseError) as err:
        parse("x1 & x1", 1)
    assert err.value.position == 3


def test_overflowing_coefficient_rejected():
    # a 400-digit literal or quotient, and a product of finite literals,
    # overflow to inf
    with pytest.raises(ParseError):
        parse("1" + "0" * 400 + " - x1^2", 1)
    with pytest.raises(ParseError, match="overflows a double"):
        parse("1" + "0" * 400 + "/3 - x1^2", 1)
    with pytest.raises(ParseError):
        parse("(10^200)^2 - x1^2", 1)
