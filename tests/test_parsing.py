"""Grammar round trips and parse errors."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest

from freeinv import (
    BipartitePoly,
    FreePoly,
    GaussianRational,
    ParseError,
    format_bipartite,
    format_poly,
    parse_bipartite,
    parse_matrix_tuple,
    parse_poly,
)
from freeinv.parsing import format_matrix_tuple, parse_scalar

import strategies as S
from hypothesis import example, given

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)


def test_parse_basic():
    assert parse_poly("x2 - x1*x2*x1") == x2 - x1 * x2 * x1
    assert parse_poly("x1^3") == x1**3
    assert parse_poly("1") == FreePoly.one()
    assert parse_poly("0") == FreePoly.zero()
    assert parse_poly("-1/2*x1") == x1 * parse_scalar("-1/2")
    assert parse_poly("2i") == FreePoly.scalar(parse_scalar("2i"))
    assert parse_poly("(1+2i)*x1") == x1 * parse_scalar("1+2i")
    assert parse_poly("x1 + x1") == 2 * x1
    assert parse_poly(" x1 \n + x2 ") == x1 + x2


@pytest.mark.parametrize(
    "text, value",
    [
        ("x1^0", FreePoly.one()),
        ("x2 + x1^0", x2 + 1),
        ("-x1^0", FreePoly.scalar(-1)),
        ("2*x1^0", FreePoly.scalar(2)),
        ("x1^0*x2", x2),
    ],
)
def test_zeroth_power_is_the_empty_word(text, value):
    # a term that consumed a token is a term, even when its word is empty
    assert parse_poly(text) == value


def test_round_trip_canonical():
    s = "x2 - x1*x2*x1"
    assert format_poly(parse_poly(s)) == s


@given(S.polys(kinds="xyz", max_index=3, max_len=4, max_terms=4))
def test_round_trip_random(f):
    assert parse_poly(format_poly(f)) == f


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + @")
    assert "col 6" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("x1 *")
    with pytest.raises(ParseError):
        parse_poly("")


def test_bipartite_round_trip():
    b = parse_bipartite("y2*y1 (x) 1")
    assert format_bipartite(b) == "y2*y1 (x) 1"
    y1w = (("y", 1),)
    assert b == BipartitePoly({((("y", 2), ("y", 1)), ()): 1})
    b2 = parse_bipartite("1 (x) 1 - y1 (x) x1")
    assert format_bipartite(b2) == "1 (x) 1 - y1 (x) x1"
    assert parse_bipartite(format_bipartite(b2)) == b2
    assert b2 - b2 == BipartitePoly.zero()
    assert format_bipartite(BipartitePoly({(y1w, y1w): 2})) == "2*y1 (x) y1"


def test_matrix_tuple_round_trip():
    text = '[[["0","1"],["0","0"]],[["1/2","0"],["0","-1/2+1i"]]]'
    X = parse_matrix_tuple(text)
    assert X.n == 2 and X.arity == 2
    again = parse_matrix_tuple(format_matrix_tuple(X))
    assert again == X


def test_matrix_tuple_errors():
    with pytest.raises(ParseError):
        parse_matrix_tuple("not json")
    with pytest.raises(ParseError):
        parse_matrix_tuple('[[["1","0"]]]')  # not square


def test_scalar_forms():
    assert parse_scalar("3").re == 3
    assert parse_scalar("-1/2").re == parse_scalar("1/2").re * -1
    assert parse_scalar("i").im == 1
    assert parse_scalar("1-2i").im == -2


def parse_error(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_poly, "", "expected a term (line 1, col 1)"),
        (parse_poly, "x1 +", "expected a term (line 1, col 5)"),
        (parse_poly, "x1 + + x2", "expected a term (line 1, col 6)"),
        (parse_poly, "-", "expected a term (line 1, col 2)"),
        (parse_poly, "+", "expected a term (line 1, col 2)"),
        (parse_poly, "(1+2i x1", "expected ')' (line 1, col 7)"),
        (parse_poly, "x1 x2", "unexpected token 'x2' (line 1, col 4)"),
        (parse_poly, "x1\n + 2 )", "unexpected token ')' (line 2, col 6)"),
        (parse_poly, "x1 (x) x2", "unexpected token '(x)' (line 1, col 4)"),
        (parse_bipartite, "", "expected a bipartite term (line 1, col 1)"),
        (parse_bipartite, "1 (x) 1 - ", "expected a bipartite term (line 1, col 11)"),
        (parse_bipartite, "+ * y1", "expected a bipartite term (line 1, col 3)"),
        (parse_bipartite, "y1 x1", "expected '(x)' between the two sides (line 1, col 4)"),
        (parse_bipartite, "y1", "expected '(x)' between the two sides (line 1, col 3)"),
        (parse_bipartite, "y1^0", "expected '(x)' between the two sides (line 1, col 5)"),
        (parse_bipartite, "2", "expected '(x)' between the two sides (line 1, col 2)"),
        (parse_bipartite, "(1+i (x) 1", "expected ')' (line 1, col 6)"),
        (parse_bipartite, "y1 (x) 1 x1", "unexpected token 'x1' (line 1, col 10)"),
        (parse_bipartite, "y1 (x) y2 (x) 1", "unexpected token '(x)' (line 1, col 11)"),
        (parse_scalar, "1 2", "unexpected token '2' (line 1, col 3)"),
        (parse_scalar, "1 + x1", "expected a number (line 1, col 5)"),
    ],
)
def test_parse_error_messages_and_columns(parse, text, message):
    assert parse_error(parse, text) == message


def test_leading_sign_in_both_rings():
    y1 = (("y", 1),)
    assert parse_poly("-x1 + x2") == x2 - x1
    assert parse_poly("+x1 - 2") == x1 - 2
    assert parse_poly("- 1/2*x1") == x1 * parse_scalar("-1/2")
    assert parse_poly("-(1+2i)*x1") == x1 * parse_scalar("-1-2i")
    assert parse_bipartite("-1 (x) y1") == BipartitePoly({((), y1): -1})
    assert parse_bipartite("+ y1 (x) 1") == BipartitePoly({(y1, ()): 1})
    assert parse_bipartite("-3*y1 (x) y1 + y1 (x) y1") == BipartitePoly({(y1, y1): -2})


def test_format_sign_parentheses_and_unit_coefficients_in_both_rings():
    y1, y2 = (("y", 1),), (("y", 2),)
    c = parse_scalar("1+2i")
    f = FreePoly({(): -1, (("x", 1),): 1, (("x", 2),): -1, (("x", 1), ("x", 2)): c}) + 2 * x2 * x2
    assert format_poly(f) == "-1 + x1 - x2 + (1+2i)*x1*x2 + 2*x2^2"
    assert format_poly(FreePoly.scalar(c)) == "(1+2i)"
    assert format_poly(FreePoly.scalar(parse_scalar("-i"))) == "-i"
    assert format_poly(x1 * parse_scalar("-1/2")) == "-1/2*x1"
    assert format_poly(FreePoly.zero()) == "0"
    b = BipartitePoly({((), ()): c, (y1, ()): -1, ((), y2): parse_scalar("-3/4"), (y1, y2): 1})
    assert format_bipartite(b) == "(1+2i)*1 (x) 1 - 3/4*1 (x) y2 - y1 (x) 1 + y1 (x) y2"
    assert format_bipartite(BipartitePoly({(y1, y2): parse_scalar("-i")})) == "-i*y1 (x) y2"
    assert format_bipartite(BipartitePoly.zero()) == "0"
    for g in (f, FreePoly.scalar(c), x1 * parse_scalar("-1/2")):
        assert parse_poly(format_poly(g)) == g


# -- round trips in both rings, every coefficient type -------------------------------

# non-unit, Fraction and Gaussian coefficients, units included
all_coefficients = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), -2]),
).filter(bool)
sides = S.words(kinds="xy", max_index=3, max_len=3)  # the empty word included
Y1 = (("y", 1),)


@given(st.dictionaries(S.words(kinds="xyz", max_index=3, max_len=3), all_coefficients, max_size=4).map(FreePoly))
def test_poly_round_trip_every_coefficient_type(f):
    assert parse_poly(format_poly(f)) == f


@given(st.dictionaries(st.tuples(sides, sides), all_coefficients, max_size=4).map(BipartitePoly))
@example(BipartitePoly({((), ()): GaussianRational(1, 2), ((), Y1): 2, (Y1, ()): Fraction(-1, 3)}))
@example(BipartitePoly({((), Y1): GaussianRational(0, -1), (Y1, Y1): GaussianRational(Fraction(1, 2), 1)}))
def test_bipartite_round_trip_random(b):
    assert parse_bipartite(format_bipartite(b)) == b


def test_empty_left_side_after_a_coefficient():
    # the first entry that `freeinv hypojac -g 2 "x1 - 2*x1^2" x2` prints
    text = "1 (x) 1 - 2*1 (x) y1 - 2*y1 (x) 1"
    b = parse_bipartite(text)
    assert b == BipartitePoly({((), ()): 1, ((), Y1): -2, (Y1, ()): -2})
    assert format_bipartite(b) == text
    assert parse_bipartite("(1+2i)*1 (x) 1") == BipartitePoly({((), ()): GaussianRational(1, 2)})
    assert parse_poly("2*1 + x1") == x1 + 2
    assert parse_bipartite("0") == BipartitePoly.zero()
