"""Grammar round trips and parse errors."""

import sys
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
from freeinv.freealg import KINDS, MAX_INDEX
from freeinv.parsing import format_matrix_tuple, parse_scalar

import strategies as S
from hypothesis import example, given

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)
# a digit string longer than int() reads (4,300 digits by default)
LONG = "9" * 5000
TOO_LONG = f"a number may have at most {sys.get_int_max_str_digits()} digits"


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


def test_coefficient_times_the_empty_word():
    y1 = (("y", 1),)
    assert parse_poly("2*1") == FreePoly.scalar(2)
    assert parse_poly("x1 + (1+2i)*1") == x1 + FreePoly.scalar(parse_scalar("1+2i"))
    assert parse_bipartite("2*1 (x) y1") == BipartitePoly({((), y1): 2})
    assert parse_poly("k185685") == FreePoly.letter("k", 185685)


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
    # an entry longer than int() reads, as a JSON string or number
    for entry in (f'"{LONG}"', LONG, f'"1/{LONG}"'):
        assert TOO_LONG in parse_error(parse_matrix_tuple, f"[[[{entry}]]]")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '[[["1", "2"], ["3", "1/0"]]]',
            "matrix 1, row 2, column 2: zero denominator (col 3 of the entry)",
        ),
        (
            '[[["1"]], [["2$"]]]',
            "matrix 2, row 1, column 1: unexpected character '$' (col 2 of the entry)",
        ),
        (
            '[[["1", 1.5], ["0", "1"]]]',
            "matrix 1, row 1, column 2: unexpected character '.' (col 2 of the entry)",
        ),
        (
            '[[["1", "0"], [true, "1"]]]',
            "matrix 1, row 2, column 1: unexpected character 't' (col 1 of the entry)",
        ),
        (
            '[[["1 +\\n x1"]]]',
            "matrix 1, row 1, column 1: expected a number (line 2, col 2 of the entry)",
        ),
    ],
)
def test_matrix_entry_errors_name_the_entry(text, message):
    # the position is inside the entry's text, not the JSON
    assert parse_error(parse_matrix_tuple, text) == message


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
        # a `*` after a coefficient needs a letter or the empty word `1`
        (parse_poly, "2*", "expected a letter or 1 after '*' (line 1, col 3)"),
        (parse_poly, "x1 + 2*", "expected a letter or 1 after '*' (line 1, col 8)"),
        (parse_poly, "(1+2i)*", "expected a letter or 1 after '*' (line 1, col 8)"),
        (parse_poly, "2* + x1", "expected a letter or 1 after '*' (line 1, col 4)"),
        (parse_bipartite, "2* (x) 1", "expected a letter or 1 after '*' (line 1, col 4)"),
        (parse_bipartite, "1 (x) 1 - 2*", "expected a letter or 1 after '*' (line 1, col 13)"),
        # a letter index the word codec cannot encode is reported at the letter
        (parse_poly, "x200000", "letter index must be from 1 to 185685 in 'x200000' (line 1, col 1)"),
        (parse_poly, "x1*k185686", "letter index must be from 1 to 185685 in 'k185686' (line 1, col 4)"),
        (parse_poly, "x0 + x1", "letter index must be from 1 to 185685 in 'x0' (line 1, col 1)"),
        (parse_bipartite, "y1 (x) y185686", "letter index must be from 1 to 185685 in 'y185686' (line 1, col 8)"),
        # a word longer than MAX_WORD_LENGTH = 2**20 letters is reported at the
        # letter or exponent that makes it so, before its letters are built
        (parse_poly, "x1^100000000", "a word may have at most 1048576 letters (line 1, col 4)"),
        (parse_poly, "x1*x2^1048576", "a word may have at most 1048576 letters (line 1, col 7)"),
        (parse_poly, "x1^1048576*x2", "a word may have at most 1048576 letters (line 1, col 12)"),
        (parse_bipartite, "1 (x) y1^" + "9" * 5000, "a word may have at most 1048576 letters (line 1, col 10)"),
        (parse_scalar, "1 2", "unexpected token '2' (line 1, col 3)"),
        (parse_scalar, "1 + x1", "expected a number (line 1, col 5)"),
    ],
)
def test_parse_error_messages_and_columns(parse, text, message):
    assert parse_error(parse, text) == message


def test_a_number_longer_than_int_reads_is_a_parse_error():
    # reported at the numerator, the denominator or the letter
    assert parse_error(parse_poly, f"x1 + {LONG}*x2") == f"{TOO_LONG} (line 1, col 6)"
    assert parse_error(parse_bipartite, f"1/{LONG} (x) y1") == f"{TOO_LONG} (line 1, col 3)"
    assert parse_error(parse_scalar, f"1 + {LONG}i") == f"{TOO_LONG} (line 1, col 5)"
    assert parse_error(parse_poly, f"x1*x{LONG}") == f"{TOO_LONG} (line 1, col 4)"


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


# -- the term order of the bipartite renderer ---------------------------------

# every kind, and indices whose digit strings sort apart from their values
every_side = st.lists(
    st.tuples(st.sampled_from(KINDS), st.sampled_from([1, 2, 9, 10, 11, 100, MAX_INDEX])), max_size=3
).map(tuple)


def graded_lex(w):
    """A decoded word's order: length, then its letters, each by kind and then index."""
    return len(w), [(KINDS.index(kind), i) for kind, i in w]


@given(st.lists(st.tuples(every_side, every_side), unique=True, max_size=8))
@example([((("x", 10),), ()), ((("x", 9),), ()), ((), (("k", 1),)), ((("x", 2),), (("y", 1),)), ((("x", 1),) * 2, ())])
def test_format_bipartite_writes_terms_in_graded_lex_order(pairs):
    # the coefficient n + 2 marks the n-th pair, so the printed coefficients
    # give the order the renderer chose
    text = format_bipartite(BipartitePoly({pair: n + 2 for n, pair in enumerate(pairs)}))
    printed = [int(term.split("*", 1)[0]) - 2 for term in text.split(" + ")] if pairs else []
    expected = sorted(
        range(len(pairs)),
        key=lambda n: (len(pairs[n][0]) + len(pairs[n][1]), graded_lex(pairs[n][0]), graded_lex(pairs[n][1])),
    )
    assert printed == expected
