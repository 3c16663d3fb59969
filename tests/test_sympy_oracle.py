"""`compose` and `substitute` checked against sympy's noncommutative expansion.

The oracle rebuilds every polynomial as a sympy expression in noncommutative
symbols from its terms, multiplies the images of the letters of each word as
sympy expressions and lets sympy expand the result; it shares no arithmetic
with `freeinv.freealg` or `freeinv.scalars`.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from freeinv import compose, substitute

import strategies as S

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1:3", commutative=False)


def to_sympy(poly, letters=X):
    """The polynomial with letter x_i read as letters[i - 1]; the default is
    the noncommutative symbols X."""
    total = sympy.Integer(0)
    for word, c in poly.terms():
        coeff = sympy.Rational(c.real.numerator, c.real.denominator) + sympy.I * sympy.Rational(
            c.imag.numerator, c.imag.denominator
        )
        total += coeff * sympy.Mul(*[letters[i - 1] for _, i in word])
    return total


def sympy_substitute(poly, images):
    """The substitution x_i -> images[i], expanded by sympy."""
    return sympy.expand(to_sympy(poly, [to_sympy(q) for q in images]))


def same(a, b):
    return sympy.expand(a - b) == 0


small_polys = S.polys(max_len=2, max_terms=3)


@given(S.polys(max_len=3, max_terms=3), small_polys, small_polys)
def test_substitute_matches_sympy(f, q1, q2):
    result = substitute(f, {("x", 1): q1, ("x", 2): q2})
    assert same(to_sympy(result), sympy_substitute(f, (q1, q2)))


@given(st.tuples(small_polys, small_polys), st.tuples(small_polys, small_polys))
def test_compose_matches_sympy(p, q):
    for got, comp in zip(compose(p, q), p):
        assert same(to_sympy(got), sympy_substitute(comp, q))


def test_oracle_sees_noncommutativity():
    # the oracle must tell x1*x2 from x2*x1, or it could not catch a swapped product
    assert not same(X[0] * X[1], X[1] * X[0])
    assert same((X[0] + X[1]) ** 2, X[0] ** 2 + X[0] * X[1] + X[1] * X[0] + X[1] ** 2)
