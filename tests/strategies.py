"""Hypothesis strategies for small exact polynomials."""

from fractions import Fraction

import hypothesis.strategies as st

from freeinv import FreePoly, GaussianRational, ProperAlgebraicSystem, compose

coefficients = st.builds(
    GaussianRational,
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
    st.sampled_from([Fraction(0)] * 6 + [Fraction(1), Fraction(-1)]),
).filter(bool)


def letters(kinds="x", max_index=2):
    return st.tuples(st.sampled_from(kinds), st.integers(1, max_index))


def words(kinds="x", max_index=2, max_len=3):
    return st.lists(letters(kinds, max_index), max_size=max_len).map(tuple)


def polys(kinds="x", max_index=2, max_len=3, max_terms=3):
    return st.dictionaries(
        words(kinds, max_index, max_len), coefficients, max_size=max_terms
    ).map(FreePoly)


def nonzero_polys(**kw):
    return polys(**kw).filter(bool)


def constant_free_polys(kinds="x", max_index=2, max_len=3, max_terms=3):
    return st.dictionaries(
        words(kinds, max_index, max_len).filter(lambda w: len(w) >= 1),
        coefficients,
        max_size=max_terms,
    ).map(FreePoly)


def constant_free_maps(g=2, max_len=2, max_terms=2):
    return st.tuples(
        *[constant_free_polys(max_index=g, max_len=max_len, max_terms=max_terms) for _ in range(g)]
    )


def proper_systems(h=2, max_len=3, max_terms=3):
    """Proper systems over x1..xh and z1..zh: no constant term and every word
    containing a z-letter has length at least two."""
    word = words("xz", max_index=h, max_len=max_len).filter(
        lambda w: len(w) >= 2 or (len(w) == 1 and w[0][0] == "x")
    )
    comp = st.dictionaries(word, coefficients, max_size=max_terms).map(FreePoly)
    return st.tuples(*[comp] * h).map(ProperAlgebraicSystem)


def tame_maps():
    """Automorphisms of the free algebra on x1, x2: the triangular map
    (a1*x1, a2*x2 + h(x1)), with a1, a2 nonzero and h of degree 2..3 in x1,
    after the shear x1 -> x1 + c*x2, with int, Fraction and Gaussian
    coefficients.  Their left Jacobians have polynomial inverses."""
    x1, x2 = FreePoly.letter("x", 1), FreePoly.letter("x", 2)
    h = st.dictionaries(
        st.integers(2, 3).map(lambda n: (("x", 1),) * n), coefficients, max_size=2
    ).map(FreePoly)

    def build(a1, a2, c, h):
        return compose((x1 * a1, x2 * a2 + h), (x1 + x2 * c, x2))

    return st.builds(build, coefficients, coefficients, coefficients | st.just(0), h)
