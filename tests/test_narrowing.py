"""Narrowest-type coefficients: every stored coefficient is an int when the
value is an integer, else a Fraction when it is real, else a GaussianRational.

Each polynomial result is also checked against a reference that keeps every
coefficient as an un-narrowed (re, im) pair of Fractions and shares no
arithmetic with `freeinv.scalars` or `freeinv.freealg`.
"""

import operator
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from freeinv import FreePoly, GaussianRational, compose, substitute
from freeinv.bipartite import BipartitePoly
from freeinv.parsing import format_poly, parse_poly
from freeinv.scalars import exact

import strategies as S

I = GaussianRational(0, 1)
x1 = FreePoly.letter("x", 1)
X1 = (("x", 1),)

gr = st.builds(
    GaussianRational,
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6),
)


def is_narrowest(c):
    if type(c) is int:
        return True
    if type(c) is Fraction:
        return c.denominator != 1
    return type(c) is GaussianRational and c.im != 0


def assert_narrow(poly):
    for key, c in poly.terms():
        assert is_narrowest(c), (key, c)


# -- the un-narrowed reference: {key: (re, im)} with Fraction parts ---------------


def ref(poly):
    return {k: (Fraction(c.real), Fraction(c.imag)) for k, c in poly.terms()}


def r_mul_scalar(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def r_collect(pairs):
    """Sum (key, (re, im)) pairs by key and drop zero sums."""
    out = {}
    for k, (re, im) in pairs:
        pre, pim = out.get(k, (Fraction(0), Fraction(0)))
        out[k] = (pre + re, pim + im)
    return {k: c for k, c in out.items() if c[0] or c[1]}


def r_add(a, b, sign=1):
    return r_collect(list(a.items()) + [(k, (sign * re, sign * im)) for k, (re, im) in b.items()])


def r_mul(a, b, concat=operator.add):
    return r_collect(
        (concat(ka, kb), r_mul_scalar(ca, cb)) for ka, ca in a.items() for kb, cb in b.items()
    )


R_ONE = {(): (Fraction(1), Fraction(0))}


def r_substitute(f, images):
    total = {}
    for w, c in f.items():
        term = {(): c}
        for let in w:
            term = r_mul(term, images[let])
        total = r_add(total, term)
    return total


# -- scalars ----------------------------------------------------------------------


def test_hash_agrees_with_equality():
    # equal values must hash equal, or dict and set lookups miss
    for g, v in [(GaussianRational(3), 3), (GaussianRational(Fraction(-1, 2)), Fraction(-1, 2)),
                 (GaussianRational(0), 0)]:
        assert g == v and hash(g) == hash(v)
        assert {g: 1}.get(v) == 1 and {v: 1}.get(g) == 1
    assert len({GaussianRational(3), 3, Fraction(3)}) == 1


@given(gr)
def test_hash_matches_narrowed_value(a):
    assert a == exact(a) and hash(a) == hash(exact(a))


def test_scalar_edge_cases():
    assert type(I * I) is int and I * I == -1
    prod = GaussianRational(1, 1) * GaussianRational(1, -1)
    assert type(prod) is int and prod == 2
    assert type(GaussianRational(1, 1) - I) is int
    assert type(I / GaussianRational(0, 2)) is Fraction
    assert type(I + I) is GaussianRational
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    assert type(exact(GaussianRational(Fraction(1, 2)))) is Fraction
    assert type(exact(True)) is int
    assert exact(1.5) is None and exact("1") is None


@given(gr, gr)
def test_scalar_results_have_the_narrowest_type(a, b):
    results = [a + b, a - b, a * b, -a, a.conjugate()] + ([b / a] if a else [])
    assert all(is_narrowest(r) for r in results)


# -- polynomials ------------------------------------------------------------------


def test_polynomial_edge_cases():
    square = FreePoly.scalar(I) * FreePoly.scalar(I)
    assert type(square.constant_term()) is int and square == -1
    prod = (x1 * GaussianRational(1, 1)) * (x1 * GaussianRational(1, -1))
    assert type(prod.coefficient(X1 * 2)) is int and prod.coefficient(X1 * 2) == 2
    assert type(FreePoly({X1: Fraction(4, 2)}).coefficient(X1)) is int
    halves = x1 * Fraction(1, 2) + x1 * Fraction(1, 2)
    assert type(halves.coefficient(X1)) is int and halves == x1
    assert type(FreePoly.monomial(X1, GaussianRational(3)).coefficient(X1)) is int
    assert type(parse_poly("(1+i)*x1 - i*x1").coefficient(X1)) is int
    assert type(FreePoly.scalar(GaussianRational(Fraction(6, 3))).constant_term()) is int


@given(S.polys(), S.polys())
def test_ring_operations_stay_narrow(a, b):
    ra, rb = ref(a), ref(b)
    for result, expected in [
        (a + b, r_add(ra, rb)),
        (a - b, r_add(ra, rb, -1)),
        (a * b, r_mul(ra, rb)),
        (-a, r_add({}, ra, -1)),
    ]:
        assert_narrow(result)
        assert ref(result) == expected


@given(S.polys(max_terms=2), st.integers(0, 3))
def test_powers_stay_narrow(a, n):
    expected = R_ONE
    for _ in range(n):
        expected = r_mul(expected, ref(a))
    result = a**n
    assert_narrow(result)
    assert ref(result) == expected


@given(S.polys(), S.polys(max_len=2), S.polys(max_len=2))
def test_substitute_and_compose_stay_narrow(f, q1, q2):
    images = {("x", 1): q1, ("x", 2): q2}
    result = substitute(f, images)
    assert_narrow(result)
    assert ref(result) == r_substitute(ref(f), {k: ref(v) for k, v in images.items()})
    composed = compose((f, q1), (q1, q2))
    r_images = {("x", 1): ref(q1), ("x", 2): ref(q2)}
    for got, comp in zip(composed, (f, q1)):
        assert_narrow(got)
        assert ref(got) == r_substitute(ref(comp), r_images)


@given(S.polys())
def test_transpose_and_parse_stay_narrow(f):
    t = f.transpose()
    assert_narrow(t)
    assert ref(t) == r_collect((w[::-1], c) for w, c in ref(f).items())
    back = parse_poly(format_poly(f))
    assert_narrow(back)
    assert ref(back) == ref(f)


@given(S.polys(), S.polys())
def test_tensor_stays_narrow(a, b):
    t = BipartitePoly.tensor(a, b)
    assert_narrow(t)
    assert ref(t) == r_mul(ref(a), ref(b), concat=lambda u, v: (u, v))
