"""Core free-algebra arithmetic, with an independent multiplication oracle."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from freeinv import BipartitePoly, FreePoly, GaussianRational, UnboundLetter, substitute
from freeinv.freealg import POS_INF, substitute_tracked

import strategies as S

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)
z1 = FreePoly.letter("z", 1)
z2 = FreePoly.letter("z", 2)
one = FreePoly.one()


def oracle_mul(a: FreePoly, b: FreePoly) -> FreePoly:
    """Term-by-term concatenation product, independent of FreePoly.__mul__."""
    acc = {}
    for wa, ca in a.terms():
        for wb, cb in b.terms():
            w = tuple(wa) + tuple(wb)
            acc[w] = acc.get(w, GaussianRational(0)) + ca * cb
    return FreePoly(acc)


def test_mul_monomials():
    assert x1 * x2 == FreePoly.monomial((("x", 1), ("x", 2)))


def test_mul_identity():
    f = x1 * x2 - x2 * x1
    assert f * one == f
    assert one * f == f


def test_mul_expansion_against_oracle():
    lhs = (one + x1) * (one - x1)
    assert lhs == oracle_mul(one + x1, one - x1)
    assert lhs == one - x1**2


@given(S.polys(), S.polys())
def test_mul_matches_oracle(a, b):
    assert a * b == oracle_mul(a, b)


@given(S.polys(), S.polys(), S.polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * one == a and one * a == a


@given(S.nonzero_polys(), S.nonzero_polys())
def test_degree_additive_on_products(a, b):
    assert (a * b).degree() == a.degree() + b.degree()


def test_degree_examples():
    assert (x2 - x1 * x2 * x1).degree() == 3
    assert FreePoly.zero().degree() == float("-inf")
    assert one.degree() == 0


def test_dz_degree_examples():
    f1, f2 = x1, x2 + x1 * z2 * z1
    assert min(f1.dz_degree(), f2.dz_degree()) == 3
    assert (x1 + x2).dz_degree() == POS_INF
    assert z1.dz_degree() == 1


@given(
    S.constant_free_polys(kinds="xz", max_index=2),
    S.constant_free_polys(kinds="xz", max_index=2),
)
def test_dz_subadditivity(a, b):
    da, db = a.dz_degree(), b.dz_degree()
    assert (a + b).dz_degree() >= min(da, db)
    dprod = (a * b).dz_degree()
    assert dprod >= min(da, db)
    if not (da == POS_INF and db == POS_INF) and a and b:
        assert dprod > min(da, db)


def test_transpose_examples():
    assert (x1 * x2).transpose() == x2 * x1
    f = x1 + x2**2
    assert f.transpose() == f
    y1 = FreePoly.letter("y", 1)
    y2 = FreePoly.letter("y", 2)
    assert (y1 * y2).transpose() == y2 * y1


@given(S.polys(), S.polys())
def test_transpose_anti_automorphism(a, b):
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert a.transpose().transpose() == a


def test_truncate_examples():
    f = sum((x1**j * x2 * x1**j for j in range(6)), FreePoly.zero())
    expected = sum((x1**j * x2 * x1**j for j in range(4)), FreePoly.zero())
    assert f.truncate(7) == expected  # lengths 2j+1 <= 7
    g = x2 - x1 * x2 * x1
    assert g.truncate(int(g.degree())) == g
    assert one.truncate(0) == one


@given(S.constant_free_polys(kinds="xz"), S.constant_free_polys(), S.constant_free_polys())
def test_truncation_commutes_with_constant_free_substitution(f, im1, im2):
    images = {("z", 1): im1, ("z", 2): im2}
    w = 3
    full = substitute(f, images, default_identity=True)
    direct = full.truncate(w)
    via_trunc = substitute(
        f.truncate(w),
        {k: v.truncate(w) for k, v in images.items()},
        default_identity=True,
        trunc=w,
    )
    assert direct == via_trunc


def test_substitute_composition_example():
    # composing (x1, x2 + x1^2) after (x1 + x2^2, x2)
    p_outer = (x1, x2 + x1**2)
    images = {("x", 1): x1 + x2**2, ("x", 2): x2}
    composed = tuple(substitute(c, images) for c in p_outer)
    assert composed == (x1 + x2**2, x2 + (x1 + x2**2) ** 2)


def test_substitute_identity():
    f = x1 * x2
    assert substitute(f, {("x", 1): x1, ("x", 2): x2}) == f


def test_substitute_z_words():
    q1, q2 = x1, x2 + x1**2
    res = substitute(z2 * z1, {("z", 1): q1, ("z", 2): q2})
    assert res == oracle_mul(q2, q1)
    assert res == (x2 + x1**2) * x1


def test_substitute_unbound_letter():
    try:
        substitute(x1 * z1, {("x", 1): x1})
    except UnboundLetter:
        pass
    else:
        raise AssertionError("expected UnboundLetter")


def test_substitute_tracked_reports_truncation():
    f = z1 * z1
    img = {("z", 1): x1 + x1**2}
    full, dropped = substitute_tracked(f, img, trunc=10)
    assert not dropped and full.degree() == 4
    cut, dropped = substitute_tracked(f, img, trunc=3)
    assert dropped and cut == full.truncate(3)


def test_scalar_arithmetic_in_polys():
    half = GaussianRational(Fraction(1, 2))
    f = x1 * half + x1 * half
    assert f == x1
    assert (x1 - x1) == FreePoly.zero()
    assert FreePoly.scalar(GaussianRational(0, 1)) ** 2 == FreePoly.scalar(-1)


@given(S.polys(kinds="xz", max_index=2))
def test_hash_consistent_with_eq(f):
    g = FreePoly(dict(f.terms()))
    assert f == g and hash(f) == hash(g)


exact_scalars = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    S.coefficients,
)


@given(st.sampled_from([FreePoly, BipartitePoly]), exact_scalars)
def test_constant_hashes_as_its_coefficient(ring, c):
    # a constant equals its coefficient, so a dict keyed by one finds the other
    assert hash(ring.scalar(c)) == hash(c)
    assert {c: 1}[ring.scalar(c)] == 1
