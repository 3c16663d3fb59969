"""The multiply-accumulate kernels and the exact elimination, checked against
reference arithmetic written here.

A reference polynomial is a dict keyed by tuple words (free ring) or by
pairs of tuple words (bipartite ring), and a reference scalar is an
un-narrowed (re, im) pair of Fractions.  Nothing here calls the arithmetic of
`freeinv`: the program's results are read out through `terms()` and
compared by value, and the type of every stored coefficient is compared with
the narrowest type of its value (int, else Fraction, else GaussianRational).
`Poly.__mul__`, `Matrix.__mul__` and `poly_matrix_inverse` run on the
kernels; `linalg.inverse` and `linalg.solve` on the fraction-free
elimination.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from freeinv import BipartiteMatrix, BipartitePoly, FreePoly, GaussianRational, PolyMatrix, linalg
from freeinv.jacobian import (
    REASON_NO_INVERSE_UP_TO_CAP,
    REASON_SINGULAR_CONSTANT,
    REASON_TERM_BUDGET,
    NotPolyInvertible,
    poly_matrix_inverse,
)

# -- reference scalars: (re, im) pairs of Fractions ----------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def value(c):
    return (Fraction(c.real), Fraction(c.imag))


def s_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def s_neg(a):
    return (-a[0], -a[1])


def s_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def s_inv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


def narrowest_type(v):
    re, im = v
    if im:
        return GaussianRational
    return int if re.denominator == 1 else Fraction


def to_scalar(v):
    """A program-side coefficient of value v (narrowed by the constructors)."""
    return GaussianRational(*v)


# -- reference rings ------------------------------------------------------------


class Words:
    one = ()
    poly = FreePoly
    matrix = PolyMatrix

    @staticmethod
    def times(k1, k2):
        return k1 + k2

    @staticmethod
    def degree(k):
        return len(k)


class Pairs:
    one = ((), ())
    poly = BipartitePoly
    matrix = BipartiteMatrix

    @staticmethod
    def times(k1, k2):
        return (k1[0] + k2[0], k1[1] + k2[1])

    @staticmethod
    def degree(k):
        return len(k[0]) + len(k[1])


def r_add(f, g):
    out = dict(f)
    for k, c in g.items():
        out[k] = s_add(out.get(k, ZERO), c)
    return {k: c for k, c in out.items() if c != ZERO}


def r_mul(f, g, ring):
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = ring.times(k1, k2)
            out[k] = s_add(out.get(k, ZERO), s_mul(c1, c2))
    return {k: c for k, c in out.items() if c != ZERO}


def r_matmul(a, b, ring):
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = {}
            for k, e in enumerate(row):
                acc = r_add(acc, r_mul(e, b[k][j], ring))
            out[-1].append(acc)
    return out


def r_identity(n, ring):
    return [[{ring.one: ONE} if i == j else {} for j in range(n)] for i in range(n)]


def observe(poly):
    """The reference dict of a program polynomial, after checking that every
    stored coefficient is nonzero and has the narrowest type of its value."""
    out = {}
    for k, c in poly.terms():
        v = value(c)
        assert v != ZERO, (k, c)
        assert type(c) is narrowest_type(v), (k, c)
        out[k] = v
    return out


def build(ref, ring):
    return ring.poly({k: to_scalar(c) for k, c in ref.items()})


def observe_matrix(m):
    return [[observe(e) for e in row] for row in m.entries]


def build_matrix(ref, ring):
    return ring.matrix([[build(e, ring) for e in row] for row in ref])


# -- reference Gauss-Jordan on (re, im) pairs -----------------------------------


def r_solve(a, rhs):
    """a^-1 rhs by textbook Gauss-Jordan, or None when a is singular."""
    n = len(a)
    work = [list(ra) + list(rb) for ra, rb in zip(a, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != ZERO), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = s_inv(work[col][col])
        work[col] = [s_mul(e, inv) for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != ZERO:
                f = work[r][col]
                work[r] = [s_add(e, s_neg(s_mul(f, p))) for e, p in zip(work[r], work[col])]
    return [row[n:] for row in work]


# -- reference series inverse ---------------------------------------------------


def r_series_inverse(M, ring, cap, max_terms):
    """("inverse", rows) or ("none", reason): M = M0 - N, layer 0 is M0^-1 and
    layer m is M0^-1 (N_1 L_{m-1} + ... + N_e L_{m-e}); e consecutive zero
    layers end the series, a nonzero layer past the cap ends the search, the
    terms of the layers up to the cap count against the budget once a layer
    past 0 is added, and the total is an inverse only if M*R = I = R*M."""
    n = len(M)
    m0 = [[e.get(ring.one, ZERO) for e in row] for row in M]
    inv = r_solve(m0, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])
    if inv is None:
        return "none", REASON_SINGULAR_CONSTANT
    m0_inv = [[{ring.one: c} if c != ZERO else {} for c in row] for row in inv]
    N = [[{k: s_neg(c) for k, c in e.items() if k != ring.one} for e in row] for row in M]
    deg_n = max((ring.degree(k) for row in N for e in row for k in e), default=0)
    if deg_n == 0:
        return "inverse", m0_inv
    parts = {
        d: [[{k: c for k, c in e.items() if ring.degree(k) == d} for e in row] for row in N]
        for d in range(1, deg_n + 1)
    }
    layers = [m0_inv]
    total = m0_inv
    terms = sum(len(e) for row in m0_inv for e in row)
    zero_run = 0
    for m in range(1, cap + deg_n + 1):
        acc = [[{} for _ in range(n)] for _ in range(n)]
        for d in range(1, min(m, deg_n) + 1):
            prod = r_matmul(parts[d], layers[m - d], ring)
            acc = [[r_add(a, p) for a, p in zip(ra, rp)] for ra, rp in zip(acc, prod)]
        layer = r_matmul(m0_inv, acc, ring)
        layers.append(layer)
        if all(not e for row in layer for e in row):
            zero_run += 1
            if zero_run == deg_n:
                break
            continue
        if m > cap:
            return "none", REASON_NO_INVERSE_UP_TO_CAP
        zero_run = 0
        total = [[r_add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(total, layer)]
        terms += sum(len(e) for row in layer for e in row)
        if max_terms is not None and terms > max_terms:
            return "none", REASON_TERM_BUDGET
    ident = r_identity(n, ring)
    if r_matmul(M, total, ring) == ident and r_matmul(total, M, ring) == ident:
        return "inverse", total
    return "none", REASON_NO_INVERSE_UP_TO_CAP


def engine(M, ring, cap, max_terms):
    res = poly_matrix_inverse(build_matrix(M, ring), cap, max_terms=max_terms)
    if isinstance(res, NotPolyInvertible):
        assert res.cap == cap
        return "none", res.reason
    assert type(res) is ring.matrix
    return "inverse", observe_matrix(res)


# -- inputs ----------------------------------------------------------------------

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# every exact scalar type, GaussianRationals with a zero imaginary part included
scalars = st.one_of(
    st.integers(-3, 3).map(lambda i: (Fraction(i), Fraction(0))),
    fractions.map(lambda q: (q, Fraction(0))),
    st.tuples(fractions, st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])),
)
nonzero_scalars = scalars.filter(lambda v: v != ZERO)

x_words = st.lists(st.sampled_from((("x", 1), ("x", 2))), max_size=3).map(tuple)
KEYS = {
    Words: x_words,
    Pairs: st.tuples(st.lists(st.just(("y", 1)), max_size=2).map(tuple), x_words),
}
rings = st.sampled_from((Words, Pairs))


def ref_polys(ring, max_terms=4):
    return st.dictionaries(KEYS[ring], nonzero_scalars, max_size=max_terms)


def ref_matrices(ring, rows, cols):
    return st.lists(st.lists(ref_polys(ring), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


# -- Poly.__mul__ ------------------------------------------------------------------


@given(st.data())
def test_poly_product_matches_reference(data):
    ring = data.draw(rings)
    f, g = data.draw(ref_polys(ring)), data.draw(ref_polys(ring))
    assert observe(build(f, ring) * build(g, ring)) == r_mul(f, g, ring)


x1, x2 = (("x", 1),), (("x", 2),)
y1 = (("y", 1),)
HALF = (Fraction(1, 2), Fraction(0))
TWO = (Fraction(2), Fraction(0))
I = (Fraction(0), Fraction(1))


@pytest.mark.parametrize("ring", [Words, Pairs], ids=["words", "pairs"])
def test_product_cancels_to_zero_and_narrows(ring):
    one = ring.one
    a = (x1, ()) if ring is Pairs else x1
    # (a + i)(a - i) = a^2 + 1: the a terms cancel, i * -i is the int 1
    f = build({a: ONE, one: I}, ring)
    g = build({a: ONE, one: s_neg(I)}, ring)
    prod = f * g
    assert observe(prod) == {ring.times(a, a): ONE, one: ONE}
    assert {type(c) for _, c in prod.terms()} == {int}
    # (1/2 a + 1/2)(a + 1): the a coefficient 1/2 + 1/2 is the int 1
    h = build({a: HALF, one: HALF}, ring) * build({a: ONE, one: ONE}, ring)
    assert type(dict(h.terms())[a]) is int
    # (a + 1)(a - 1) - (a^2 - 1) is the zero polynomial
    zero = build({a: ONE, one: ONE}, ring) * build({a: ONE, one: s_neg(ONE)}, ring) - build(
        {ring.times(a, a): ONE, one: s_neg(ONE)}, ring
    )
    assert len(zero) == 0 and zero.terms() == []


# -- Matrix.__mul__ ----------------------------------------------------------------


@given(st.data())
def test_matrix_product_matches_reference(data):
    ring = data.draw(rings)
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(ref_matrices(ring, r, k))
    b = data.draw(ref_matrices(ring, k, c))
    prod = build_matrix(a, ring) * build_matrix(b, ring)
    assert type(prod) is ring.matrix
    assert observe_matrix(prod) == r_matmul(a, b, ring)


@pytest.mark.parametrize("ring", [Words, Pairs], ids=["words", "pairs"])
def test_matrix_product_entry_cancels_to_zero(ring):
    a = (x1, y1) if ring is Pairs else x1
    row = [[{a: HALF}, {ring.one: ONE}]]
    col = [[{ring.one: (Fraction(2), Fraction(0))}], [{a: s_neg(ONE)}]]
    prod = build_matrix(row, ring) * build_matrix(col, ring)
    assert prod.entries[0][0].terms() == []
    assert prod == ring.matrix([[ring.poly.zero()]])


# -- poly_matrix_inverse -------------------------------------------------------------

DIAGONAL = [ONE, s_neg(ONE), (Fraction(2), Fraction(0)), HALF, I, (Fraction(1), Fraction(1))]


@st.composite
def series_cases(draw):
    ring = draw(rings)
    n = draw(st.integers(1, 3))
    # M0: unit or non-unit triangular (its inverse has Fraction and Gaussian
    # entries), or any small integer matrix (singular ones included)
    shape = draw(st.sampled_from(("unit", "triangular", "any")))
    upper = draw(st.booleans())
    # N's support: anywhere, or strictly on M0's side (the series then ends)
    support = draw(st.sampled_from(("any", "side")))
    small = st.integers(-2, 2).map(lambda i: (Fraction(i), Fraction(0)))
    M = []
    for i in range(n):
        row = []
        for j in range(n):
            on_side = j > i if upper else j < i
            if shape == "any":
                const = draw(small)
            elif i == j:
                const = ONE if shape == "unit" else draw(st.sampled_from(DIAGONAL))
            else:
                const = draw(scalars) if on_side else ZERO
            terms = {}
            if support == "any" or on_side:
                keys = st.lists(KEYS[ring].filter(lambda k: ring.degree(k) >= 1), max_size=2)
                for key in draw(keys):
                    terms[key] = draw(nonzero_scalars)
            if const != ZERO:
                terms[ring.one] = const
            row.append(terms)
        M.append(row)
    cap = draw(st.integers(0, 6))
    max_terms = draw(st.one_of(st.none(), st.integers(0, 12)))
    return ring, M, cap, max_terms


@settings(max_examples=120)
@given(series_cases())
def test_series_inverse_matches_reference(case):
    ring, M, cap, max_terms = case
    assert engine(M, ring, cap, max_terms) == r_series_inverse(M, ring, cap, max_terms)


def one_minus(ring, key, c=ONE):
    return {ring.one: ONE, key: s_neg(c)}


@pytest.mark.parametrize(
    "ring, M, cap, max_terms, expected",
    [
        # 1/(1 - x1) never ends: cut by the cap, or first by the term budget
        (Words, [[one_minus(Words, x1)]], 2, None, ("none", REASON_NO_INVERSE_UP_TO_CAP)),
        (Words, [[one_minus(Words, x1)]], 3, 3, ("none", REASON_TERM_BUDGET)),
        (Words, [[one_minus(Words, x1)]], 2, 3, ("none", REASON_NO_INVERSE_UP_TO_CAP)),
        # layer 0 alone over the budget: no budget exit before layer 1
        (Words, [[one_minus(Words, x1)]], 0, 0, ("none", REASON_NO_INVERSE_UP_TO_CAP)),
        (Pairs, [[one_minus(Pairs, (y1, x1))]], 1, None, ("none", REASON_NO_INVERSE_UP_TO_CAP)),
        (Words, [[{}, {Words.one: ONE}], [{Words.one: ONE}, {}]], 0, None, None),
        (Pairs, [[{(y1, ()): ONE}]], 4, None, ("none", REASON_SINGULAR_CONSTANT)),
        # unit triangular with a Gaussian and a Fraction entry: the series ends
        (Words, [[{Words.one: I}, {x2: ONE, x1 + x2: HALF}], [{}, {Words.one: HALF}]], 4, None, None),
        # layer 1 is -2*x1 times 1/2, the Fraction -1 that must be stored as an int
        (Words, [[{Words.one: ONE}, {x1: TWO}], [{}, {Words.one: TWO}]], 2, None, None),
        (Pairs, [[{Pairs.one: ONE}, {(y1, x1): TWO}], [{}, {Pairs.one: TWO}]], 2, None, None),
        # (y1, x2) has degree 2: layer 1 is zero and layer 2 the last nonzero one
        (Pairs, [[{Pairs.one: (Fraction(2), Fraction(0))}, {(y1, x2): I}], [{}, {Pairs.one: ONE}]], 2, 3, None),
        (Pairs, [[{Pairs.one: (Fraction(2), Fraction(0))}, {(y1, x2): I}], [{}, {Pairs.one: ONE}]], 2, 2,
         ("none", REASON_TERM_BUDGET)),
    ],
)
def test_series_inverse_verdicts(ring, M, cap, max_terms, expected):
    ref = r_series_inverse(M, ring, cap, max_terms)
    if expected is None:
        assert ref[0] == "inverse"
    else:
        assert ref == expected
    assert engine(M, ring, cap, max_terms) == ref


# -- linalg.inverse and linalg.solve ------------------------------------------------

ENTRY_KINDS = {
    "int": st.integers(-3, 3),
    "fraction": fractions,
    "gaussian": st.builds(GaussianRational, fractions, st.sampled_from([0, 0, 1, -1, Fraction(1, 3)])),
}
ENTRY_KINDS["mixed"] = st.one_of(*ENTRY_KINDS.values())


@st.composite
def square_matrices(draw):
    kind = draw(st.sampled_from(sorted(ENTRY_KINDS)))
    n = draw(st.integers(1, 4))
    entries = ENTRY_KINDS[kind]
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # make one row a multiple of another: singular
        i, j = draw(st.permutations(range(n)))[:2]
        f = draw(entries)
        a[i] = [f * e for e in a[j]]
    b = draw(st.lists(entries, min_size=n, max_size=n))
    return a, b


def check_scalars(got, expected):
    assert [[value(c) for c in row] for row in got] == expected
    for row, ref_row in zip(got, expected):
        for c, v in zip(row, ref_row):
            assert type(c) is narrowest_type(v), (c, v)


@settings(max_examples=300)
@given(square_matrices())
def test_inverse_and_solve_match_reference(case):
    a, b = case
    n = len(a)
    ra = [[value(e) for e in row] for row in a]
    ref_inv = r_solve(ra, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])
    inv = linalg.inverse(tuple(map(tuple, a)))
    sol = linalg.solve(tuple(map(tuple, a)), tuple(b))
    if ref_inv is None:
        assert inv is None and sol is None
        return
    check_scalars(inv, ref_inv)
    ref_sol = r_solve(ra, [[value(e)] for e in b])
    check_scalars([sol], [[row[0] for row in ref_sol]])


def test_inverse_of_an_integer_matrix_divides_once_per_entry():
    # det = -2: the last pivot; entries come out as ints and halves
    assert linalg.inverse(((1, 2), (3, 4))) == ((-2, 1), (Fraction(3, 2), Fraction(-1, 2)))
    assert [type(c) for row in linalg.inverse(((0, 1), (1, 0))) for c in row] == [int] * 4
    assert linalg.inverse(((2, 4), (1, 2))) is None
    assert linalg.inverse(((GaussianRational(0, 1),),)) == ((GaussianRational(0, -1),),)
