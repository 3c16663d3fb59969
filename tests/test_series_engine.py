"""`poly_matrix_inverse` checked against a dense reference written here.

The reference is the textbook layer recurrence on full matrices: with
M = M0 - N, layer 0 is M0^-1 and layer m is M0^-1 (N_1 L_{m-1} + ... +
N_e L_{m-e}), every layer up to the cap is added to the total, e consecutive
zero layers stop early, and the total is returned only if M*R = I = R*M.  It
shares nothing with the engine but the polynomial ring arithmetic.
"""

import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from freeinv import BipartiteMatrix, FreePoly, PolyMatrix, injectivity_test
from freeinv.jacobian import (
    REASON_NO_INVERSE_UP_TO_CAP,
    REASON_TERM_BUDGET,
    NotPolyInvertible,
    poly_matrix_inverse,
)

from corpus import NILPOTENT

one = FreePoly.one()
x1, x2 = FreePoly.letter("x", 1), FreePoly.letter("x", 2)

# -- dense reference ---------------------------------------------------------


def mat_mul(a, b, ring):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ring.zero()) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_add(a, b):
    return [[p + q for p, q in zip(ra, rb)] for ra, rb in zip(a, b)]


def unit_triangular_inverse(c):
    """Inverse of an integer unit-triangular matrix: the finite Neumann sum of
    the nilpotent part."""
    n = len(c)
    nil = [[-c[i][j] if i != j else 0 for j in range(n)] for i in range(n)]
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    power = out
    for _ in range(n - 1):
        power = [[sum(power[i][k] * nil[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        out = [[out[i][j] + power[i][j] for j in range(n)] for i in range(n)]
    return out


def ref_inverse(entries, ring, cap, max_terms):
    """("inverse", rows) or ("none", reason)."""
    n = len(entries)
    m0 = [[e.constant_term() for e in row] for row in entries]
    m0_inv = [[ring.scalar(c) for c in row] for row in unit_triangular_inverse(m0)]
    N = [[ring.scalar(m0[i][j]) - entries[i][j] for j in range(n)] for i in range(n)]
    deg_n = max(e.degree() for row in N for e in row)
    if deg_n < 1:
        return "inverse", m0_inv
    deg_n = int(deg_n)
    parts = {d: [[e.homogeneous_part(d) for e in row] for row in N] for d in range(1, deg_n + 1)}
    layers = [m0_inv]
    total = m0_inv
    terms = sum(len(e) for row in total for e in row)
    zero_run = 0
    for m in range(1, cap + 1):
        acc = [[ring.zero()] * n for _ in range(n)]
        for d in range(1, min(m, deg_n) + 1):
            acc = mat_add(acc, mat_mul(parts[d], layers[m - d], ring))
        layer = mat_mul(m0_inv, acc, ring)
        layers.append(layer)
        if all(not e for row in layer for e in row):
            zero_run += 1
            if zero_run >= deg_n:
                break
        else:
            zero_run = 0
            total = mat_add(total, layer)
            terms += sum(len(e) for row in layer for e in row)
            if max_terms is not None and terms > max_terms:
                return "none", REASON_TERM_BUDGET
    ident = [[ring.scalar(int(i == j)) for j in range(n)] for i in range(n)]
    if mat_mul(entries, total, ring) == ident and mat_mul(total, entries, ring) == ident:
        return "inverse", total
    return "none", REASON_NO_INVERSE_UP_TO_CAP


def engine(M, cap, max_terms=None):
    res = poly_matrix_inverse(M, cap, max_terms=max_terms)
    if isinstance(res, NotPolyInvertible):
        assert res.cap == cap
        return "none", res.reason
    assert type(res) is type(M)
    return "inverse", [list(row) for row in res.entries]


# -- inputs ------------------------------------------------------------------

RINGS = {
    PolyMatrix: st.lists(st.sampled_from((("x", 1), ("x", 2))), min_size=1, max_size=3).map(tuple),
    # one left letter keeps the number of degree-m keys near 2^m
    BipartiteMatrix: st.tuples(
        st.lists(st.just(("y", 1)), max_size=3).map(tuple),
        st.lists(st.sampled_from((("x", 1), ("x", 2))), max_size=3).map(tuple),
    ).filter(lambda k: 1 <= len(k[0]) + len(k[1]) <= 3),
}


@st.composite
def series_cases(draw):
    cls = draw(st.sampled_from(list(RINGS)))
    n = draw(st.integers(1, 3))
    upper = draw(st.booleans())
    # N's support: anywhere (the series rarely ends), or strictly on the same
    # side as M0's off-diagonal (M stays unit triangular and its inverse ends)
    support = draw(st.sampled_from(("any", "triangular")))
    small = st.integers(-2, 2)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            on_side = j > i if upper else j < i
            const = 1 if i == j else draw(small) if on_side else 0
            terms = {}
            if support == "any" or on_side:
                for key in draw(st.lists(RINGS[cls], max_size=2)):
                    terms[key] = draw(small.filter(bool))
            row.append(cls.ring.scalar(const) + cls.ring(terms))
        entries.append(row)
    cap = draw(st.integers(0, 8))
    max_terms = draw(st.one_of(st.none(), st.integers(0, 12)))
    return cls(entries), cap, max_terms


@settings(max_examples=150)
@given(series_cases())
def test_engine_matches_dense_reference(case):
    M, cap, max_terms = case
    expected = ref_inverse([list(row) for row in M.entries], M.ring, cap, max_terms)
    assert engine(M, cap, max_terms) == expected


# -- lone non-unit diagonal blocks --------------------------------------------


@st.composite
def lone_block_cases(draw):
    """A block upper-triangular matrix, rows and columns permuted alike, with
    an invertible constant part and one 1x1 diagonal block that is not
    constant; other blocks are 1x1 or 2x2 with any entries."""
    cls = draw(st.sampled_from(list(RINGS)))
    sizes = draw(st.lists(st.integers(1, 2), max_size=2))
    lone = draw(st.integers(0, len(sizes)))
    sizes.insert(lone, 1)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    small = st.integers(-2, 2)

    def terms(min_size=0):
        keys = draw(st.lists(RINGS[cls], min_size=min_size, max_size=2))
        return cls.ring({key: draw(small.filter(bool)) for key in keys})

    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            if block[i] > block[j]:
                row.append(cls.ring.zero())
            elif i == j:
                unit = draw(st.sampled_from((1, -1, 2)))
                row.append(cls.ring.scalar(unit) + terms(1 if block[i] == lone else 0))
            elif block[i] == block[j]:
                row.append(terms())
            else:
                row.append(cls.ring.scalar(draw(small)) + terms())
        entries.append(row)
    perm = draw(st.permutations(range(n)))
    M = cls([[entries[a][b] for b in perm] for a in perm])
    return M, draw(st.integers(0, 5))


@given(lone_block_cases())
def test_lone_non_unit_block_answers_as_the_series(case):
    M, cap = case
    # a budget that is never reached takes the series path
    expected = NotPolyInvertible(REASON_NO_INVERSE_UP_TO_CAP, cap)
    assert poly_matrix_inverse(M, cap) == poly_matrix_inverse(M, cap, max_terms=10**9) == expected


@pytest.mark.parametrize(
    "cls, key",
    [(PolyMatrix, (("x", 1), ("x", 2))), (BipartiteMatrix, ((("y", 1),), (("x", 2),)))],
    ids=["free", "bipartite"],
)
def test_non_constant_diagonal_on_a_cycle_is_not_short_cut(cls, key):
    # the 2x2 block I - N w with N = [[1, 1], [-1, -1]] (N^2 = 0) has the
    # non-constant diagonal entries 1 - w and 1 + w on a cycle, and the
    # block-triangular matrix inverts
    ring = cls.ring
    w, o, z = ring({key: 1}), ring.one(), ring.zero()
    M = cls([[o - w, -w, o], [w, o + w, z], [z, z, o]])
    assert poly_matrix_inverse(M, 2) == cls([[o + w, w, -o - w], [-w, o - w, w], [z, z, o]])


# -- pinned cases ------------------------------------------------------------


def nilpotent_coefficient_matrix(word):
    # I - N word with N = [[-1, 1], [-1, 1]], N^2 = 0: the inverse is I + N word
    return PolyMatrix([[one + word, -word], [word, one - word]])


@pytest.mark.parametrize(
    "word, cap, inverts",
    [
        # deg N = 1: layer 1 is the last nonzero one
        (x1, 0, False),
        (x1, 1, True),
        (x1, 2, True),
        # deg N = 2: every odd layer is zero; cap 1 and 3 land on one
        (x1 * x2, 1, False),
        (x1 * x2, 2, True),
        (x1 * x2, 3, True),
    ],
    ids=["x1-cap0", "x1-cap1", "x1-cap2", "x1x2-cap1", "x1x2-cap2", "x1x2-cap3"],
)
def test_nilpotent_coefficient_matrix_caps(word, cap, inverts):
    res = poly_matrix_inverse(nilpotent_coefficient_matrix(word), cap)
    if inverts:
        assert res == PolyMatrix([[one - word, word], [-word, one + word]])
    else:
        assert res == NotPolyInvertible(REASON_NO_INVERSE_UP_TO_CAP, cap)


def test_nonzero_layer_after_a_zero_layer_past_the_cap():
    # 1/(1 - x1 x2): layer 3 is zero, layer 4 is not
    assert poly_matrix_inverse(PolyMatrix([[one - x1 * x2]]), 3) == NotPolyInvertible(
        REASON_NO_INVERSE_UP_TO_CAP, 3
    )


@pytest.mark.parametrize(
    "cap, reason",
    [
        (3, REASON_TERM_BUDGET),  # layers 0..3 hold 4 terms > 3
        (2, REASON_NO_INVERSE_UP_TO_CAP),  # layers past the cap are not counted
    ],
    ids=["over-budget", "budget-ends-at-cap"],
)
def test_term_budget_counts_layers_up_to_the_cap(cap, reason):
    assert poly_matrix_inverse(PolyMatrix([[one - x1]]), cap, max_terms=3) == NotPolyInvertible(
        reason, cap
    )


def test_budget_cut_series_builds_no_inverse():
    # NILPOTENT's budgeted hypo-Jacobian series is cut on its 14th layer,
    # after 65,530 terms.  The layers are kept, not summed, so the call peaks
    # at about 6.6 MiB (CPython 3.11); summing them as they come adds a second
    # dict entry for every term and passes 8 MiB
    injectivity_test(NILPOTENT, cap=24, max_terms=50_000)  # warm caches and imports
    tracemalloc.start()
    try:
        res = injectivity_test(NILPOTENT, cap=24, max_terms=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.cap_used) == ("indeterminate", 24)
    assert peak < 7.3 * 2**20
