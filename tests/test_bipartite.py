"""Bipartite ring, packed-derivative matrices, hypomatrix representations."""

import operator
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given

from freeinv import (
    BipartiteMatrix,
    BipartitePoly,
    FreePoly,
    Hyporealization,
    NotHyporealization,
    NotPolyInvertible,
    PolyMatrix,
    ProperAlgebraicSystem,
    bipartite_matrix_inverse,
    compose,
    free_derivative,
    hypo_jacobian,
    hypomatrix_rep,
    injectivity_test,
    swap_kinds,
)
from freeinv.jacobian import REASON_NO_INVERSE_UP_TO_CAP, REASON_TERM_BUDGET

import strategies as S
from corpus import NILPOTENT, P_CLASSIC, P_SIMPLE, P_THREE, P_TWISTED
from test_kernels import Pairs, engine, observe_matrix, r_series_inverse

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)
x3 = FreePoly.letter("x", 3)
y1 = FreePoly.letter("y", 1)
y2 = FreePoly.letter("y", 2)

BP_ONE = BipartitePoly.one()


def bp(left, right):
    return BipartitePoly.tensor(left, right)


@given(S.words(kinds="y", max_len=3), S.words(kinds="x", max_len=3))
def test_cross_commutation(u, v):
    left = bp(FreePoly.monomial(u), FreePoly.one())
    right = bp(FreePoly.one(), FreePoly.monomial(v))
    both = bp(FreePoly.monomial(u), FreePoly.monomial(v))
    assert left * right == both
    assert right * left == both


@given(
    S.polys(kinds="y", max_len=2, max_terms=2),
    S.polys(kinds="x", max_len=2, max_terms=2),
    S.polys(kinds="y", max_len=2, max_terms=2),
    S.polys(kinds="x", max_len=2, max_terms=2),
)
def test_split_multiplication(u, v, u2, v2):
    assert bp(u, v) * bp(u2, v2) == bp(u * u2, v * v2)


@given(
    S.polys(kinds="y", max_len=2, max_terms=2),
    S.polys(kinds="x", max_len=2, max_terms=2),
)
def test_tensor_bilinear(u, v):
    assert bp(u + u, v) == bp(u, v) * 2
    assert bp(u, FreePoly.zero()) == BipartitePoly.zero()


def test_hypo_jacobian_simple():
    hj = hypo_jacobian(P_SIMPLE)
    expected = BipartiteMatrix(
        [
            [BP_ONE, -(bp(FreePoly.one(), y1) + bp(y1, FreePoly.one()))],
            [BipartitePoly.zero(), BP_ONE],
        ]
    )
    assert hj == expected


def test_hypo_jacobian_identity():
    assert hypo_jacobian((x1, x2)) == BipartiteMatrix.identity(2)


def test_hypo_jacobian_classic():
    hj = hypo_jacobian(P_CLASSIC)
    expected = BipartiteMatrix(
        [
            [
                BP_ONE,
                -(bp(FreePoly.one(), y2 * y1) + bp(y2 * y1, FreePoly.one())),
            ],
            [BipartitePoly.zero(), BP_ONE - bp(y1, y1)],
        ]
    )
    assert hj == expected


def ref_hypo_jacobian(p):
    """The packing through the derivative: swap the base and direction
    letters of each derivative word, find its one x-letter x_j and slice the
    word around it into the term rev(U) (x) V of cell (j, i)."""
    g = len(p)
    grid = [[{} for _ in range(g)] for _ in range(g)]
    for i, comp in enumerate(p):
        for w, c in swap_kinds(free_derivative(comp), "x", "y").terms():
            (pos,) = [t for t, (kind, _) in enumerate(w) if kind == "x"]
            cell = grid[w[pos][1] - 1][i]
            key = (w[:pos][::-1], w[pos + 1 :])
            assert key not in cell
            cell[key] = c
    return BipartiteMatrix([[BipartitePoly(cell) for cell in row] for row in grid])


@given(
    st.integers(1, 3).flatmap(
        lambda g: st.tuples(*[S.polys(kinds="x", max_index=g, max_len=4, max_terms=4)] * g)
    )
)
def test_hypo_jacobian_matches_derivative_packing(p):
    assert hypo_jacobian(p) == ref_hypo_jacobian(p)


def test_bipartite_inverse_identity():
    ident = BipartiteMatrix.identity(2)
    assert bipartite_matrix_inverse(ident, 0) == ident


@pytest.mark.parametrize("ring", [FreePoly, BipartitePoly])
@pytest.mark.parametrize("bad", ["bad", 1.5, None, x1], ids=["str", "float", "none", "poly"])
def test_scalar_rejects_non_scalars(ring, bad):
    with pytest.raises(TypeError):
        ring.scalar(bad)


@pytest.mark.parametrize("matrix", [PolyMatrix, BipartiteMatrix])
@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_matrix_dimension_mismatch_raises(matrix, op):
    a, b = matrix.identity(2), matrix.identity(3)
    with pytest.raises(ValueError):
        getattr(operator, op)(a, b)
    with pytest.raises(ValueError):
        getattr(operator, op)(b, a)


@pytest.mark.parametrize("cap", [2, 9, 30])
def test_bipartite_inverse_diagonal_never_terminates(cap):
    m = BipartiteMatrix(
        [[BP_ONE, BipartitePoly.zero()], [BipartitePoly.zero(), BP_ONE - bp(y1, x1)]]
    )
    res = bipartite_matrix_inverse(m, cap)
    assert isinstance(res, NotPolyInvertible)
    assert res.reason == REASON_NO_INVERSE_UP_TO_CAP


def test_bipartite_inverse_nilpotent_three_var():
    zero = BipartitePoly.zero()
    phi = BipartiteMatrix(
        [
            [zero, bp(y1, FreePoly.one()), zero],
            [zero, zero, bp(y1 + y2, FreePoly.one())],
            [zero, zero, zero],
        ]
    )
    inv = bipartite_matrix_inverse(BipartiteMatrix.identity(3) - phi, 100)
    assert isinstance(inv, BipartiteMatrix)
    assert inv[0][2] == bp(y1 * (y1 + y2), FreePoly.one())
    ident = BipartiteMatrix.identity(3)
    assert (BipartiteMatrix.identity(3) - phi) * inv == ident


def test_injectivity_corpus():
    assert injectivity_test(P_SIMPLE).injective
    assert injectivity_test(P_TWISTED).injective
    assert injectivity_test(P_THREE).injective
    res = injectivity_test(P_CLASSIC)
    assert res.status == "not-injective" and res.certified
    assert injectivity_test((x2, x1 + x2)).injective  # linear case


def test_injectivity_returns_verified_inverse():
    res = injectivity_test(P_SIMPLE)
    hj = hypo_jacobian(P_SIMPLE)
    ident = BipartiteMatrix.identity(2)
    assert hj * res.inverse == ident and res.inverse * hj == ident


@pytest.mark.parametrize(
    "a, b, cap", [(1, 1, 144), (1, 2, 216), (2, 1, 216), (2, 2, 288)]
)
def test_injectivity_rigorous_family(a, b, cap):
    # (x1, x2 - x1^a x2 x1^b) is not injective; the rigorous cap certifies it
    res = injectivity_test((x1, x2 - x1**a * x2 * x1**b))
    assert (res.status, res.certified, res.cap_used) == ("not-injective", True, cap)


def test_injectivity_clipped_is_uncertified():
    res = injectivity_test(P_CLASSIC, cap=5)
    assert res.status == "indeterminate" and not res.certified


SANDWICH = (x1, x2, x3 - x1 * x3 * x1)


@pytest.mark.parametrize(
    "p, cap",
    [((x1 - x1**2, x2, x3), 5832), (SANDWICH, 11664)],
    ids=["triangular", "sandwich"],
)
def test_injectivity_rigorous_lone_block_settles_at_once(p, cap):
    # each hypo-Jacobian has a lone diagonal block that is no unit, so the
    # unbudgeted rigorous test needs no series (on the first map the series
    # exhausts memory)
    start = time.perf_counter()
    res = injectivity_test(p)
    assert time.perf_counter() - start < 1
    assert (res.status, res.certified, res.cap_used) == ("not-injective", True, cap)


@pytest.mark.parametrize(
    "p, kwargs",
    [(NILPOTENT, {"cap": 24, "max_terms": 50_000}), (SANDWICH, {"cap": 2000})],
    ids=["nilpotent-budgeted", "sandwich-capped"],
)
def test_injectivity_negative_workload_calls(p, kwargs):
    # the benchmark's capped and budgeted calls: cut short, so uncertified
    res = injectivity_test(p, **kwargs)
    assert (res.status, res.certified, res.cap_used) == ("indeterminate", False, kwargs["cap"])


# the layers of NILPOTENT's hypo-Jacobian inverse up to degree m hold
# 2^(m+3) - 6 terms, so at the budget 2,041 the run exits on layer 8 and at
# 2,042 on layer 9; at cap 8 the second budget lets the cap end the run
@pytest.mark.parametrize(
    "cap, budget, reason",
    [
        (24, 2041, REASON_TERM_BUDGET),
        (24, 2042, REASON_TERM_BUDGET),
        (8, 2041, REASON_TERM_BUDGET),
        (8, 2042, REASON_NO_INVERSE_UP_TO_CAP),
    ],
)
def test_nilpotent_series_matches_tuple_key_reference(cap, budget, reason):
    M = observe_matrix(hypo_jacobian(NILPOTENT))
    assert r_series_inverse(M, Pairs, cap, budget) == ("none", reason)
    assert engine(M, Pairs, cap, budget) == ("none", reason)


def test_hyporealization_round_trip():
    z2 = FreePoly.letter("z", 2)
    system = ProperAlgebraicSystem((x1, x2 + x1 * z2 * x1))
    real = Hyporealization.from_system(system)
    assert real.to_system().components == system.components
    base, phi = hypomatrix_rep(real)
    assert base == (x1, x2)
    assert phi == BipartiteMatrix(
        [
            [BipartitePoly.zero(), BipartitePoly.zero()],
            [BipartitePoly.zero(), bp(y1, x1)],
        ]
    )


def test_hypomatrix_three_var():
    z1 = FreePoly.letter("z", 1)
    z2 = FreePoly.letter("z", 2)
    system = ProperAlgebraicSystem((x1, x2 + x1 * z1, x3 + x1 * z2 + x2 * z2))
    real = Hyporealization.from_system(system)
    _, phi = hypomatrix_rep(real)
    zero = BipartitePoly.zero()
    assert phi == BipartiteMatrix(
        [
            [zero, bp(y1, FreePoly.one()), zero],
            [zero, zero, bp(y1 + y2, FreePoly.one())],
            [zero, zero, zero],
        ]
    )


def test_hypomatrix_zero_linear_part():
    system = ProperAlgebraicSystem((x1, x2 + x1**2))
    real = Hyporealization.from_system(system)
    _, phi = hypomatrix_rep(real)
    assert phi.is_zero()


def test_not_hyporealization():
    z1 = FreePoly.letter("z", 1)
    z2 = FreePoly.letter("z", 2)
    with pytest.raises(NotHyporealization):
        Hyporealization.from_system(
            ProperAlgebraicSystem((x1, x2 + x1 * z2 * z1))
        )


def ref_hypomatrix(system):
    """(base, Phi) through (c, U, V) triples: the triples of each cell in
    the order of the component's words, then accumulated with U reversed and
    re-tagged to y."""
    h = len(system.components)
    base, linear = [], [[[] for _ in range(h)] for _ in range(h)]
    for i, comp in enumerate(system.components):
        free = {}
        for w, c in comp.terms():
            at = [t for t, (kind, _) in enumerate(w) if kind == "z"]
            if not at:
                free[w] = c
                continue
            (t,) = at
            linear[i][w[t][1] - 1].append((c, w[:t], w[t + 1 :]))
        base.append(FreePoly(free))
    grid = [[{} for _ in range(h)] for _ in range(h)]
    for i in range(h):
        for j in range(h):
            cell = grid[j][i]
            for c, u, v in linear[i][j]:
                key = (tuple(("y", idx) for _, idx in u[::-1]), v)
                cell[key] = cell.get(key, 0) + c
    return tuple(base), BipartiteMatrix([[BipartitePoly(cell) for cell in row] for row in grid])


@st.composite
def z_affine_systems(draw):
    """Proper systems over the kinds x, y, w and z1..zh whose words are
    z-free or u z_j v, with a few words u z_j v z_k t mixed in.  A word
    u z_j v often comes with a twin that differs from it only in the kinds
    of u, and with the opposite coefficient half the time, so that re-tagging
    u to y merges the two and may cancel them."""
    h = draw(st.integers(1, 3))
    side = S.words(kinds="xyw", max_index=2, max_len=2)
    z = st.integers(1, h).map(lambda j: (("z", j),))
    shape = st.tuples(side, z, side).filter(lambda t: t[0] or t[2])
    two_z = st.tuples(side, z, side, z, side).map(lambda t: sum(t, ()))
    free = S.words(kinds="xyw", max_index=2, max_len=3).filter(bool)
    kind_draws = st.sampled_from("xyw")
    with_two_z = draw(st.booleans())
    comps = []
    for _ in range(h):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            pick = draw(st.integers(0, 3 if with_two_z else 2))
            c = draw(S.coefficients)
            if pick == 0:
                terms[draw(free)] = c
            elif pick == 3:
                terms[draw(two_z)] = c
            else:
                u, zj, v = draw(shape)
                terms[u + zj + v] = c
                if draw(st.booleans()):
                    kinds = draw(st.lists(kind_draws, min_size=len(u), max_size=len(u)))
                    twin = tuple((k, i) for k, (_, i) in zip(kinds, u)) + zj + v
                    terms[twin] = draw(st.sampled_from([-c, draw(S.coefficients)]))
        comps.append(FreePoly(terms))
    return ProperAlgebraicSystem(tuple(comps))


@given(z_affine_systems())
def test_hyporealization_matches_triples_packing(system):
    two_z = any(sum(kind == "z" for kind, _ in w) > 1 for comp in system for w, _ in comp.terms())
    if two_z:
        with pytest.raises(NotHyporealization):
            Hyporealization.from_system(system)
        return
    real = Hyporealization.from_system(system)
    assert hypomatrix_rep(real) == ref_hypomatrix(system)
    assert real.to_system() == system


def test_hypomatrix_retagging_merges_and_cancels():
    # U = x1 and U = y1 both re-tag to y1, so the two words meet in one term
    z2 = FreePoly.letter("z", 2)
    real = Hyporealization.from_system(ProperAlgebraicSystem((x1, x2 + x1 * z2 - y1 * z2)))
    base, phi = hypomatrix_rep(real)
    assert base == (x1, x2) and phi.is_zero()
    real = Hyporealization.from_system(ProperAlgebraicSystem((x1, x2 + x1 * z2 + y1 * z2)))
    _, phi = hypomatrix_rep(real)
    assert phi[1][1] == bp(y1, FreePoly.one()) * 2


def substitute_sides(e, left_images, right_images):
    """The homomorphism acting on each side of e by its own images, keyed by
    letter index; the sides stay apart by re-tensoring the results."""
    out = BipartitePoly.zero()
    for (u, v), c in e.terms():
        left = FreePoly.one()
        for _, idx in u:
            left = left * left_images[idx]
        right = FreePoly.one()
        for _, idx in v:
            right = right * right_images[idx]
        out = out + bp(left, right) * c
    return out


@given(S.constant_free_maps(g=2, max_len=2, max_terms=2), S.constant_free_maps(g=2, max_len=2, max_terms=2))
def test_hypo_jacobian_chain_rule(alpha, beta):
    # packed matrices compose like J_{a o b}(z, y) = J_b(z, y) J_a(b^T(z), b(y))
    lhs = hypo_jacobian(compose(alpha, beta))
    j_beta = hypo_jacobian(beta)
    j_alpha = hypo_jacobian(alpha)
    beta_y = [swap_kinds(comp, "x", "y") for comp in beta]
    left_images = {i + 1: comp.transpose() for i, comp in enumerate(beta_y)}
    right_images = {i + 1: comp for i, comp in enumerate(beta_y)}
    j_alpha_sub = j_alpha.map_entries(lambda e: substitute_sides(e, left_images, right_images))
    assert lhs == j_beta * j_alpha_sub
