"""Bipartite ring, packed-derivative matrices, hypomatrix representations."""

import operator

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
    hypo_jacobian,
    hypomatrix_rep,
    injectivity_test,
    swap_kinds,
)
from freeinv.jacobian import REASON_NO_INVERSE_UP_TO_CAP

import strategies as S
from corpus import P_CLASSIC, P_SIMPLE, P_THREE, P_TWISTED

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


@given(S.constant_free_maps(g=2, max_len=2, max_terms=2), S.constant_free_maps(g=2, max_len=2, max_terms=2))
def test_hypo_jacobian_chain_rule(alpha, beta):
    # packed matrices compose like J_{a o b}(z, y) = J_b(z, y) J_a(b^T(z), b(y))
    lhs = hypo_jacobian(compose(alpha, beta))
    j_beta = hypo_jacobian(beta)
    j_alpha = hypo_jacobian(alpha)
    beta_y = [swap_kinds(comp, "x", "y") for comp in beta]
    left_images = {i + 1: comp.transpose() for i, comp in enumerate(beta_y)}
    right_images = {i + 1: comp for i, comp in enumerate(beta_y)}
    j_alpha_sub = j_alpha.map_entries(
        lambda e: e.substitute_sides(left_images, right_images)
    )
    assert lhs == j_beta * j_alpha_sub
