"""Evaluation on exact matrix tuples and the flattening identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from freeinv import (
    FreePoly,
    Hyporealization,
    MatrixTuple,
    ProperAlgebraicSystem,
    SizeMismatch,
    UndefinedEvaluation,
    block_derivative_check,
    collision_check,
    eval_bipartite,
    eval_poly,
    free_derivative,
    hypo_jacobian,
    hyporational_eval,
    random_matrix_tuple,
    solve_truncated,
    substitute,
    vec,
)
from freeinv import linalg
from freeinv.bipartite import BipartitePoly
from freeinv.mateval import eval_bipartite_matrix, random_invertible
from freeinv.scalars import GaussianRational

import strategies as S
from corpus import NILPOTENT, P_CLASSIC, P_SIMPLE, P_THREE, Q_THREE

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)

RNG = random.Random(20260810)


def scalar_tuple(*values):
    return MatrixTuple(1, tuple(((Fraction(v),),) for v in values))


def test_eval_nilpotent_scalar_collision_values():
    # exact evaluation: both points map to (0, -1)
    a = scalar_tuple(Fraction(-1, 2), Fraction(-1, 2))
    b = scalar_tuple(0, -1)
    va = [eval_poly(c, a) for c in NILPOTENT]
    vb = [eval_poly(c, b) for c in NILPOTENT]
    assert va == vb
    assert va[0][0][0] == 0 and va[1][0][0] == -1


def test_eval_constant_is_identity_multiple():
    X = random_matrix_tuple(RNG, 2, 3)
    assert eval_poly(FreePoly.one(), X) == linalg.identity(3)


def test_eval_commutator_of_commuting_matrices():
    d1 = linalg.mat([[1, 0], [0, 2]])
    d2 = linalg.mat([[3, 0], [0, 5]])
    X = MatrixTuple(2, (d1, d2))
    assert eval_poly(x1 * x2 - x2 * x1, X) == linalg.zeros(2, 2)


@given(S.polys(max_len=3, max_terms=3), S.polys(max_len=3, max_terms=3))
def test_eval_is_homomorphism(f, g):
    X = random_matrix_tuple(RNG, 2, 2)
    assert eval_poly(f * g, X) == linalg.mul(eval_poly(f, X), eval_poly(g, X))
    assert eval_poly(f + g, X) == linalg.add(eval_poly(f, X), eval_poly(g, X))


@given(S.polys(max_len=3, max_terms=2), S.constant_free_maps(g=2, max_len=2, max_terms=2))
def test_eval_respects_substitution(f, sigma):
    X = random_matrix_tuple(RNG, 2, 2)
    lhs = eval_poly(substitute(f, {("x", i + 1): sigma[i] for i in range(2)}), X)
    sigma_at = MatrixTuple(2, tuple(eval_poly(c, X) for c in sigma))
    assert lhs == eval_poly(f, sigma_at)


@given(S.polys(max_len=3, max_terms=3))
def test_eval_respects_direct_sums(f):
    X = random_matrix_tuple(RNG, 2, 2)
    Y = random_matrix_tuple(RNG, 2, 2)
    both = X.direct_sum(Y)
    assert eval_poly(f, both) == linalg.direct_sum(eval_poly(f, X), eval_poly(f, Y))


@given(S.polys(max_len=3, max_terms=3))
def test_eval_respects_similarity(f):
    X = random_matrix_tuple(RNG, 2, 3)
    S_mat = random_invertible(RNG, 3)
    S_inv = linalg.inverse(S_mat)
    conj = X.conjugate(S_mat, S_inv)
    assert eval_poly(f, conj) == linalg.mul(linalg.mul(S_inv, eval_poly(f, X)), S_mat)


@given(S.polys(max_len=3, max_terms=3))
def test_eval_transpose_compatibility(f):
    X = random_matrix_tuple(RNG, 2, 2)
    assert eval_poly(f.transpose(), X.transpose()) == linalg.transpose(eval_poly(f, X))


def test_vec_ordering():
    A = linalg.mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert list(vec(A)) == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert list(vec(linalg.identity(2))) == [1, 0, 0, 1]
    e12 = linalg.mat([[0, 1], [0, 0]])
    assert list(vec(e12)) == [0, 1, 0, 0]


def test_vec_kron_identity():
    # vec(U Z V) = vec(Z) (U^T kron V) for random rational 2x2 matrices
    for _ in range(5):
        U = random_matrix_tuple(RNG, 1, 2)[0]
        Z = random_matrix_tuple(RNG, 1, 2)[0]
        V = random_matrix_tuple(RNG, 1, 2)[0]
        lhs = vec(linalg.mul(linalg.mul(U, Z), V))
        K = linalg.kron(linalg.transpose(U), V)
        rhs = tuple(
            sum((a * b for a, b in zip(vec(Z), col)), GaussianRational(0))
            for col in zip(*K)
        )
        assert lhs == rhs


def test_eval_bipartite_one():
    Y = random_matrix_tuple(RNG, 2, 2)
    assert eval_bipartite(BipartitePoly.one(), Y) == linalg.identity(4)


def test_eval_bipartite_unit_matrix():
    y1p = FreePoly.letter("y", 1)
    term = BipartitePoly.tensor(y1p, y1p)
    e12 = linalg.mat([[0, 1], [0, 0]])
    Y = MatrixTuple(2, (e12,))
    expected = linalg.kron(linalg.transpose(e12), e12)
    assert eval_bipartite(term, Y) == expected


def _vec_of_tuple(mats):
    out = []
    for m in mats:
        out.extend(vec(m))
    return tuple(out)


def _row_times(mat_rows, row):
    return tuple(
        sum((a * b for a, b in zip(row, col)), GaussianRational(0))
        for col in zip(*mat_rows)
    )


@pytest.mark.parametrize("p", [P_SIMPLE, P_CLASSIC, P_THREE])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_flattening_identity(p, n):
    g = len(p)
    hj = hypo_jacobian(p)
    d = [free_derivative(c) for c in p]
    for _ in range(3):
        X = random_matrix_tuple(RNG, g, n)
        Y = random_matrix_tuple(RNG, g, n)
        lhs = _vec_of_tuple([eval_poly(c, {"x": Y, "y": X}) for c in d])
        big = eval_bipartite_matrix(hj, Y)
        rhs = _row_times(big, _vec_of_tuple(X.mats))
        assert lhs == rhs


def test_block_derivative_square():
    X = scalar_tuple(Fraction(3, 2))
    H = scalar_tuple(Fraction(5, 7))
    assert block_derivative_check(x1 * x1, X, H)


def test_block_derivative_letter():
    X = random_matrix_tuple(RNG, 2, 2)
    H = random_matrix_tuple(RNG, 2, 2)
    assert block_derivative_check(x1, X, H)


@given(S.polys(max_len=4, max_terms=3))
def test_block_derivative_random(f):
    X = random_matrix_tuple(RNG, 2, 2)
    H = random_matrix_tuple(RNG, 2, 2)
    assert block_derivative_check(f, X, H)


def test_hyporational_eval_nilpotent_direction():
    # solution s = sum x1^j x2 x1^j evaluated at nilpotent X1 equals the
    # truncated-series value computed independently
    z2 = FreePoly.letter("z", 2)
    real = Hyporealization.from_system(
        ProperAlgebraicSystem((x1, x2 + x1 * z2 * x1))
    )
    n1 = linalg.mat([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    X = MatrixTuple(3, (n1, random_matrix_tuple(RNG, 1, 3)[0]))
    val = hyporational_eval(real, X, 1)
    series = solve_truncated(real.to_system(), 5)[1]
    assert val == eval_poly(series, X)


def test_hyporational_eval_three_var():
    z1 = FreePoly.letter("z", 1)
    z2 = FreePoly.letter("z", 2)
    x3 = FreePoly.letter("x", 3)
    real = Hyporealization.from_system(
        ProperAlgebraicSystem((x1, x2 + x1 * z1, x3 + x1 * z2 + x2 * z2))
    )
    for n in (1, 2, 3):
        X = random_matrix_tuple(RNG, 3, n)
        for comp in range(3):
            assert hyporational_eval(real, X, comp) == eval_poly(Q_THREE[comp], X)


def test_hyporational_eval_zero_linear_part():
    real = Hyporealization.from_system(ProperAlgebraicSystem((x1, x2 + x1**2)))
    X = random_matrix_tuple(RNG, 2, 2)
    assert hyporational_eval(real, X, 1) == eval_poly(x2 + x1**2, X)


def test_hyporational_eval_undefined():
    # (x1, x2 + x1 z2 x1) evaluated where I - Phi is singular: X1 = 1 (scalar)
    z2 = FreePoly.letter("z", 2)
    real = Hyporealization.from_system(
        ProperAlgebraicSystem((x1, x2 + x1 * z2 * x1))
    )
    X = scalar_tuple(1, 0)
    with pytest.raises(UndefinedEvaluation):
        hyporational_eval(real, X, 1)


def test_collision_check_examples():
    a = scalar_tuple(Fraction(-1, 2), Fraction(-1, 2))
    b = scalar_tuple(0, -1)
    assert collision_check(NILPOTENT, a, b)
    assert not collision_check(NILPOTENT, a, a)
    p_inj = (x1, x2 + x1**2)
    for _ in range(5):
        X = random_matrix_tuple(RNG, 2, 2)
        Y = random_matrix_tuple(RNG, 2, 2)
        if X.mats != Y.mats:
            assert not collision_check(p_inj, X, Y)


def test_collision_check_size_mismatch():
    with pytest.raises(SizeMismatch):
        collision_check(NILPOTENT, scalar_tuple(0, 0), random_matrix_tuple(RNG, 2, 2))
