"""Jacobian extraction, verified matrix inversion, auxiliary inverses."""

import pytest
from hypothesis import given

from freeinv import (
    FreePoly,
    NotPolyInvertible,
    PolyMatrix,
    auxiliary_inverse,
    check_proper,
    compose,
    jacobian_extract,
    poly_matrix_inverse,
    rename_letters,
)
from freeinv.inverter import jacobian_gate
from freeinv.jacobian import REASON_SINGULAR_CONSTANT, reconstruct

import strategies as S
from corpus import NILPOTENT, P_CLASSIC

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)
one = FreePoly.one()
zero = FreePoly.zero()


def test_extract_classic():
    consts, J = jacobian_extract(P_CLASSIC)
    assert all(not c for c in consts)
    assert J == PolyMatrix([[one, -(x2 * x1)], [zero, one]])


def test_extract_nilpotent():
    _, J = jacobian_extract(NILPOTENT)
    assert J == PolyMatrix([[one + x1, -x1], [x1, one - x1]])


def test_extract_identity():
    consts, J = jacobian_extract((x1, x2))
    assert all(not c for c in consts)
    assert J == PolyMatrix.identity(2)


def test_extract_constant_part():
    consts, J = jacobian_extract((x1 + FreePoly.scalar(3), x2))
    assert consts[0] == 3 and not consts[1]
    assert J == PolyMatrix.identity(2)


@given(S.polys(max_terms=4, max_len=3), S.polys(max_terms=4, max_len=3))
def test_reconstruction(a, b):
    p = (a, b)
    consts, J = jacobian_extract(p)
    assert reconstruct(consts, J) == p


@given(S.constant_free_maps(g=2), S.constant_free_maps(g=2))
def test_chain_rule(phi, psi):
    # J_{psi o phi}(x) = J_phi(x) * J_psi(phi(x))
    _, j_comp = jacobian_extract(compose(psi, phi))
    _, j_phi = jacobian_extract(phi)
    _, j_psi = jacobian_extract(psi)
    images = {("x", i + 1): phi[i] for i in range(2)}
    from freeinv import substitute

    j_psi_at_phi = PolyMatrix(
        [[substitute(e, images, default_identity=True) for e in row] for row in j_psi.entries]
    )
    assert j_comp == j_phi * j_psi_at_phi


def test_inverse_nilpotent_coefficient_matrix():
    # J = I - N x1 with N^2 = 0 inverts to I + N x1
    n11, n12, n21, n22 = -1, 1, -1, 1
    J = PolyMatrix(
        [[one - x1 * n11, -(x1 * n12)], [-(x1 * n21), one - x1 * n22]]
    )
    Jinv = poly_matrix_inverse(J, 72)
    assert isinstance(Jinv, PolyMatrix)
    assert Jinv == PolyMatrix(
        [[one + x1 * n11, x1 * n12], [x1 * n21, one + x1 * n22]]
    )


def test_inverse_classic():
    _, J = jacobian_extract(P_CLASSIC)
    Jinv = poly_matrix_inverse(J, 144)
    assert Jinv == PolyMatrix([[one, x2 * x1], [zero, one]])


@pytest.mark.parametrize("cap", [0, 3, 7, 25])
def test_inverse_geometric_never_terminates(cap):
    # the truncated series for [[1 - x1]] leaves a residual at every cap
    M = PolyMatrix([[one - x1]])
    res = poly_matrix_inverse(M, cap)
    assert isinstance(res, NotPolyInvertible)
    assert res.reason != REASON_SINGULAR_CONSTANT


def test_inverse_singular_constant():
    M = PolyMatrix([[x1]])
    res = poly_matrix_inverse(M, 5)
    assert isinstance(res, NotPolyInvertible)
    assert res.reason == REASON_SINGULAR_CONSTANT


@given(S.constant_free_maps(g=2, max_len=2, max_terms=2))
def test_returned_inverses_are_two_sided(p):
    _, J = jacobian_extract(p)
    res = poly_matrix_inverse(J, 8)
    if isinstance(res, PolyMatrix):
        ident = PolyMatrix.identity(2)
        assert J * res == ident and res * J == ident


def test_inverse_cancellation_across_powers():
    # M = [[1 - x1 + x1^2 ... ]]: x1-only geometric cancellations
    M = PolyMatrix([[one + x1]])
    res = poly_matrix_inverse(M, 10)
    assert isinstance(res, NotPolyInvertible)
    M2 = PolyMatrix([[one + x1, x1], [zero, one]])
    res2 = poly_matrix_inverse(M2, 10)
    assert isinstance(res2, NotPolyInvertible)


def test_auxiliary_inverse_classic():
    _, J = jacobian_extract(P_CLASSIC)
    Jinv = poly_matrix_inverse(J, 144)
    system = auxiliary_inverse(P_CLASSIC, Jinv)
    z1 = FreePoly.letter("z", 1)
    z2 = FreePoly.letter("z", 2)
    assert system.components == (x1, x2 + x1 * z2 * z1)
    assert check_proper(system)
    assert system.dz() >= 2


def test_auxiliary_inverse_nilpotent():
    _, J = jacobian_extract(NILPOTENT)
    Jinv = poly_matrix_inverse(J, 72)
    system = auxiliary_inverse(NILPOTENT, Jinv)
    z1 = FreePoly.letter("z", 1)
    expected = (x1 - (x1 + x2) * z1, x2 + (x1 + x2) * z1)
    assert system.components == expected


def test_auxiliary_inverse_identity():
    p = (x1, x2)
    _, J = jacobian_extract(p)
    Jinv = poly_matrix_inverse(J, 0)
    system = auxiliary_inverse(p, Jinv)
    assert system.components == (x1, x2)


@given(S.constant_free_maps(g=2, max_len=2, max_terms=2))
def test_auxiliary_inverse_is_proper(p):
    _, J = jacobian_extract(p)
    res = poly_matrix_inverse(J, 8)
    if isinstance(res, PolyMatrix):
        system = auxiliary_inverse(p, res)
        assert check_proper(system)
        assert system.dz() >= 2


def _typed(terms):
    return {w: (c, type(c)) for w, c in terms}


@given(S.tame_maps())
def test_auxiliary_inverse_matches_its_definition(p):
    # component j is the sum over s of x_s * Jinv[s][j] with x renamed to z
    j_inv = jacobian_gate(p, max_terms=10_000)
    assert isinstance(j_inv, PolyMatrix)
    system = auxiliary_inverse(p, j_inv)
    got = [_typed(comp.terms()) for comp in system.components]
    to_z = {("x", i + 1): ("z", i + 1) for i in range(len(p))}
    reference = [
        _typed(
            (((("x", s + 1),) + tuple(to_z[let] for let in w)), c)
            for s in range(j_inv.rows)
            for w, c in j_inv[s][j].terms()
        )
        for j in range(j_inv.cols)
    ]
    assert got == reference
    jz = PolyMatrix([[rename_letters(e, to_z) for e in row] for row in j_inv.entries])
    assert got == [_typed(comp.terms()) for comp in reconstruct((0,) * len(p), jz)]
