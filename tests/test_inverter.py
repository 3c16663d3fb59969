"""Degree-bound arithmetic and the inversion decision procedure."""

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from freeinv import (
    ArityMismatch,
    FreePoly,
    GaussianRational,
    InversionOutcome,
    format_poly,
    injectivity_test,
    inverse_degree_bound,
    invert,
    iterate_split,
    pmid_bound,
    pmid_f,
    verify_inverse,
)
from freeinv import sysolve
from freeinv.inverter import (
    OUTCOME_INDETERMINATE,
    OUTCOME_NOT_INJECTIVE,
    REASON_DEGREE_EXCEEDED,
    REASON_JACOBIAN_NOT_POLY_INVERTIBLE,
    _restore_constant,
)

from corpus import (
    IDENTITY2,
    INVERTIBLE_CORPUS,
    LINEAR2,
    NILPOTENT,
    P_CLASSIC,
    P_ONEVAR,
    P_SIMPLE,
    P_THREE,
    P_TWISTED,
    Q_SIMPLE,
    Q_THREE,
    Q_TWISTED,
)
from tame import random_tame_pair

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)


def test_pmid_f_values():
    assert [pmid_f(n) for n in range(1, 6)] == [1, 8, 216, 13824, 1728000]
    # recursion matches the closed form (n!)^3
    import math

    for n in range(1, 7):
        assert pmid_f(n) == math.factorial(n) ** 3


def test_pmid_bound_values():
    assert pmid_bound(2, 2).bound == 144
    assert pmid_bound(1, 0).bound == 0
    assert pmid_bound(3, 1).bound == 27 * 216


def test_inverse_degree_bound_values():
    assert inverse_degree_bound(2, 3) == 145
    assert inverse_degree_bound(1, 2) == 4
    assert inverse_degree_bound(2, 1) == 1
    with pytest.raises(ValueError):
        inverse_degree_bound(2, 0)


def test_invert_simple():
    out = invert(P_SIMPLE)
    assert out.is_inverse and out.q == Q_SIMPLE


def test_invert_twisted():
    out = invert(P_TWISTED)
    assert out.is_inverse and out.q == Q_TWISTED


def test_invert_three_var():
    out = invert(P_THREE)
    assert out.is_inverse and out.q == Q_THREE


def test_invert_identity():
    out = invert(IDENTITY2)
    assert out.is_inverse and out.iterations == 1 and out.q == IDENTITY2


def test_invert_linear():
    out = invert(LINEAR2)
    assert out.is_inverse
    assert verify_inverse(LINEAR2, out.q)
    assert max(int(c.degree()) for c in out.q) == 1


def test_invert_classic_rigorous():
    out = invert(P_CLASSIC)
    assert out.outcome == OUTCOME_NOT_INJECTIVE
    assert out.reason == REASON_DEGREE_EXCEEDED
    assert out.bound_B == 145
    assert out.iterations == 74  # head degree 2k-1 first exceeds 145 at k = 74
    assert out.iterations <= out.bound_B


@pytest.mark.parametrize(
    "a, b, bound, cap",
    [(1, 2, 217, 869), (2, 1, 217, 869), (2, 2, 289, 1446), (1, 3, 289, 1446), (3, 1, 289, 1446)],
)
def test_invert_rigorous_family(a, b, bound, cap):
    # (x1, x2 - x1^a x2 x1^b): the classic map with longer x1 runs around x2
    out = invert((x1, x2 - x1**a * x2 * x1**b))
    assert out.outcome == OUTCOME_NOT_INJECTIVE
    assert out.reason == REASON_DEGREE_EXCEEDED
    assert (out.iterations, out.bound_B, out.cap_used) == (74, bound, cap)


def test_invert_rigorous_sandwich():
    # (x1, x2, x3 - x1 x3 x1): B = 11,665, so the head degree 2k - 1 first
    # exceeds it at loop 5,834, at the rigorous cap 34,996
    x3 = FreePoly.letter("x", 3)
    out = invert((x1, x2, x3 - x1 * x3 * x1))
    got = (out.outcome, out.reason, out.iterations, out.bound_B, out.cap_used)
    assert got == (OUTCOME_NOT_INJECTIVE, REASON_DEGREE_EXCEEDED, 5834, 11665, 34996)


@pytest.mark.parametrize(
    "p, expected, steps",
    [
        (P_CLASSIC, ("not-injective", "degree-exceeded", 74, 145, 436), 78),
        ((x1, x2 - x1 * x2 * x1**2), ("not-injective", "degree-exceeded", 74, 217, 869), 78),
        ((x1, x2 - x1**2 * x2 * x1), ("not-injective", "degree-exceeded", 74, 217, 869), 78),
        ((x1, x2 - x1**2 * x2 * x1**2), ("not-injective", "degree-exceeded", 74, 289, 1446), 79),
    ],
)
def test_invert_exact_pass_is_final(monkeypatch, p, expected, steps):
    # these iterations never drop a word, so the first pass that reaches the
    # decision is final, and a pass that escalates resumes after the last
    # exact split of the pass before it: no pass repeats an exact step of an
    # earlier pass
    calls = []
    step = sysolve._step
    monkeypatch.setattr(sysolve, "_step", lambda *args: calls.append(1) or step(*args))
    out = invert(p)
    assert (out.outcome, out.reason, out.iterations, out.bound_B, out.cap_used) == expected
    assert len(calls) == steps


@pytest.mark.parametrize("call", [invert, injectivity_test])
@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"cap": -1}, "cap"),
        ({"cap": 2.5}, "cap"),
        ({"cap": "8"}, "cap"),
        ({"max_terms": -5}, "max_terms"),
        ({"max_terms": 100.0}, "max_terms"),
        ({"cap": 8, "max_terms": True}, "max_terms"),
    ],
)
def test_limits_are_validated_at_entry(call, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be None or an int >= 0"):
        call(P_SIMPLE, **kwargs)


def test_zero_limits_are_accepted():
    assert invert(P_SIMPLE, cap=0).cap_used == 0
    assert invert(P_SIMPLE, max_terms=0).reason == "term-budget-exceeded"
    assert injectivity_test(P_SIMPLE, cap=0).cap_used == 0


def test_invert_classic_clipped_is_indeterminate():
    out = invert(P_CLASSIC, cap=20)
    assert out.outcome == OUTCOME_INDETERMINATE


def test_invert_one_var_jacobian_gate():
    out = invert(P_ONEVAR)
    assert out.outcome == OUTCOME_NOT_INJECTIVE
    assert out.reason == REASON_JACOBIAN_NOT_POLY_INVERTIBLE


@pytest.mark.parametrize("g", [2, 3], ids=["g2", "g3"])
def test_invert_triangular_gate_settles_at_once(g):
    # J[0][0] = 1 - x1 + x2 is a lone diagonal block that is no unit (J[0]
    # is zero off the diagonal), so the unbudgeted gate needs no series (run
    # to its rigorous cap, the series exhausts memory)
    x = [FreePoly.letter("x", i) for i in range(1, g + 1)]
    p = (x[0] - (x[0] - x[1]) ** 2, *x[1:])
    start = time.perf_counter()
    out = invert(p)
    assert time.perf_counter() - start < 1
    assert (out.outcome, out.reason) == (OUTCOME_NOT_INJECTIVE, REASON_JACOBIAN_NOT_POLY_INVERTIBLE)


def test_invert_singular_linear_part():
    # both components share the same linear part: J(0) singular
    p = (x1 + x2 + x1**2, x1 + x2)
    out = invert(p)
    assert out.outcome == OUTCOME_NOT_INJECTIVE
    assert out.reason == "singular-jacobian-constant"


@pytest.mark.parametrize(
    "limits",
    [{}, {"cap": 0}, {"max_terms": 0}, {"cap": 0, "max_terms": 0}],
    ids=["rigorous", "cap0", "budget0", "cap0-budget0"],
)
@pytest.mark.parametrize(
    "constants",
    [(0,), (3,), (0, 0), (1, -2), (0, 0, 0), (Fraction(1, 2), 0, GaussianRational(0, 1))],
    ids=["g1-zero", "g1", "g2-zero", "g2", "g3-zero", "g3"],
)
def test_invert_all_constant_map_fails_the_gate(constants, limits):
    # an all-constant map has J = 0, so J(0) is singular whatever the limits
    out = invert(tuple(map(FreePoly.scalar, constants)), **limits)
    assert out == InversionOutcome(OUTCOME_NOT_INJECTIVE, reason="singular-jacobian-constant")


def test_invert_restores_constants():
    shift = (FreePoly.scalar(2), FreePoly.scalar(-3))
    p = tuple(c + s for c, s in zip(P_SIMPLE, shift))
    out = invert(p)
    assert out.is_inverse
    assert verify_inverse(p, out.q)


@pytest.mark.parametrize(
    "shift",
    [(2, -3), (Fraction(1, 2), 0), (GaussianRational(0, 1), Fraction(-2, 3))],
    ids=["int", "fraction", "gaussian"],
)
def test_invert_drops_the_constant_term_exactly(shift):
    # invert(p) answers as invert(p - p(0)) does, its inverse shifted by
    # x -> x - p(0); p - p(0) is formed here by subtraction
    rng = random.Random(5)
    maps = [P_SIMPLE, P_TWISTED, P_CLASSIC] + [random_tame_pair(rng, g=2)[0] for _ in range(4)]
    for p0 in maps:
        p = tuple(comp + c for comp, c in zip(p0, shift))
        constants = tuple(comp.constant_term() for comp in p)
        base = invert(tuple(comp - c for comp, c in zip(p, constants)), cap=48)
        out = invert(p, cap=48)
        if base.q is None:
            assert out == base
            continue
        q = _restore_constant(base.q, constants)
        assert verify_inverse(p, q)
        assert out == dataclasses.replace(base, q=q)
        assert out.to_jsonable() == {**base.to_jsonable(), "q": [format_poly(c) for c in q]}


def test_invert_budget_indeterminate():
    out = invert(NILPOTENT, cap=16, max_terms=5000)
    assert out.outcome == OUTCOME_INDETERMINATE


def test_invert_arity_mismatch():
    with pytest.raises(ArityMismatch):
        invert((x1, FreePoly.letter("x", 3)))
    with pytest.raises(ArityMismatch):
        invert((FreePoly.letter("y", 1),))


@pytest.mark.parametrize("decide", [invert, injectivity_test])
def test_empty_map_is_an_arity_mismatch(decide):
    with pytest.raises(ArityMismatch, match="empty map"):
        decide(())


def test_verify_inverse_examples():
    assert verify_inverse(P_TWISTED, Q_TWISTED)
    p = (x1, x2 + x1**2)
    assert not verify_inverse(p, p)  # p o p doubles the x1^2 term
    assert verify_inverse(IDENTITY2, IDENTITY2)


def test_invert_outcome_soundness_on_corpus():
    for p, q_true in INVERTIBLE_CORPUS:
        out = invert(p)
        assert out.is_inverse
        assert verify_inverse(p, out.q)
        assert out.q == q_true
        bound = inverse_degree_bound(len(p), max(int(c.degree()) for c in p))
        assert max(int(c.degree()) for c in out.q) <= bound


def test_monotone_head_degrees():
    from freeinv import auxiliary_inverse, jacobian_extract, poly_matrix_inverse

    _, J = jacobian_extract(P_CLASSIC)
    system = auxiliary_inverse(P_CLASSIC, poly_matrix_inverse(J, 144))
    degs = [int(iterate_split(system, k, 40).head_degree()) for k in range(1, 9)]
    assert degs == sorted(degs)


def test_tame_closure_smoke():
    rng = random.Random(11)
    for _ in range(8):
        p, q_true = random_tame_pair(rng)
        out = invert(p, cap=48)
        assert out.is_inverse, (p, out.outcome, out.reason)
        assert verify_inverse(p, out.q)
        assert out.q == q_true
