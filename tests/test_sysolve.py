"""Proper-system iteration, splits, truncated solving, implicit solving."""

from itertools import islice

import pytest
from hypothesis import given
import hypothesis.strategies as st

from freeinv import (
    FreePoly,
    ImproperSystem,
    NonzeroConstant,
    ProperAlgebraicSystem,
    SingularLinearPart,
    check_proper,
    implicit_solve,
    iterate_split,
    iterates,
    solve_truncated,
    substitute,
)

import strategies as S
from test_substitute import ref_substitute

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)
z1 = FreePoly.letter("z", 1)
z2 = FreePoly.letter("z", 2)

CLASSIC_SYSTEM = ProperAlgebraicSystem((x1, x2 + x1 * z2 * z1))


def test_check_proper_examples():
    assert check_proper(CLASSIC_SYSTEM)
    assert not check_proper(ProperAlgebraicSystem((z1,)))
    assert not check_proper(ProperAlgebraicSystem((x1 + FreePoly.one(), x2 + x1 * z1)))


def test_iterate_split_classic():
    for k in range(1, 11):
        sp = iterate_split(CLASSIC_SYSTEM, k, 2 * k + 3)
        head2 = sum((x1**j * x2 * x1**j for j in range(k)), FreePoly.zero())
        assert sp.head == (x1, head2)
        assert sp.floor == 2 * k + 1
        assert sp.tail == (FreePoly.zero(), x1**k * z2 * z1 * x1 ** (k - 1))


def test_iterate_split_becomes_exact_fixed_point():
    # from p = (x1, x2 - x1^2): system (x1, x2 + x1 z1) squares to the inverse
    system = ProperAlgebraicSystem((x1, x2 + x1 * z1))
    sp = iterate_split(system, 2, 10)
    assert sp.head == (x1, x2 + x1**2)
    assert sp.floor is None and sp.exact  # tail vanished without truncation


def test_iterate_split_z_free_system():
    system = ProperAlgebraicSystem((x1, x2 + x1**2))
    sp = iterate_split(system, 3, 10)
    assert sp.head == (x1, x2 + x1**2)
    assert sp.floor is None


def test_iterate_split_requires_proper():
    with pytest.raises(ImproperSystem):
        iterate_split(ProperAlgebraicSystem((z1,)), 1, 5)
    # z2 has no component to be substituted by, so its words never grow
    with pytest.raises(ImproperSystem):
        solve_truncated(ProperAlgebraicSystem((x1 + x1 * z2,)), 5)


@given(S.proper_systems(), st.integers(0, 5))
def test_iterates_floor_and_splits(system, w):
    for split in islice(iterates(system, w), 4):
        # dz_degree scans every letter of every word: the reference floor
        ref = min((h + t).dz_degree("z") for h, t in zip(split.head, split.tail))
        assert split.floor == (None if ref == float("inf") else ref)
        if w >= 1:
            assert iterate_split(system, split.k, w) == split


def ref_split(terms_per_comp):
    """(head, tail, floor) of an iterate given as word -> coefficient dicts."""
    z_lengths = [len(w) for terms in terms_per_comp for w in terms if any(k == "z" for k, _ in w)]
    floor = min(z_lengths, default=None)
    cut = float("inf") if floor is None else floor
    head = tuple(FreePoly({w: c for w, c in t.items() if len(w) < cut}) for t in terms_per_comp)
    tail = tuple(FreePoly({w: c for w, c in t.items() if len(w) >= cut}) for t in terms_per_comp)
    return head, tail, floor


def ref_iterates(system, trunc, k_max):
    """The first k_max truncated self-compositions by letter-by-letter
    substitution of the system into the z-slots of the previous iterate."""
    comps = system.components
    images = {("z", j + 1): comp for j, comp in enumerate(comps)}
    current = [{w: c for w, c in comp.terms() if len(w) <= trunc} for comp in comps]
    exact = all(len(cur) == len(comp) for cur, comp in zip(current, comps))
    out = []
    for k in range(1, k_max + 1):
        out.append((k, *ref_split(current), exact))
        step = [ref_substitute(FreePoly(cur), images, True, trunc) for cur in current]
        current = [terms for terms, _ in step]
        exact = exact and not any(dropped for _, dropped in step)
    return out


@given(S.proper_systems(), st.sampled_from([0, 1, 2, 3, 4, 6, 8]))
def test_iterates_match_reference_composition(system, trunc):
    k_max = 5
    got = [(s.k, s.head, s.tail, s.floor, s.exact) for s in islice(iterates(system, trunc), k_max)]
    assert got == ref_iterates(system, trunc, k_max)


def test_iterates_at_degree_zero():
    # everything is truncated away: one inexact, z-free, empty split per k
    splits = list(islice(iterates(CLASSIC_SYSTEM, 0), 3))
    assert [(s.k, s.floor, s.exact) for s in splits] == [(1, None, False), (2, None, False), (3, None, False)]
    assert all(not any(s.head) for s in splits)


@given(st.integers(1, 4), st.integers(1, 4))
def test_semigroup_law(n, m):
    # iterate(n+m) = iterate(n) with iterate(m) substituted into its z-slots
    w = 2 * (n + m) + 3
    left = iterate_split(CLASSIC_SYSTEM, n + m, w)
    sp_n = iterate_split(CLASSIC_SYSTEM, n, w)
    sp_m = iterate_split(CLASSIC_SYSTEM, m, w)
    iter_n = tuple(h + t for h, t in zip(sp_n.head, sp_n.tail))
    iter_m = tuple(h + t for h, t in zip(sp_m.head, sp_m.tail))
    images = {("z", j + 1): comp for j, comp in enumerate(iter_m)}
    composed = tuple(
        substitute(c, images, default_identity=True, trunc=w) for c in iter_n
    )
    assert composed == tuple(h + t for h, t in zip(left.head, left.tail))


def test_monotone_floor_until_beyond_working_degree():
    w = 9
    floors = []
    for k in range(1, 8):
        sp = iterate_split(CLASSIC_SYSTEM, k, w)
        floors.append(sp.floor)
    seen_none = False
    prev = 0
    for f in floors:
        if f is None:
            seen_none = True
            continue
        assert not seen_none, "floor became visible again after exceeding the cap"
        assert f > prev
        prev = f


@given(st.integers(1, 6))
def test_floor_beats_counter(k):
    sp = iterate_split(CLASSIC_SYSTEM, k, 2 * k + 3)
    assert sp.floor is None or sp.floor > k


@given(st.integers(1, 4), st.integers(0, 3))
def test_coefficient_stability(k, extra):
    n = k + extra
    w = 2 * n + 3
    sp_k = iterate_split(CLASSIC_SYSTEM, k, w)
    sp_n = iterate_split(CLASSIC_SYSTEM, n, w)
    cut = (sp_k.floor or (w + 1)) - 1
    assert tuple(h.truncate(cut) for h in sp_k.head) == tuple(
        h.truncate(cut) for h in sp_n.head
    )


def test_solve_truncated_classic():
    sol = solve_truncated(CLASSIC_SYSTEM, 7)
    expected = (x1, sum((x1**j * x2 * x1**j for j in range(4)), FreePoly.zero()))
    assert sol == expected


def test_solve_truncated_embedded_single_z():
    system = ProperAlgebraicSystem((x1, x2 + x1 * z2 * x1))
    for w in (5, 7, 9):
        sol = solve_truncated(system, w)
        expected = sum(
            (x1**j * x2 * x1**j for j in range(w + 1) if 2 * j + 1 <= w),
            FreePoly.zero(),
        )
        assert sol == (x1, expected)


def test_solve_truncated_z_free():
    system = ProperAlgebraicSystem((x1, x2 + x1**2))
    assert solve_truncated(system, 6) == (x1, x2 + x1**2)


@given(S.constant_free_maps(g=2, max_len=2, max_terms=2))
def test_fixed_point_residual(alpha):
    comps = tuple(
        c
        for c in (
            alpha[0] * FreePoly.letter("z", 1) * alpha[1] + alpha[0],
            alpha[1] + alpha[0] * FreePoly.letter("z", 2) * FreePoly.letter("z", 1),
        )
    )
    system = ProperAlgebraicSystem(comps)
    if not check_proper(system):
        return
    w = 6
    sol = solve_truncated(system, w)
    images = {("z", j + 1): sol[j] for j in range(2)}
    resub = tuple(
        substitute(c, images, default_identity=True, trunc=w) for c in system.components
    )
    assert tuple(r.truncate(w) for r in resub) == sol


def test_implicit_basic():
    f = FreePoly.letter("z", 1) - x1 - x1 * FreePoly.letter("z", 1)
    g = implicit_solve((f,), 4)
    assert g == (x1 + x1**2 + x1**3 + x1**4,)
    # residual vanishes mod degree 5
    resid = substitute(f, {("z", 1): g[0]}, default_identity=True, trunc=4)
    assert resid == FreePoly.zero()


def test_implicit_trivial():
    f = FreePoly.letter("z", 1) - x1
    assert implicit_solve((f,), 5) == (x1,)
    f2 = FreePoly.letter("z", 1)
    assert implicit_solve((f2,), 5) == (FreePoly.zero(),)


def test_implicit_errors():
    with pytest.raises(NonzeroConstant):
        implicit_solve((FreePoly.letter("z", 1) + FreePoly.one(),), 4)
    with pytest.raises(SingularLinearPart):
        implicit_solve((x1 + FreePoly.letter("z", 1) * FreePoly.letter("z", 1),), 4)


def test_implicit_normalizes_linear_part():
    # z-linear part [[2, 1], [0, 1]] needs normalization before iterating
    f1 = 2 * z1 + z2 - x1
    f2 = z2 - x2 - x1 * z1
    g = implicit_solve((f1, f2), 6)
    for f in (f1, f2):
        resid = substitute(
            f, {("z", 1): g[0], ("z", 2): g[1]}, default_identity=True, trunc=6
        )
        assert resid == FreePoly.zero()
