"""Proper-system iteration, splits, truncated solving, implicit solving."""

import random
from contextlib import contextmanager
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
    invert,
    iterate_split,
    iterates,
    solve_truncated,
    auxiliary_inverse,
    substitute,
    sysolve,
)
from freeinv.freealg import encode
from freeinv.inverter import jacobian_gate

import strategies as S
from corpus import NILPOTENT, P_CLASSIC
from tame import random_tame_pair
from test_substitute import ref_substitute

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)
z1 = FreePoly.letter("z", 1)
z2 = FreePoly.letter("z", 2)

CLASSIC_SYSTEM = ProperAlgebraicSystem((x1, x2 + x1 * z2 * z1))


def aux_system(p):
    """The proper system x J^-1(z) that `invert` iterates for the map p."""
    return auxiliary_inverse(p, jacobian_gate(p))


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


def check_iterates(system, trunc, k_max):
    got = [(s.k, s.head, s.tail, s.floor, s.exact) for s in islice(iterates(system, trunc), k_max)]
    assert got == ref_iterates(system, trunc, k_max)


TRUNCS = [0, 1, 2, 3, 4, 6, 8]


@given(S.proper_systems(), st.sampled_from(TRUNCS))
def test_iterates_match_reference_composition(system, trunc):
    check_iterates(system, trunc, 5)


def family(a, b):
    return (x1, x2 - x1**a * x2 * x1**b)


def sandwich():
    x3 = FreePoly.letter("x", 3)
    return (x1, x2, x3 - x1 * x3 * x1)


def tame_maps(n):
    rng = random.Random(8)
    return [random_tame_pair(rng)[0] for _ in range(n)]


AUXILIARY = pytest.mark.parametrize(
    "maps, trunc, k_max",
    [
        ([NILPOTENT], 12, 10),
        ([family(1, 1), family(2, 2)], 40, 12),
        ([sandwich()], 24, 8),
        (tame_maps(10), 8, 6),
    ],
    ids=["nilpotent", "family", "sandwich", "tame"],
)


@AUXILIARY
def test_iterates_match_reference_on_auxiliary_systems(maps, trunc, k_max):
    for p in maps:
        check_iterates(aux_system(p), trunc, k_max)


# a step takes a o T_k (the system side) or T_k o a (the iterate side)
KERNELS = {"system": "_into_system", "iterate": "_into_iterate"}

# the forced runs: a side, and the `_WIDE` the iterate side runs with (None
# keeps it); at 0 every group takes the wide route, at inf the flat one
FORCED = {
    "system": ("system", None),
    "iterate": ("iterate", None),
    "iterate-wide": ("iterate", 0),
    "iterate-flat": ("iterate", float("inf")),
}


@contextmanager
def forced(kernel):
    """Every step of `iterates` inside the block takes the side of the forced
    run `kernel`, and the iterate side its routes; yields the side."""
    side, wide = FORCED[kernel]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysolve, "_GROUPS_PER_TERM", -1 if side == "system" else float("inf"))
        if wide is not None:
            mp.setattr(sysolve, "_WIDE", wide)
        yield side


@contextmanager
def kernel_log():
    """The side each step inside the block takes, in order."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        for kernel, name in KERNELS.items():
            fn = getattr(sysolve, name)
            mp.setattr(sysolve, name, lambda *args, fn=fn, kernel=kernel: log.append(kernel) or fn(*args))
        yield log


@pytest.mark.parametrize("kernel", FORCED)
@given(S.proper_systems(), st.sampled_from(TRUNCS))
def test_each_kernel_matches_reference_composition(kernel, system, trunc):
    with forced(kernel) as side, kernel_log() as log:
        check_iterates(system, trunc, 5)
    # a system without terms has no groups: 0 > -1 * 0 fails, and the step
    # takes the iterate side
    assert set(log) <= {side} or system.size == 0


@pytest.mark.parametrize("kernel", FORCED)
@AUXILIARY
def test_each_kernel_matches_reference_on_auxiliary_systems(kernel, maps, trunc, k_max):
    with forced(kernel) as side, kernel_log() as log:
        for p in maps:
            check_iterates(aux_system(p), trunc, k_max)
    assert set(log) == {side}


@pytest.mark.parametrize("kernel", FORCED)
@pytest.mark.parametrize("trunc", [3, 4, 6, 7])
@pytest.mark.parametrize(
    "system",
    [
        # at trunc 3 the word z1 x1 z2 drops the partial product z1 x1 z2 x1
        # before its zero letter z2, though its image is zero and the next
        # iterate is x1 exactly: `exact` must still turn False
        ProperAlgebraicSystem((x1 + z1 * x1 * z2, FreePoly.zero())),
        ProperAlgebraicSystem((x1 + x2 * z1 + z1 * x1 * z2 * z1, FreePoly.zero())),
        ProperAlgebraicSystem((x1 + x1 * z2 * z1 + x2 * z1 * z1, FreePoly.zero())),
        # at trunc 7, step 2: a o T_2 expands z2 z2 z1 with z2 -> T_2, of
        # degree 4, and would flag 8 > 7 before the zero letter; the groups
        # of T_2 reach degree 6 at most, and so does the reference
        ProperAlgebraicSystem((FreePoly.zero(), z2 * x2 + x2 * x1**2 + z2**2 * z1)),
        # T_1 has the group (z1 z2, 2) with 4 prefixes: the iterate side's
        # wide route meets a suffix through the zero component z2
        ProperAlgebraicSystem((x1 + (x1 + x2) ** 2 * z1 * z2 + x1 * z1, FreePoly.zero())),
    ],
    ids=["zero-after-prefix", "zero-inside", "zero-first", "flag-of-the-groups", "zero-in-a-wide-group"],
)
def test_each_kernel_on_a_system_with_a_zero_component(kernel, system, trunc):
    with forced(kernel) as side, kernel_log() as log:
        check_iterates(system, trunc, 5)
    assert set(log) <= {side}


@given(S.proper_systems())
def test_group_dropped_is_the_flag_of_the_reference(system):
    # `exact` is read off T_k's groups through `SubstitutionImages.degrees`
    # alone: for every z-suffix of the system's words and every room,
    # deg(beta) > room is the flag of letter-by-letter substitution of that
    # one word
    images = {("z", j + 1): comp for j, comp in enumerate(system.components)}
    suffixes = {w[i:] for comp in system for w, _ in comp.terms() for i, (kind, _) in enumerate(w) if kind == "z"}
    for beta in suffixes:
        for room in range(9):
            _, dropped = ref_substitute(FreePoly({beta: 1}), images, True, room)
            assert (system.images.degrees(encode(beta), True)[1] > room) == dropped, (beta, room)


def test_the_step_takes_the_system_side_on_many_groups_only():
    # seed-8 tame map 76 at w = 8: T_2 has 942 (beta, l) groups against 27
    # terms of the system, T_1 only 22
    system = aux_system(tame_maps(77)[76])
    assert system.size == 27
    with kernel_log() as log:
        splits = list(islice(iterates(system, 8), 3))
    assert [sum(map(len, (zwords for _, zwords in s._iterate))) for s in splits[:2]] == [22, 942]
    assert log == ["iterate", "system"]
    # the iterates of NILPOTENT keep 2 groups (system: 6 terms) however many
    # words they hold, those of P_CLASSIC 1 (system: 3 terms)
    with kernel_log() as log:
        invert(NILPOTENT, cap=12)
        invert(P_CLASSIC)
    assert log and set(log) == {"iterate"}


@pytest.mark.parametrize(
    "system, trunc, n",
    [
        (aux_system(NILPOTENT), 12, 10),
        (CLASSIC_SYSTEM, 21, 10),
        # x2^4 sits at or above the floor while later steps add z-free words
        # of its length, so a step writes to a bucket an earlier tail holds
        (ProperAlgebraicSystem((x1 + x2**4 + z1 * z1, x2)), 12, 6),
    ],
    ids=["nilpotent", "classic", "open-bucket"],
)
def test_splits_stay_valid_after_the_generator_moves_on(system, trunc, n):
    # no head or tail is read before the generator has run n steps on
    splits = list(islice(iterates(system, trunc), n))
    for split in splits:
        assert split == iterate_split(system, split.k, trunc)
        assert split.head_terms == sum(map(len, split.head))
        assert split.terms == sum(map(len, split.head + split.tail))
        assert split.head_degree() == max((h.degree() for h in split.head), default=float("-inf"))


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
