"""The suffix memo of `SubstitutionImages`, checked against the
letter-by-letter reference of `test_substitute`, which shares no code with
`freeinv.freealg`.

One image set serves many `substitute_tracked` calls, at budgets that rise,
fall and jump about, so an entry built for one budget is asked for at
others; every answer, terms and `dropped` alike, must be the one a fresh
expansion gives.  `compose` and `iterates` share one image set across the
words of a call and across calls, and must agree with fresh references too.
"""

import sys
from itertools import islice

import hypothesis.strategies as st
from hypothesis import given

from freeinv import FreePoly, ProperAlgebraicSystem, compose, iterates
from freeinv.freealg import SubstitutionImages, substitute_tracked

import strategies as S
from test_substitute import ref_substitute

x1, x2 = FreePoly.letter("x", 1), FreePoly.letter("x", 2)
z1, z2 = FreePoly.letter("z", 1), FreePoly.letter("z", 2)
Z = (("z", 1), ("z", 2))


def run(f, images, default_identity, trunc):
    res, dropped = substitute_tracked(f, images, default_identity=default_identity, trunc=trunc)
    return dict(res.terms()), dropped


# images of z1 and z2 over x1, x2, z1, z2: either both nonzero and
# constant-free, as the fixed-point iteration has them, or either of them
# zero or with a constant term; the memo serves the words of both kinds
constant_free_image = S.constant_free_polys(kinds="xz", max_len=3, max_terms=3).filter(bool)
any_image = st.one_of(st.just(FreePoly.zero()), S.polys(kinds="xz", max_len=3, max_terms=3))
lookahead_images = st.one_of(
    st.tuples(constant_free_image, constant_free_image),
    st.tuples(any_image, any_image),
).map(lambda imgs: dict(zip(Z, imgs)))
budgets = st.lists(st.integers(0, 9), min_size=1, max_size=8)


@given(lookahead_images, S.polys(kinds="xz", max_len=6, max_terms=3), budgets)
def test_one_image_set_at_rising_falling_and_random_budgets(images, f, order):
    for trunc_order in (sorted(order), sorted(order, reverse=True), order):
        shared = SubstitutionImages(images)
        for trunc in trunc_order:
            assert run(f, shared, True, trunc) == ref_substitute(f, images, True, trunc)


@given(lookahead_images, st.lists(S.polys(kinds="xz", max_len=6, max_terms=3), min_size=1, max_size=4), budgets)
def test_one_image_set_across_many_polynomials(images, fs, order):
    # the words of one call share tails with those of the others
    shared = SubstitutionImages(images)
    for trunc in order + [None]:
        for f in fs:
            if trunc is None and f.degree() > 4:
                continue  # keep the untruncated expansions small
            assert run(f, shared, True, trunc) == ref_substitute(f, images, True, trunc)


def test_single_words_at_every_budget_both_ways():
    images = {Z[0]: x1 + x1 * z2 + x2 * z1 * x1, Z[1]: x2 - z1 * z1}
    f = z1 * x2 * z2 * z1 * x1
    for budgets_seen in (range(0, 16), range(15, -1, -1), [7, 3, 12, 0, 15, 5, 9]):
        shared = SubstitutionImages(images)
        for trunc in budgets_seen:
            assert run(f, shared, True, trunc) == ref_substitute(f, images, True, trunc)


def test_an_incomplete_entry_is_rebuilt_for_a_larger_budget():
    images = {Z[0]: x1 + x1 * x1, Z[1]: x2 + x2 * x2}
    shared = SubstitutionImages(images)
    f = z1 * z2 * z1
    small = run(f, shared, False, 4)
    assert small == ref_substitute(f, images, False, 4)
    assert small[1]  # the entry at budget 4 dropped words
    assert run(f, shared, False, 6) == ref_substitute(f, images, False, 6)
    assert run(f, shared, False, 6)[1] is False
    assert run(f, shared, False, 5) == ref_substitute(f, images, False, 5)


maps = st.tuples(S.polys(max_len=3, max_terms=3), S.polys(max_len=3, max_terms=3))


@given(maps, maps)
def test_compose_matches_reference(p, q):
    # q may hold zero images and constant terms: compose never truncates
    images = {("x", i + 1): qi for i, qi in enumerate(q)}
    expected = tuple(ref_substitute(pi, images, False, None)[0] for pi in p)
    assert tuple(dict(c.terms()) for c in compose(p, q)) == expected


def test_compose_with_zero_and_constant_images():
    p = (x1 * x2 * x1 + 2 * x2 * x2 - x1, x2 * x1 * x1 * x2 + 3)
    for q in ((FreePoly.zero(), x2 + 1), (x1 * x2 - 2, FreePoly.scalar(5)), (x1 + x2 * x1, 1 - x1)):
        images = {("x", 1): q[0], ("x", 2): q[1]}
        expected = tuple(ref_substitute(pi, images, False, None)[0] for pi in p)
        assert tuple(dict(c.terms()) for c in compose(p, q)) == expected


def splits(system, w, k):
    return list(islice(iterates(system, w), k))


@given(S.proper_systems(), st.integers(1, 5))
def test_iterates_on_one_system_at_w_then_2w_equal_fresh_runs(system, w):
    comps = system.components
    for first, second in ((w, 2 * w), (2 * w, w)):
        assert splits(system, first, 5) == splits(ProperAlgebraicSystem(comps), first, 5)
        assert splits(system, second, 5) == splits(ProperAlgebraicSystem(comps), second, 5)


def test_iterates_with_a_zero_component():
    # the z-words with the zero component's letter stop there and are
    # settled from degrees outside the memo; the system's image set must
    # still give the fresh splits
    system = ProperAlgebraicSystem((x1 + x1 * z2 * z1 + x2 * z1 * z1, FreePoly.zero()))
    for w in (4, 8, 4, 16):
        assert splits(system, w, 6) == splits(ProperAlgebraicSystem(system.components), w, 6)


def test_iterates_of_the_classic_system_across_working_degrees():
    system = ProperAlgebraicSystem((x1, x2 + x1 * z2 * z1))
    for w in (8, 16, 32, 13, 64):
        assert splits(system, w, 12) == splits(ProperAlgebraicSystem(system.components), w, 12)


def test_a_word_with_5000_bound_letters_under_the_default_recursion_limit():
    z1_5000 = FreePoly.monomial((Z[0],) * 5000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        res, dropped = substitute_tracked(z1_5000, {Z[0]: x1 + x2 * x1}, trunc=5000)
    finally:
        sys.setrecursionlimit(limit)
    assert dict(res.terms()) == {(("x", 1),) * 5000: 1}
    assert dropped
