"""`substitute_tracked` and `dz_degree` checked against letter-by-letter
references written here, sharing no code with `freeinv.freealg`.

The reference expands a word one letter at a time: an unbound letter (under
`default_identity`) is a one-term image with coefficient 1, every partial
product longer than `trunc` is pruned and flags `dropped`, partial products
are collected (zero sums removed) after each letter, and an empty
accumulator ends the word before any later letter is looked at.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from freeinv import FreePoly, UnboundLetter
from freeinv.freealg import KINDS, POS_INF, substitute_tracked

import strategies as S

LETTERS = (("x", 1), ("x", 2), ("z", 1), ("z", 2))
x1, x2, z1 = (FreePoly.letter(k, i) for k, i in (("x", 1), ("x", 2), ("z", 1)))


class RefUnbound(Exception):
    pass


def collect(pairs):
    out = {}
    for word, c in pairs:
        out[word] = out.get(word, 0) + c
    return {word: c for word, c in out.items() if c != 0}


def ref_substitute(f, images, default_identity, trunc):
    """(terms, dropped) of the substitution, or RefUnbound."""
    dropped = False
    total = []
    for word, coeff in f.terms():
        acc = {(): coeff}
        for let in word:
            if let in images:
                choices = list(images[let].terms())
            elif default_identity:
                choices = [((let,), 1)]
            else:
                raise RefUnbound(let)
            pairs = []
            for aw, ac in acc.items():
                for iw, ic in choices:
                    nw = aw + iw
                    if trunc is not None and len(nw) > trunc:
                        dropped = True
                    else:
                        pairs.append((nw, ac * ic))
            acc = collect(pairs)
            if not acc:
                break
        total.extend(acc.items())
    return collect(total), dropped


def run_both(f, images, default_identity, trunc):
    try:
        expected = ref_substitute(f, images, default_identity, trunc)
    except RefUnbound:
        expected = "unbound"
    try:
        res, dropped = substitute_tracked(
            f, images, default_identity=default_identity, trunc=trunc
        )
        got = (dict(res.terms()), dropped)
    except UnboundLetter:
        got = "unbound"
    return got, expected


image = st.one_of(
    st.none(),
    st.just(FreePoly.zero()),
    S.coefficients.map(FreePoly.scalar),
    S.polys(kinds="xz", max_len=3, max_terms=3),
)
image_maps = st.tuples(*[image for _ in LETTERS]).map(
    lambda imgs: {let: img for let, img in zip(LETTERS, imgs) if img is not None}
)
truncs = st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6])


@settings(max_examples=200)
@given(S.polys(kinds="xz", max_len=6, max_terms=4), image_maps, st.booleans(), truncs)
def test_substitute_tracked_matches_letter_by_letter(f, images, default_identity, trunc):
    got, expected = run_both(f, images, default_identity, trunc)
    assert got == expected


def test_run_past_trunc_before_zero_image_is_dropped():
    # x1^3 exceeds trunc=2 inside the unbound run; the zero image that follows
    # must not hide that a word was pruned
    f = x1**3 * z1
    got, expected = run_both(f, {("z", 1): FreePoly.zero()}, True, 2)
    assert got == expected == ({}, True)
    # a trailing run past trunc is pruned too
    got, expected = run_both(z1 * x1 * x1, {("z", 1): x2}, True, 2)
    assert got == expected == ({}, True)


def test_all_unbound_word_longer_than_trunc_is_dropped():
    f = x1**4 + x2
    got, expected = run_both(f, {("z", 1): x1}, True, 3)
    assert got == expected == ({(("x", 2),): 1}, True)


def test_emptied_accumulator_does_not_raise_on_unbound_letter():
    # z1 -> 0 empties the accumulator before the unbound x1 is reached
    got, expected = run_both(z1 * x1, {("z", 1): FreePoly.zero()}, False, None)
    assert got == expected == ({}, False)
    # so does pruning every partial product at trunc
    got, expected = run_both(z1 * z1 * x1, {("z", 1): x1 * x1}, False, 3)
    assert got == expected == ({}, True)
    # with a live accumulator the unbound letter raises
    got, expected = run_both(z1 * x1, {("z", 1): x2}, False, None)
    assert got == expected == "unbound"


# images as the fixed-point iteration has them: every image nonzero and
# constant-free, and either every letter bound or unbound letters passed
# through as themselves, so that every word is live
lookahead_image = S.constant_free_polys(kinds="xz", max_len=3, max_terms=3).filter(bool)


@st.composite
def lookahead_cases(draw):
    default_identity = draw(st.booleans())
    bound = [draw(st.booleans()) or not default_identity for _ in LETTERS]
    images = {let: draw(lookahead_image) for let, b in zip(LETTERS, bound) if b}
    return images, default_identity


@given(S.polys(kinds="xz", max_len=6, max_terms=4), lookahead_cases(), st.integers(0, 8))
def test_lookahead_regime_matches_letter_by_letter(f, case, trunc):
    images, default_identity = case
    got, expected = run_both(f, images, default_identity, trunc)
    assert got == expected


def test_doomed_partial_product_that_cancels_still_drops():
    # after z1 -> x1 + x1*x2 and z2 -> x2*x1 - x1 the partial products
    # x1*(x2*x1) and (x1*x2)*x1 cancel; at trunc 4 with two letters still to
    # come both are doomed, as is x1*x2*x2*x1, which the letter-by-letter
    # expansion keeps until the next x1 pushes it past trunc
    images = {("z", 1): x1 + x1 * x2, ("z", 2): x2 * x1 - x1}
    f = z1 * FreePoly.letter("z", 2) * x1 * x1
    got, expected = run_both(f, images, True, 4)
    assert got == expected == ({(("x", 1),) * 4: -1}, True)


def test_unbound_letter_without_default_identity_still_raises():
    # x2 has length 1 = trunc, so it reaches the unbound x1, which raises
    # although every completion of x2 is longer than trunc
    got, expected = run_both(z1 * x1, {("z", 1): x2}, False, 1)
    assert got == expected == "unbound"


def test_zero_or_constant_image_switches_the_lookahead_off():
    z2 = FreePoly.letter("z", 2)
    x1x1 = (("x", 1), ("x", 1))
    # x1*x1 fills trunc with a letter still to come, but that letter's image
    # is zero: nothing is pruned, the product just vanishes
    got, expected = run_both(z1 * z2, {("z", 1): x1 * x1, ("z", 2): FreePoly.zero()}, True, 2)
    assert got == expected == ({}, False)
    # a constant image adds no letter, so x1*x1 survives
    got, expected = run_both(z1 * z2, {("z", 1): x1 * x1, ("z", 2): FreePoly.scalar(3)}, True, 2)
    assert got == expected == ({x1x1: 3}, False)
    # an image with a constant term as well as longer words
    images = {("z", 1): x1 * x1, ("z", 2): 1 + x2}
    got, expected = run_both(z1 * z2, images, True, 2)
    assert got == expected == ({x1x1: 1}, True)


def test_stop_letter_reads_the_low_and_the_top_degree_of_the_prefix():
    # z1 -> x2 + x2^2 has low degree 1 and top degree 2: at trunc 1 the term
    # x2 still reaches the unbound x1, which raises, although x2^2 was pruned
    got, expected = run_both(z1 * x1, {("z", 1): x2 + x2 * x2}, False, 1)
    assert got == expected == "unbound"
    # at trunc 2, x1^3 is pruned before the zero image of z2 ends the word
    images = {("z", 1): x1 + x1**3, ("z", 2): FreePoly.zero()}
    got, expected = run_both(z1 * FreePoly.letter("z", 2), images, False, 2)
    assert got == expected == ({}, True)


def ref_dz_degree(f, kind):
    lengths = [len(w) for w, _ in f.terms() if any(k == kind for k, _ in w)]
    return min(lengths, default=POS_INF)


@given(S.polys(kinds=KINDS, max_index=2, max_len=4, max_terms=4))
def test_dz_degree_matches_reference(f):
    for kind in KINDS:
        assert f.dz_degree(kind) == ref_dz_degree(f, kind)


def test_dz_degree_without_the_kind():
    for kind in KINDS:
        assert FreePoly.zero().dz_degree(kind) == POS_INF
    f = x1 * x2 + x1**3
    assert [f.dz_degree(kind) for kind in KINDS] == [2] + [POS_INF] * (len(KINDS) - 1)
    assert (x1**3 + z1 * x1 + z1).dz_degree("z") == 1
