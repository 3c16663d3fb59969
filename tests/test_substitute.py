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
