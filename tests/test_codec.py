"""The stored word form: one code point per letter.

Words are kept as `str` inside `FreePoly`, a `BipartitePoly` key is one
`str` (left word, separator, reversed right word), and both are tuples of
(kind, index) letters at the public boundary.  These tests check the codec itself and compare the ring product
and `substitute_tracked` against references on tuple words written here,
with letters on both sides of the latin-1 edge (index 42 is the last index
at which every kind has a one-byte code).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from freeinv import BipartitePoly, FreePoly, UnboundLetter
from freeinv.freealg import KINDS, decode, encode, substitute_tracked
from freeinv.parsing import format_poly

import strategies as S

letters = st.tuples(st.sampled_from(KINDS), st.integers(1, 200))
words = st.lists(letters, max_size=5).map(tuple)
wide_polys = st.dictionaries(words, S.coefficients, max_size=5).map(FreePoly)


def graded_lex(w):
    return (len(w), [(KINDS.index(kind), i) for kind, i in w])


def collect(pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c != 0}


# -- the codec ---------------------------------------------------------------


@given(words)
def test_decode_inverts_encode(w):
    s = encode(w)
    assert len(s) == len(w)
    assert decode(s) == w


@given(st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 42)), max_size=8))
def test_indices_up_to_42_are_latin_1(w):
    assert all(ord(ch) < 256 for ch in encode(w))


def test_latin_1_edge():
    assert max(map(ord, encode([(kind, 42) for kind in KINDS]))) == 252
    assert [ord(encode([(kind, 43)])) for kind in KINDS] == [253, 254, 255, 256, 257, 258]


@pytest.mark.parametrize("bad", [("q", 1), ("x", 0), ("k", 0), ("x", -3), ("x", 1.5), ("x",)])
def test_encode_rejects_non_letters(bad):
    with pytest.raises(ValueError):
        encode([bad])
    with pytest.raises(ValueError):
        FreePoly({(bad,): 1})
    if len(bad) == 2:
        with pytest.raises(ValueError):
            FreePoly.letter(*bad)


# -- the public boundary -----------------------------------------------------


@given(wide_polys)
def test_terms_round_trip(p):
    assert FreePoly(dict(p.terms())) == p
    for w, c in p.terms():
        assert type(w) is tuple and p.coefficient(w) == c
        assert p.coefficient(list(w)) == c
    assert p.letters() == {let for w, _ in p.terms() for let in w}


@given(wide_polys, words)
def test_coefficient_of_absent_word_is_zero(p, w):
    if w not in dict(p.terms()):
        assert p.coefficient(w) == 0


@given(wide_polys)
def test_sorted_terms_are_graded_lex(p):
    expected = sorted(p.terms(), key=lambda t: graded_lex(t[0]))
    assert p.sorted_terms() == expected
    # format_poly writes the terms in that order
    pieces = [format_poly(FreePoly({w: c})) for w, c in expected]
    text = pieces[0] if pieces else "0"
    for piece in pieces[1:]:
        text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    assert format_poly(p) == text


def test_graded_lex_is_kind_major_not_code_major():
    # x2 has a larger code point than y1, but x comes before y
    p = FreePoly({(("y", 1),): 1, (("x", 2),): 1, (("x", 1), ("k", 50)): 1, (("k", 1),): 1})
    assert [w for w, _ in p.sorted_terms()] == [
        (("x", 2),), (("y", 1),), (("k", 1),), (("x", 1), ("k", 50)),
    ]
    assert format_poly(p) == "x2 + y1 + k1 + x1*k50"


# -- ring products against tuple-word references ----------------------------


@given(wide_polys, wide_polys)
def test_free_product_matches_reference(a, b):
    expected = collect(
        (wa + wb, ca * cb) for wa, ca in a.terms() for wb, cb in b.terms()
    )
    assert dict((a * b).terms()) == expected


bipartite_keys = st.tuples(
    st.lists(letters, max_size=3).map(tuple), st.lists(letters, max_size=3).map(tuple)
)
bipartite_polys = st.dictionaries(bipartite_keys, S.coefficients, max_size=4).map(BipartitePoly)


def bipartite_product(a, b):
    return collect(
        ((ua + ub, va + vb), ca * cb)
        for (ua, va), ca in a.terms()
        for (ub, vb), cb in b.terms()
    )


@given(bipartite_polys, bipartite_polys)
def test_bipartite_product_matches_reference(a, b):
    assert dict((a * b).terms()) == bipartite_product(a, b)
    assert BipartitePoly(dict(a.terms())) == a


# one key string holds the left word, the separator and the reversed right
# word; these keys sit at the edges of that layout
WIDE = (("k", 50), ("x", 43), ("y", 200))
EDGE_KEYS = {
    "unit": ((), ()),
    "empty-left": ((), (("x", 1), ("y", 2))),
    "empty-right": ((("y", 1), ("x", 2)), ()),
    "wide-left": (WIDE, (("x", 1),)),
    "wide-right": ((("y", 1),), WIDE),
    "wide-both": (WIDE, WIDE[::-1]),
}


@pytest.mark.parametrize("key", EDGE_KEYS.values(), ids=EDGE_KEYS.keys())
def test_bipartite_key_layout_edges(key):
    d = len(key[0]) + len(key[1])
    b = BipartitePoly({key: 3})
    assert b.terms() == [(key, 3)]
    assert BipartitePoly(dict(b.terms())) == b
    assert b.degree() == d
    assert b.constant_term() == (3 if d == 0 else 0)
    assert b.homogeneous_part(d) == b and not b.homogeneous_part(d + 1)
    every = BipartitePoly({k: i + 1 for i, k in enumerate(EDGE_KEYS.values())})
    for x, y in ((b, b), (b, every), (every, b)):
        assert dict((x * y).terms()) == bipartite_product(x, y)


# -- substitution against a letter-by-letter reference on tuple words -------

BOUND = (("x", 1), ("z", 2), ("y", 43), ("k", 200))
small_words = st.lists(st.sampled_from(BOUND + (("w", 7), ("h", 90))), max_size=5).map(tuple)


@st.composite
def images(draw):
    # half the draws are nonzero constant-free images, as the fixed-point
    # iteration has them; the others may be zero or have a constant term
    constant_free = int(draw(st.booleans()))
    image_words = st.lists(st.sampled_from(BOUND), min_size=constant_free, max_size=3).map(tuple)
    image = st.dictionaries(image_words, S.coefficients, min_size=constant_free, max_size=3)
    return draw(st.dictionaries(st.sampled_from(BOUND), image.map(FreePoly)))


def ref_substitute(f, imgs, default_identity, trunc):
    """(terms, dropped), or "unbound" when a letter without an image is reached."""
    dropped = False
    total = []
    for word, coeff in f.terms():
        acc = {(): coeff}
        for let in word:
            if let in imgs:
                choices = imgs[let].terms()
            elif default_identity:
                choices = [((let,), 1)]
            else:
                return "unbound"
            pairs = []
            for aw, ac in acc.items():
                for iw, ic in choices:
                    if trunc is not None and len(aw + iw) > trunc:
                        dropped = True
                    else:
                        pairs.append((aw + iw, ac * ic))
            acc = collect(pairs)
            if not acc:
                break
        total.extend(acc.items())
    return collect(total), dropped


@given(
    st.dictionaries(small_words, S.coefficients, max_size=4).map(FreePoly),
    images(),
    st.booleans(),
    st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6, 8]),
)
def test_substitute_tracked_matches_reference(f, imgs, default_identity, trunc):
    expected = ref_substitute(f, imgs, default_identity, trunc)
    try:
        res, dropped = substitute_tracked(f, imgs, default_identity=default_identity, trunc=trunc)
        got = (dict(res.terms()), dropped)
    except UnboundLetter:
        got = "unbound"
    assert got == expected
