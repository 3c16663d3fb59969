"""The stored word form: one code point per letter.

Words are kept as `str` inside `FreePoly`, a `BipartitePoly` key is one
`str` (left word, separator, reversed right word), and both are tuples of
(kind, index) letters at the public boundary.  These tests check the codec itself and compare the ring product
against references on tuple words written here, and `substitute_tracked`
against the tuple-word reference of `test_substitute`, with letters on both
sides of the latin-1 edge (index 42 is the last index at which every kind
has a one-byte code).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from freeinv import BipartitePoly, FreePoly, UnboundLetter
from freeinv.freealg import KINDS, decode, encode, substitute_tracked, word_str
from freeinv.parsing import format_poly, parse_poly

import strategies as S
from test_substitute import RefUnbound, collect, ref_substitute

letters = st.tuples(st.sampled_from(KINDS), st.integers(1, 200))
words = st.lists(letters, max_size=5).map(tuple)
wide_polys = st.dictionaries(words, S.coefficients, max_size=5).map(FreePoly)


def graded_lex(w):
    return (len(w), [(KINDS.index(kind), i) for kind, i in w])


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


def ref_word_str(w):
    """The display of a tuple word, letter by letter: a run of n > 1 equal
    letters is written once, with `^n`."""
    runs = []
    for let in w:
        if runs and runs[-1][0] == let:
            runs[-1][1] += 1
        else:
            runs.append([let, 1])
    return "*".join(f"{kind}{i}" + (f"^{n}" if n > 1 else "") for (kind, i), n in runs) or "1"


# words made of runs, equal neighbouring runs merging into one
run_words = st.lists(st.tuples(letters, st.integers(1, 30)), max_size=4).map(
    lambda runs: tuple(let for let, n in runs for _ in range(n))
)


@given(run_words)
def test_word_str_writes_each_run_once(w):
    assert word_str(encode(w)) == ref_word_str(w)


def test_format_poly_writes_long_runs_of_every_kind():
    long = (("x", 1),) * 2000 + (("x", 3),) + (("x", 1),) * 2000
    kinds = ((("x", 12),) * 10 + (("y", 12),) + (("z", 3),) * 11 + (("w", 40),) + (("h", 100),) * 2
             + (("k", 7),))
    p = FreePoly({(): 3, long: -1, kinds: 1, (("k", 185_685),): 1})
    text = format_poly(p)
    assert text == "3 + k185685 + x12^10*y12*z3^11*w40*h100^2*k7 - x1^2000*x3*x1^2000"
    assert [word_str(encode(w)) for w, _ in p.sorted_terms()] == [ref_word_str(w) for w, _ in p.sorted_terms()]
    assert parse_poly(text) == p


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


@given(
    st.dictionaries(small_words, S.coefficients, max_size=4).map(FreePoly),
    images(),
    st.booleans(),
    st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6, 8]),
)
def test_substitute_tracked_matches_reference(f, imgs, default_identity, trunc):
    try:
        expected = ref_substitute(f, imgs, default_identity, trunc)
    except RefUnbound:
        expected = "unbound"
    try:
        res, dropped = substitute_tracked(f, imgs, default_identity=default_identity, trunc=trunc)
        got = (dict(res.terms()), dropped)
    except UnboundLetter:
        got = "unbound"
    assert got == expected
