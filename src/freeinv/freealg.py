"""Free (noncommutative) polynomials over tagged multi-alphabets.

A letter is a (kind, index) pair with kind in "xyzwhk" and index >= 1; a word
is a sequence of letters (the empty word is the multiplicative identity).  A
FreePoly is a finite word -> coefficient map over the exact Gaussian
rationals; zero coefficients are never stored, so degree queries are
O(#terms).  Its arithmetic lives in `Poly`, the ring-generic core that the
bipartite polynomials share.

Words are stored as `str`, one code point per letter: letter (kind, i) is
chr(6*(i-1) + rank(kind) + 1) with kinds ranked x < y < z < w < h < k.  The
code is index-major, so every kind up to index 42 stays in latin-1: words are
1-byte strings whose hashes Python caches, concatenation is a byte copy, and
iterating a word yields cached one-character strings.  The public boundary
speaks tuples of letters: `FreePoly({word: c})`, `monomial`, `letter` and
`coefficient` encode, `terms()`, `sorted_terms()` and `letters()` decode, and
substitution images are keyed by letter tuples.  Everything inside the
package that runs per term works on the encoded `_terms` directly.

Substitution has one set-up, `SubstitutionImages` (encoded letters, each
image's terms grouped by length, the lookahead flag), and one loop over the
words of its input; `substitute_tracked` builds the set-up from a dict when
it is given one.

Each stored coefficient has its narrowest exact type (`scalars.exact`): an
int, else a Fraction, else a GaussianRational.  The constructor narrows every
coefficient it is given; the ring operations and substitution take sums and
products of stored coefficients with the types' own arithmetic, which stays
narrow except that Fractions may add or multiply to an integer -- `_settled`
narrows those once per result.  Integer maps therefore run on native int
arithmetic throughout.

Canonical term order everywhere is graded lexicographic: by word length, then
letter by letter with kinds ranked x < y < z < w < h < k.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .scalars import exact

KINDS = "xyzwhk"
_KIND_RANK = {k: r for r, k in enumerate(KINDS)}

NEG_INF = float("-inf")
POS_INF = float("inf")

# the stored form of the empty word
EMPTY_WORD = ""


class UnboundLetter(KeyError):
    """A substitution image is missing for a letter that occurs in the input."""


class ArityMismatch(ValueError):
    """A letter falls outside the declared alphabet of an operation."""


def letter(kind: str, index: int):
    if kind not in _KIND_RANK:
        raise ValueError(f"unknown letter kind {kind!r}")
    if index < 1:
        raise ValueError("letter index must be >= 1")
    return (kind, index)


# -- the word codec (see the module docstring) ----------------------------------
#
# Both directions are memoised in dicts that start empty and fill with the
# letters actually met, so a word converts at C speed through `map` over a
# dict lookup.


class _CodePoints(dict):
    """letter -> its one-character code, checked and filled on first use."""

    def __missing__(self, let):
        kind, i = let
        if kind not in _KIND_RANK or not isinstance(i, int) or i < 1:
            raise ValueError(f"not a letter (kind in {KINDS!r}, index >= 1): {let!r}")
        ch = self[let] = chr(6 * i - 5 + _KIND_RANK[kind])
        return ch


class _Letters(dict):
    """one-character code -> its letter, filled on first use."""

    def __missing__(self, ch):
        i, r = divmod(ord(ch) - 1, 6)
        let = self[ch] = (KINDS[r], i + 1)
        return let


encode_letter = _CodePoints().__getitem__
decode_letter = _Letters().__getitem__


def encode(w) -> str:
    """The stored form of a word given as a sequence of (kind, index) letters."""
    return "".join(map(encode_letter, w))


def decode(s: str) -> tuple:
    """The tuple of letters of a stored word."""
    return tuple(map(decode_letter, s))


def word_key(w):
    """Graded-lexicographic sort key."""
    return (len(w), tuple((_KIND_RANK[k], i) for (k, i) in w))


def _letter_str(let):
    return f"{let[0]}{let[1]}"


def word_str(w) -> str:
    """Compressed display like 'x1*x2^2'; the empty word prints as '1'."""
    if not w:
        return "1"
    parts = []
    run_letter, run = w[0], 1
    for let in w[1:]:
        if let == run_letter:
            run += 1
        else:
            parts.append(_letter_str(run_letter) + (f"^{run}" if run > 1 else ""))
            run_letter, run = let, 1
    parts.append(_letter_str(run_letter) + (f"^{run}" if run > 1 else ""))
    return "*".join(parts)


def _settled(terms: dict) -> dict:
    """`terms` with every integral Fraction narrowed to an int.

    Sums and products of stored coefficients keep their narrowest type except
    when Fractions add or multiply to an integer; a dict without a Fraction is
    returned as is.
    """
    if Fraction in set(map(type, terms.values())):
        return {k: exact(c) for k, c in terms.items()}
    return terms


class Poly:
    """A finite key -> nonzero exact coefficient map over a graded key monoid.

    Subclasses fix the key algebra through hooks: `_ONE_KEY` (the identity
    key), `_concat` (key product), `_key_degree` (graded degree of a key),
    `_norm_key` (the stored form of a key given to the constructor) and
    `_decode_key` (its public form, as `terms()` returns it).  Everything
    else -- normalisation, constructors, equality, ring arithmetic and graded
    queries -- is shared.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        # keys arrive in the public form and are stored encoded (`_norm_key`)
        clean = {}
        if terms:
            norm = self._norm_key
            for key, c in terms.items():
                g = exact(c)
                if g is None:
                    raise TypeError(f"bad coefficient {c!r}")
                if g:
                    clean[norm(key)] = g
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict):
        # internal: terms must already be normalized (no zeros, canonical keys)
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def _summed(cls, terms: dict):
        # internal: canonical keys whose coefficients are sums of stored ones
        return cls._raw(_settled({k: c for k, c in terms.items() if c}))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({cls._ONE_KEY: 1})

    @classmethod
    def scalar(cls, c):
        g = exact(c)
        if g is None:
            raise TypeError(f"bad scalar {c!r}")
        return cls._raw({cls._ONE_KEY: g} if g else {})

    # -- inspection --------------------------------------------------------

    def terms(self):
        """(key, coefficient) pairs with keys in their public form."""
        decode_key = self._decode_key
        return [(decode_key(k), c) for k, c in self._terms.items()]

    def constant_term(self):
        return self._terms.get(self._ONE_KEY, 0)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._terms == other._terms
        g = exact(other)
        if g is None:
            return NotImplemented
        return self._terms == ({self._ONE_KEY: g} if g else {})

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def degree(self):
        """Max key degree, or -inf for the zero polynomial."""
        return max(map(self._key_degree, self._terms), default=NEG_INF)

    def homogeneous_part(self, m: int):
        deg = self._key_degree
        return self._raw({k: c for k, c in self._terms.items() if deg(k) == m})

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            g = exact(other)
            if g is None:
                return NotImplemented
            other = self.scalar(g)
        if len(self._terms) < len(other._terms):
            self, other = other, self
        out = dict(self._terms)
        for k, c in other._terms.items():
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = prev + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return self._raw(_settled(out))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, type(self)):
            return self + (-other)
        g = exact(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            g = exact(other)
            if g is None:
                return NotImplemented
            if not g:
                return self.zero()
            return self._raw(_settled({k: c * g for k, c in self._terms.items()}))
        concat = self._concat
        out = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = concat(k1, k2)
                c = c1 * c2
                prev = out.get(k)
                if prev is None:
                    out[k] = c
                else:
                    s = prev + c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return self._raw(_settled(out))

    def __rmul__(self, other):
        g = exact(other)
        if g is None:
            return NotImplemented
        return self * g

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self.one()
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


class FreePoly(Poly):
    """A finite sum of words with nonzero exact coefficients."""

    __slots__ = ()
    _ONE_KEY = EMPTY_WORD
    _concat = staticmethod(operator.add)
    _key_degree = staticmethod(len)
    _norm_key = staticmethod(encode)
    _decode_key = staticmethod(decode)

    @classmethod
    def letter(cls, kind: str, index: int):
        return cls._raw({encode_letter(letter(kind, index)): 1})

    @classmethod
    def monomial(cls, w, coeff=1):
        g = exact(coeff)
        if g is None:
            raise TypeError(f"bad coefficient {coeff!r}")
        return cls._raw({encode(w): g} if g else {})

    def sorted_terms(self):
        """`terms()` in graded-lexicographic order."""
        # renumber the letters that occur in letter order, so that comparing
        # the renumbered words compares them letter by letter
        letters = sorted(set().union(*self._terms), key=lambda ch: word_key((decode_letter(ch),)))
        table = {ord(ch): n for n, ch in enumerate(letters, 1)}
        ordered = sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0].translate(table)))
        return [(decode(w), c) for w, c in ordered]

    def coefficient(self, w):
        return self._terms.get(encode(w), 0)

    def dz_degree(self, kind="z"):
        """Min total length among words containing a letter of `kind`; +inf if none."""
        # the letters of `kind` that occur; then one C-speed set test per word
        chars = {ch for ch in set().union(*self._terms) if decode_letter(ch)[0] == kind}
        return min((len(w) for w in self._terms if not chars.isdisjoint(w)), default=POS_INF)

    def letters(self):
        return set(map(decode_letter, set().union(*self._terms)))

    # -- structure ---------------------------------------------------------

    def transpose(self):
        """Reverse every word; an involutive anti-automorphism."""
        return FreePoly._raw({w[::-1]: c for w, c in self._terms.items()})

    def truncate(self, bound: int):
        """Drop all words of length > bound."""
        if bound < 0:
            raise ValueError("truncation bound must be >= 0")
        return FreePoly._raw({w: c for w, c in self._terms.items() if len(w) <= bound})

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)


def _length_groups(img):
    """The terms of `img` as (length, [(word, coeff), ...]) pairs, shortest first."""
    groups = {}
    for iw, ic in img._terms.items():
        groups.setdefault(len(iw), []).append((iw, ic))
    return sorted(groups.items())


class SubstitutionImages:
    """Substitution images set up once for any number of truncated
    `substitute_tracked` calls: keyed by encoded letter, each image's terms
    grouped by length, and the lookahead flag."""

    __slots__ = ("groups", "lookahead")

    def __init__(self, images):
        encoded = {encode_letter(let): img for let, img in images.items()}
        self.groups = {let: _length_groups(img) for let, img in encoded.items()}
        self.lookahead = all(img and EMPTY_WORD not in img._terms for img in encoded.values())


def substitute_tracked(f: FreePoly, images, *, default_identity=False, trunc=None):
    """Apply the algebra homomorphism letter -> images[letter].

    Returns (result, dropped) where dropped flags that some word of the true
    image exceeded `trunc` and was pruned.  Pruning partial products is sound
    because word lengths never shrink under concatenation.

    Cost is per surviving partial product.  `images` is a dict letter ->
    FreePoly or a `SubstitutionImages` built from one; a dict is set up as
    one on each call, so a caller with many calls on the same images builds
    it once.  Each image's terms are grouped by length, and extending a
    partial product stops at the first group that cannot fit under `trunc`.
    Under `default_identity` an unbound letter (one without an image) is its
    own image: each run of unbound letters is appended as one slice, and a
    word with no bound letter comes out as itself.

    Lookahead.  When every image is nonzero and constant-free, every letter
    still to come adds at least one letter, so a partial product of length L
    at position pos of w is kept only if L + (len(w) - pos - 1) <= trunc.
    This does not change `dropped`: the free algebra is a domain, so the
    top-degree parts of a nonzero partial sum and of the later (nonzero)
    images multiply to a nonzero polynomial, and a letter-by-letter expansion
    that keeps a doomed product therefore exceeds `trunc` at some later
    letter whatever cancels on the way.  The lookahead is off (the bound
    counts no later letter) when some image is zero or has a constant term,
    or when a word has an unbound letter and no `default_identity`: it must
    still raise `UnboundLetter` if a partial product reaches that letter.  A
    run is checked against `trunc` before the next image is expanded, so
    `dropped` is set even when that image is zero.
    """
    if not isinstance(images, SubstitutionImages):
        images = SubstitutionImages(images)
    groups = images.groups
    lookahead = trunc is not None and images.lookahead
    limit = POS_INF if trunc is None else trunc
    bound = groups.keys()
    out = {}
    dropped = False
    for w, coeff in f._terms.items():
        n = len(w)
        look = lookahead and (default_identity or bound >= set(w))
        acc = {EMPTY_WORD: coeff}
        start = 0
        for pos, let in enumerate(w):
            grp = groups.get(let)
            if grp is None:
                if not default_identity:
                    let = _letter_str(decode_letter(let))
                    raise UnboundLetter(f"no substitution image for letter {let}")
                continue
            # the longest partial product that still fits once the letters
            # after pos are appended
            lim = limit - (n - 1 - pos) if look else limit
            run = w[start:pos]
            start = pos + 1
            nxt = {}
            for aw, ac in acc.items():
                if run:
                    aw += run
                    if len(aw) > lim:
                        dropped = True
                        continue
                la = len(aw)
                for length, terms in grp:
                    if la + length > lim:
                        dropped = True
                        break
                    for iw, ic in terms:
                        nw = aw + iw
                        c = ac * ic
                        prev = nxt.get(nw)
                        if prev is None:
                            nxt[nw] = c
                        else:
                            s = prev + c
                            if s:
                                nxt[nw] = s
                            else:
                                del nxt[nw]
            acc = nxt
            if not acc:
                break
        else:
            run = w[start:]
            if run:
                nxt = {aw + run: ac for aw, ac in acc.items() if len(aw) + len(run) <= limit}
                dropped = dropped or len(nxt) < len(acc)
                acc = nxt
        for aw, ac in acc.items():
            prev = out.get(aw)
            if prev is None:
                out[aw] = ac
            else:
                s = prev + ac
                if s:
                    out[aw] = s
                else:
                    del out[aw]
    return FreePoly._raw(_settled(out)), dropped


def substitute(f: FreePoly, images, *, default_identity=False, trunc=None) -> FreePoly:
    result, _ = substitute_tracked(f, images, default_identity=default_identity, trunc=trunc)
    return result


def rename_letters(f: FreePoly, mapper) -> FreePoly:
    """Apply a letter -> letter map (dict or callable) to every word."""
    if isinstance(mapper, dict):
        fn = lambda let: mapper.get(let, let)  # noqa: E731
    else:
        fn = mapper
    # one translation table over the letters that occur
    table = {ord(ch): encode_letter(fn(decode_letter(ch))) for ch in set().union(*f._terms)}
    out = {}
    for w, c in f._terms.items():
        nw = w.translate(table)
        prev = out.get(nw)
        out[nw] = c if prev is None else prev + c
    return FreePoly._summed(out)


def swap_kinds(f: FreePoly, kind_a: str, kind_b: str) -> FreePoly:
    """Exchange two letter families index-by-index."""

    def fn(let):
        k, i = let
        if k == kind_a:
            return (kind_b, i)
        if k == kind_b:
            return (kind_a, i)
        return let

    return rename_letters(f, fn)


def identity_map(g: int):
    return tuple(FreePoly.letter("x", i + 1) for i in range(g))


def compose(p, q):
    """Componentwise composition p(q(x)); components of p must live over x1..len(q)."""
    images = SubstitutionImages({("x", i + 1): qi for i, qi in enumerate(q)})
    return tuple(substitute(pi, images) for pi in p)


def map_degree(p):
    """Max component degree of a polynomial tuple (-inf when all zero)."""
    return max((comp.degree() for comp in p), default=NEG_INF)


def check_alphabet(p, g: int, kinds=("x",)):
    """Verify every letter of the tuple p lies in the declared alphabet."""
    for comp in p:
        for (k, i) in comp.letters():
            if k not in kinds or i > g:
                raise ArityMismatch(
                    f"letter {k}{i} outside the declared alphabet "
                    f"({'/'.join(kinds)} with index <= {g})"
                )
