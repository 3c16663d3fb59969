"""Free (noncommutative) polynomials over tagged multi-alphabets.

A letter is a (kind, index) pair with kind in "xyzwhk" and index >= 1; a word
is a tuple of letters (the empty tuple is the multiplicative identity).  A
FreePoly is a finite word -> coefficient map over the exact Gaussian
rationals; zero coefficients are never stored, so degree queries are
O(#terms).  Its arithmetic lives in `Poly`, the ring-generic core that the
bipartite polynomials share.

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

EMPTY_WORD = ()

# the kind of a letter; `kind in map(letter_kind, w)` scans a word at C speed
letter_kind = operator.itemgetter(0)


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
    key), `_concat` (key product), `_key_degree` (graded degree of a key) and
    `_norm_key` (the canonical form of a key given to the constructor).
    Everything else -- normalisation, constructors, equality, ring arithmetic
    and graded queries -- is shared.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
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
        return self._terms.items()

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
    _norm_key = staticmethod(tuple)

    @classmethod
    def letter(cls, kind: str, index: int):
        return cls._raw({(letter(kind, index),): 1})

    @classmethod
    def monomial(cls, w, coeff=1):
        g = exact(coeff)
        if g is None:
            raise TypeError(f"bad coefficient {coeff!r}")
        return cls._raw({tuple(w): g} if g else {})

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda t: word_key(t[0]))

    def coefficient(self, w):
        return self._terms.get(tuple(w), 0)

    def dz_degree(self, kind="z"):
        """Min total length among words containing a letter of `kind`; +inf if none."""
        best = POS_INF
        for w in self._terms:
            if len(w) < best and kind in map(letter_kind, w):
                best = len(w)
        return best

    def letters(self):
        out = set()
        for w in self._terms:
            out.update(w)
        return out

    # -- structure ---------------------------------------------------------

    def transpose(self):
        """Reverse every word; an involutive anti-automorphism."""
        out = {}
        for w, c in self._terms.items():
            rw = w[::-1]
            prev = out.get(rw)
            out[rw] = c if prev is None else prev + c
        return FreePoly(out)

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


def substitute_tracked(f: FreePoly, images, *, default_identity=False, trunc=None):
    """Apply the algebra homomorphism letter -> images[letter].

    Returns (result, dropped) where dropped flags that some word of the true
    image exceeded `trunc` and was pruned.  Pruning partial products is sound
    because word lengths never shrink under concatenation.

    Cost is per surviving partial product.  Under `default_identity` a word
    with no bound letter (a letter with an image) is its own image, and all
    such words are copied in one pass before any expansion; in a word with a
    bound letter each run of unbound letters is appended as one slice.  Under
    `trunc` each image's terms are grouped by length once per call, so
    extending a partial product stops at the first group that cannot fit.

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
    if trunc is None:
        # nothing is pruned, so each image is one group
        limit = POS_INF
        groups = {let: [(0, img._terms.items())] for let, img in images.items()}
        lookahead = False
    else:
        limit = trunc
        groups = {let: _length_groups(img) for let, img in images.items()}
        lookahead = all(img and EMPTY_WORD not in img._terms for img in images.values())
    out = {}
    dropped = False
    words = f._terms.items()
    if default_identity:
        unbound_word = images.keys().isdisjoint
        bound_words = []
        for w, coeff in words:
            if not unbound_word(w):
                bound_words.append((w, coeff))
            elif len(w) > limit:
                dropped = True
            else:
                out[w] = coeff
        words = bound_words
    for w, coeff in words:
        n = len(w)
        look = lookahead and (default_identity or images.keys() >= set(w))
        acc = {EMPTY_WORD: coeff}
        start = 0
        for pos, let in enumerate(w):
            grp = groups.get(let)
            if grp is None:
                if not default_identity:
                    raise UnboundLetter(f"no substitution image for letter {_letter_str(let)}")
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
    out = {}
    for w, c in f._terms.items():
        nw = tuple(fn(let) for let in w)
        prev = out.get(nw)
        out[nw] = c if prev is None else prev + c
    return FreePoly(out)


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
    images = {("x", i + 1): qi for i, qi in enumerate(q)}
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
