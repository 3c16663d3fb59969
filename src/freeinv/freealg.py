"""Free (noncommutative) polynomials over tagged multi-alphabets.

A letter is a (kind, index) pair with kind in "xyzwhk" and 1 <= index <=
MAX_INDEX = 185,685 (the last index with a code point in every kind); a word
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
image's terms shortest first, the letters with a zero image and a memo of the
images of words), which `substitute_tracked` builds from a dict when it is
given one, and one expansion: Horner's rule over the words' shared prefixes,
with their ends from the memo.  A word with a zero image or an unbound letter
in it contributes nothing, and its degrees alone
(`SubstitutionImages.degrees`) tell what it did.

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

import re
from fractions import Fraction
from itertools import compress

from .scalars import exact

KINDS = "xyzwhk"
_KIND_RANK = {k: r for r, k in enumerate(KINDS)}
# the last index whose letter has a code point in every kind
MAX_INDEX = 0x10FFFF // 6

NEG_INF = float("-inf")
POS_INF = float("inf")

# the stored form of the empty word
EMPTY_WORD = ""


class UnboundLetter(KeyError):
    """A substitution image is missing for a letter that occurs in the input."""


class ArityMismatch(ValueError):
    """A letter falls outside the declared alphabet of an operation."""


# -- the word codec (see the module docstring) ----------------------------------
#
# Both directions are memoised in dicts that start empty and fill with the
# letters actually met, so a word converts at C speed through `map` over a
# dict lookup.


class _CodePoints(dict):
    """letter -> its one-character code, checked and filled on first use."""

    def __missing__(self, let):
        kind, i = let
        if kind not in _KIND_RANK or not isinstance(i, int) or not 1 <= i <= MAX_INDEX:
            raise ValueError(f"not a letter (kind in {KINDS!r}, index 1..{MAX_INDEX}): {let!r}")
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


def letter_order(words) -> dict:
    """`str.translate` table that renumbers the letters of the stored `words`
    1, 2, ... in letter order (kind, then index), so that comparing renumbered
    words compares them letter by letter."""
    # a letter's code is 6 (index - 1) + its kind's rank + 1
    letters = sorted(set().union(*words), key=lambda ch: ((ord(ch) - 1) % 6, ord(ch)))
    return {ord(ch): n for n, ch in enumerate(letters, 1)}


class _Names(dict):
    """code point -> '*' and its letter's name, filled on first use, so that
    `str.translate` writes a stretch of single letters at C speed."""

    def __missing__(self, code):
        kind, i = decode_letter(chr(code))
        name = self[code] = f"*{kind}{i}"
        return name


_NAMES = _Names()
# a run of two or more equal letters in a stored word
_RUN = re.compile(r"(.)\1+", re.DOTALL)


def word_str(s: str) -> str:
    """Compressed display of a stored word like 'x1*x2^2'; the empty word
    prints as '1'.  Each run of n > 1 equal letters is written once, with
    `^n`, and the single letters between runs by one `translate`."""
    parts, pos = [], 0
    for run in _RUN.finditer(s):
        start, end = run.span()
        parts += (s[pos:start].translate(_NAMES), f"{_NAMES[ord(run[1])]}^{end - start}")
        pos = end
    parts.append(s[pos:].translate(_NAMES))
    return "".join(parts)[1:] or "1"


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
    key), `_left` and `_mac` (the multiply-accumulate kernel:
    `_mac(out, _left(a), pairs)` adds the product of the term dict `a` and
    the terms given as (key, coefficient) `pairs` into the term dict `out`,
    key product inlined, zero sums dropped; `_left` puts a term dict in the
    form `_mac` reads its left factor in, so a caller that multiplies one
    left factor by many right ones prepares it once), `_pad` (the number of
    non-letter characters in a key: its graded degree is its length minus
    `_pad`), `_norm_key` (the stored form of a key given to the constructor)
    and `_decode_key` (its public form, as `terms()` returns it).  Everything
    else -- normalisation, constructors, equality, ring arithmetic and graded
    queries -- is shared.

    Both rings key a term by one `str`: a `FreePoly` key is its word, and a
    `BipartitePoly` key is the left word, the separator chr(0) and the right
    word reversed (see `freeinv.bipartite`).  A prepared left factor is the
    items view of a `FreePoly` dict, and (left word, reversed right word,
    coefficient) triples for a `BipartitePoly`.  The free kernel runs the
    longer of its two (sized) factors in its inner loop, keys still left word
    first; the bipartite one its right factor, the longer in the series.
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
        # a constant equals its coefficient, so it hashes as one
        if self._terms.keys() <= {self._ONE_KEY}:
            return hash(self.constant_term())
        return hash(frozenset(self._terms.items()))

    def degree(self):
        """Max key degree, or -inf for the zero polynomial."""
        return max(map(len, self._terms), default=NEG_INF) - self._pad

    def homogeneous_part(self, m: int):
        size = m + self._pad
        return self._raw({k: c for k, c in self._terms.items() if len(k) == size})

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
        self._mac(out, self._left({self._ONE_KEY: 1}), other._terms.items())
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
            other = self.scalar(g)
        out = {}
        self._mac(out, self._left(self._terms), other._terms.items())
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
    _pad = 0
    _norm_key = staticmethod(encode)
    _decode_key = staticmethod(decode)
    # a prepared left factor is the view of its items, no copy
    _left = staticmethod(dict.items)

    @staticmethod
    def _mac(out, a, pairs):
        get = out.get
        if len(a) > len(pairs):
            for k2, c2 in pairs:
                for k1, c1 in a:
                    k = k1 + k2
                    prev = get(k)
                    if prev is None:
                        out[k] = c1 * c2
                    elif s := prev + c1 * c2:
                        out[k] = s
                    else:
                        del out[k]
            return
        for k1, c1 in a:
            for k2, c2 in pairs:
                k = k1 + k2
                prev = get(k)
                if prev is None:
                    out[k] = c1 * c2
                elif s := prev + c1 * c2:
                    out[k] = s
                else:
                    del out[k]

    @classmethod
    def letter(cls, kind: str, index: int):
        return cls._raw({encode_letter((kind, index)): 1})

    @classmethod
    def monomial(cls, w, coeff=1):
        g = exact(coeff)
        if g is None:
            raise TypeError(f"bad coefficient {coeff!r}")
        return cls._raw({encode(w): g} if g else {})

    def _graded_items(self):
        """The stored (word, coefficient) pairs in graded-lexicographic order."""
        table = letter_order(self._terms)
        return sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0].translate(table)))

    def sorted_terms(self):
        """`terms()` in graded-lexicographic order."""
        return [(decode(w), c) for w, c in self._graded_items()]

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


class SubstitutionImages:
    """Substitution images set up once for any number of `substitute_tracked`
    calls: keyed by encoded letter, each image's terms as a list, shortest
    first, the letters whose image is zero, and the suffix memo.

    The memo maps a word s whose first and last letters are bound (have an
    image) to (b, deg, terms): the terms of the image of s truncated at
    budget b, and deg, the sum over the letters of s of their image degrees
    (an unbound letter counts 1).  An entry serves a request at budget
    b' <= b by the length filter, and any budget once deg <= b (it dropped
    nothing).  A request the entry cannot serve rebuilds it at the new
    budget.  Entries are built right to left, without recursion: the image
    of a + run + s', where run holds the unbound letters before the next
    bound one, is a's image times run times the image of s' at budget
    b - (min length of a's image) - |run|.  Each bound letter starts with
    its image as its entry.  This holds for any images, constant terms and
    zero images included: a truncation of a truncation is a truncation, and
    a word of the image is never longer than deg.  Polynomial terms are
    never written after construction, so entries share dicts with the
    images and with the results they are handed out as.
    """

    __slots__ = ("items", "zeros", "memo", "_patterns", "_degrees")

    def __init__(self, images):
        terms = {encode_letter(let): img._terms for let, img in images.items()}
        self.items = items = {let: [(w, t[w]) for w in sorted(t, key=len)] for let, t in terms.items()}
        self.zeros = {let for let, t in terms.items() if not t}
        self.memo = {let: (POS_INF, len(items[let][-1][0]) if t else NEG_INF, t) for let, t in terms.items()}
        self._patterns = self._degrees = None

    def patterns(self):
        """(search for a bound letter, split of a word into its unbound head,
        its core from the first to the last bound letter or None, and its
        unbound tail), compiled on first use."""
        if self._patterns is None:
            chars = re.escape("".join(self.items))
            bound, free = (f"[{chars}]", f"[^{chars}]") if chars else ("(?!)", ".")
            self._patterns = (
                re.compile(bound).search,
                re.compile(f"({free}*)(.*{bound})?(.*)", re.DOTALL).fullmatch,
            )
        return self._patterns

    def degrees(self, w, default_identity):
        """(low, deg, stop) for the word w: stop is its first stop letter, or
        None, and low and deg sum, over the letters before it, their images'
        shortest and longest word lengths (an unbound letter counts 1).

        A stop letter has a zero image, or is unbound without
        `default_identity`.  A word with one contributes no term to a
        substitution truncated at trunc.  The image of its part before the
        stop letter is nonzero exactly when low <= trunc, the free algebra
        being a domain.  At a zero image the expansion dropped a partial
        product when deg > trunc.  At an unbound letter it raises
        `UnboundLetter` when low <= trunc, and otherwise every partial
        product was pruned, so it dropped one."""
        if self._degrees is None:
            items = self.items.items()
            nonzero = re.escape("".join(a for a, t in items if t))
            zeros = re.escape("".join(self.zeros))
            self._degrees = (
                re.compile(f"[^{nonzero}]" if nonzero else ".", re.DOTALL).search,
                # no search where no stop letter can occur
                re.compile(f"[{zeros}]").search if zeros else None,
                # the letters whose image lengths are not (1, 1)
                [
                    (a, len(t[0][0]) - 1, len(t[-1][0]) - 1)
                    for a, t in items
                    if t and (len(t[0][0]), len(t[-1][0])) != (1, 1)
                ],
            )
        strict, identity, excess = self._degrees
        search = identity if default_identity else strict
        stop = None
        if search is not None and (m := search(w)):
            stop = m.group()
            w = w[: m.start()]
        low = deg = len(w)
        for a, dlow, ddeg in excess:
            n = w.count(a)
            low += n * dlow
            deg += n * ddeg
        return low, deg, stop

    def _times(self, a, run, tail, budget, out):
        """out += (image of the letter a) * run * tail, truncated at budget;
        an unbound a is its own image.  Returns the image degree of a."""
        items = self.items.get(a, ((a, 1),))
        if run:
            items = [(iw + run, ic) for iw, ic in items]
        get = out.get
        for tw, tc in tail.items():
            room = budget - len(tw)
            # the terms come shortest first
            for iw, ic in items:
                if len(iw) > room:
                    break
                nw = iw + tw
                c = ic * tc
                prev = get(nw)
                if prev is None:
                    out[nw] = c
                elif s := prev + c:
                    out[nw] = s
                else:
                    del out[nw]
        return len(items[-1][0]) - len(run) if items else NEG_INF

    def _low(self, a):
        """The length of the shortest word of the image of the letter a."""
        items = self.items.get(a, ((a, 1),))
        return len(items[0][0]) if items else 0

    def suffix_image(self, s, budget):
        """The memo entry of s (first and last letter bound) serving
        `budget`."""
        memo = self.memo
        entry = memo.get(s)
        # an entry serves every budget up to its own, and every budget once
        # it dropped nothing (its degree fits under its budget)
        if entry is not None and (entry[0] >= budget or entry[1] <= entry[0]):
            return entry
        bound = self.items
        # walk right through the suffixes the memo cannot serve, down to one
        # it can (at the latest the last letter), then build them back
        chain = []
        while True:
            j = 1 if s[1] in bound else self.patterns()[0](s, 2).start()
            chain.append((s, budget, s[1:j]))
            budget -= self._low(s[0]) + j - 1
            s = s[j:]
            entry = memo.get(s)
            if entry is not None and (entry[0] >= budget or entry[1] <= entry[0]):
                break
        for s, budget, run in reversed(chain):
            terms = {}
            deg = self._times(s[0], run, entry[2], budget, terms)
            entry = memo[s] = (budget, deg + len(run) + entry[1], terms)
        return entry

    def word_image(self, w, cap):
        """(terms, deg) for a word w of unbound letters and letters with
        nonzero images: its image truncated at cap, and the sum of its
        letters' image degrees.  The image is head * (image of core) * tail,
        where head and tail are the unbound letters before the first and
        after the last bound one."""
        bound = self.items
        if w and w[0] in bound and w[-1] in bound:
            head = tail = EMPTY_WORD
            core = w
        else:
            head, core, tail = self.patterns()[1](w).groups()
            if core is None:
                return ({w: 1} if len(w) <= cap else {}), len(w)
        r = len(head) + len(tail)
        budget, deg, terms = self.suffix_image(core, cap - r)
        if min(budget, deg) > cap - r:
            # the words of length <= cap - r, at C speed
            terms = dict(compress(terms.items(), map((cap - r).__ge__, map(len, terms))))
        if r:
            terms = {head + tw + tail: tc for tw, tc in terms.items()}
        return terms, deg + r

    def image(self, terms, limit):
        """(terms, deg) as `word_image`, for the nonzero polynomial with the
        given terms; deg is the largest over its words.

        Several words are expanded by Horner's rule over their prefixes: the
        words sharing a prefix u are summed as u * g, the image of g is
        expanded once and multiplied by the image of u one letter at a time,
        and a g of a single word is taken from `word_image`.  The prefixes
        are walked with an explicit stack, so the length of the words never
        meets the recursion limit."""
        if len(terms) == 1:
            ((w, coeff),) = terms.items()
            img, deg = self.word_image(w, limit)
            if coeff == 1:
                return img, deg
            return {tw: coeff * tc for tw, tc in img.items()}, deg
        items = sorted(terms.items())
        # a frame: the words items[lo:hi] share their first d letters, and
        # out is the image (truncated at budget) of the sum of their ends
        # w[d:] taken so far, up to items[i]; a is the letter of the frame's
        # child
        stack = [[0, len(items), 0, limit, {}, NEG_INF, 0, None]]
        child = None
        while True:
            frame = stack[-1]
            lo, hi, d, budget, out, deg, i, a = frame
            if child is not None:
                deg = max(deg, self._times(a, EMPTY_WORD, child[0], budget, out) + child[1])
                child = None
            elif len(items[lo][0]) == d:
                # the word u itself, which sorts first
                if budget >= 0:
                    out[EMPTY_WORD] = items[lo][1]
                deg = 0
                i += 1
            while i < hi:
                a = items[i][0][d]
                j = i + 1
                while j < hi and items[j][0][d] == a:
                    j += 1
                if j == i + 1:
                    # a single word: out += coeff * (image of its end)
                    w, coeff = items[i]
                    img, wdeg = self.word_image(w[d:], budget)
                    if wdeg > deg:
                        deg = wdeg
                    FreePoly._mac(out, ((EMPTY_WORD, coeff),), img.items())
                    i = j
                    continue
                frame[5:] = deg, j, a
                stack.append([i, j, d + 1, budget - self._low(a), {}, NEG_INF, i, None])
                break
            else:
                stack.pop()
                if not stack:
                    return out, deg
                child = out, deg


def substitute_tracked(f: FreePoly, images, *, default_identity=False, trunc=None):
    """Apply the algebra homomorphism letter -> images[letter].

    Returns (result, dropped): the image truncated at `trunc` (every word
    longer is pruned) and a flag that the expansion pruned a partial product,
    as a letter-by-letter expansion that prunes every partial product longer
    than `trunc` and ends a word once nothing is left would set it.

    `images` is a dict letter -> FreePoly or a `SubstitutionImages` built
    from one; a dict is set up as one on each call, so a caller with many
    calls on the same images builds it once and shares its suffix memo.
    Under `default_identity` an unbound letter (one without an image) is its
    own image, and a word with no bound letter comes out as itself.

    Everything rests on one fact: the free algebra is a domain, so a product
    of nonzero polynomials is nonzero, with top degree the sum of the top
    degrees and low degree the sum of the low degrees.  For a word w let
    deg(w) and low(w) be the sums over its letters of their images' longest
    and shortest word lengths (an unbound letter counts 1).

    A word is live when every letter has a nonzero image or is unbound under
    `default_identity`.  The live words are expanded together by
    `SubstitutionImages.image`: Horner's rule over their common prefixes,
    with each word's remaining letters taken from the suffix memo.  A live
    word drops a partial product exactly when deg(w) > trunc: while every
    prefix has deg <= trunc nothing is pruned, so the partial product is the
    whole image of the prefix, whose top-degree part is nonzero; the first
    prefix with deg > trunc therefore reaches past trunc, whatever cancels.
    So `dropped` is deg > trunc for the largest deg of a live word, whatever
    the images' constant terms.  Every other word stops at its first stop
    letter and contributes no term; `SubstitutionImages.degrees` tells what
    it did.
    """
    if not isinstance(images, SubstitutionImages):
        images = SubstitutionImages(images)
    bound = images.items
    limit = POS_INF if trunc is None else trunc
    dropped = False
    if not images.zeros and (default_identity or bound.keys() >= set().union(*f._terms)):
        live = f._terms
    else:
        live = {}
        for w, coeff in f._terms.items():
            low, deg, stop = images.degrees(w, default_identity)
            if stop is None:
                live[w] = coeff
            elif stop not in bound and low <= limit:
                raise UnboundLetter(f"no substitution image for letter {word_str(stop)}")
            else:
                dropped = dropped or deg > limit
    if not live:
        return FreePoly.zero(), dropped
    out, deg = images.image(live, limit)
    return FreePoly._raw(_settled(out)), dropped or deg > limit


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
    swap = {kind_a: kind_b, kind_b: kind_a}
    return rename_letters(f, lambda let: (swap.get(let[0], let[0]), let[1]))


def identity_map(g: int):
    return tuple(FreePoly.letter("x", i + 1) for i in range(g))


def compose(p, q):
    """Componentwise composition p(q(x)); components of p must live over x1..len(q)."""
    images = SubstitutionImages({("x", i + 1): qi for i, qi in enumerate(q)})
    return tuple(substitute(pi, images) for pi in p)


def map_degree(p):
    """Max component degree of a polynomial tuple (-inf when all zero)."""
    return max((comp.degree() for comp in p), default=NEG_INF)


def check_alphabet(p, g: int):
    """Verify the tuple p is nonempty and every letter of it is one of x1..xg."""
    if not p:
        raise ArityMismatch("empty map")
    for comp in p:
        for (k, i) in comp.letters():
            if k != "x" or i > g:
                raise ArityMismatch(f"letter {k}{i} outside the declared alphabet (x with index <= {g})")
