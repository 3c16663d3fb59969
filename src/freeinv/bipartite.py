"""Bipartite polynomials (two alphabets with cross-commuting sides) and the
matrix-valued injectivity test built on them.

A bipartite polynomial is a sum of split terms u (x) v; left factors commute
past right factors but not among themselves, so the pair-of-words indexing is
already a normal form.  The constructor takes and `terms()` returns pairs of
letter tuples.  Inside, a key is one `str`: the encoded left word (as in
`freeinv.freealg`), `SEP` (chr(0), which no letter's code uses), then the
encoded right word reversed, so a key's degree is its length minus one.  The
product of (u1, v1) and (u2, v2) then has the key u1 + key(u2, v2) + rev(v1):
two concatenations around the split of the left factor, and one string hash.
`_mac` takes its left factor as (u1, rev(v1), coefficient) triples from
`_left`, which the matrix product and the series inverse build once per left
entry, not once per product.

The derivative of a polynomial map packs into a square bipartite matrix whose
invertibility over this ring decides injectivity; a returned inverse is
always verified by exact multiplication.  `hypo_jacobian` reads that matrix
off the map's words, one term per letter position, without forming the
derivative polynomial.  A `Hyporealization` keeps its system and packs the
linear part Phi of it once, in the same pass that splits off the z-free base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import FreePoly, Poly, check_alphabet, decode, decode_letter, encode, encode_letter
from .jacobian import REASON_TERM_BUDGET, Matrix, check_limits, poly_matrix_inverse, rigorous_cap
from .sysolve import ProperAlgebraicSystem, check_proper

# the separator between a key's two sides; letter codes start at chr(1)
SEP = "\x00"


class NotHyporealization(ValueError):
    """The system is not z-affine linear (or not proper)."""


class BipartitePoly(Poly):
    """Finite sum of (left word, right word) pairs with exact coefficients."""

    __slots__ = ()
    _ONE_KEY = SEP
    _pad = 1  # the separator
    _norm_key = staticmethod(lambda k: encode(k[0]) + SEP + encode(k[1])[::-1])

    @staticmethod
    def _decode_key(k):
        u, v = k.split(SEP)
        return decode(u), decode(v[::-1])

    @staticmethod
    def _left(a):
        return [(*k.split(SEP), c) for k, c in a.items()]

    @staticmethod
    def _mac(out, a, pairs):
        get = out.get
        for pre, post, c1 in a:
            for k2, c2 in pairs:
                k = pre + k2 + post
                prev = get(k)
                if prev is None:
                    out[k] = c1 * c2
                elif s := prev + c1 * c2:
                    out[k] = s
                else:
                    del out[k]

    @classmethod
    def tensor(cls, left: FreePoly, right: FreePoly):
        """Bilinear split product of two free polynomials."""
        rights = [(SEP + rw[::-1], rc) for rw, rc in right._terms.items()]
        # distinct word pairs give distinct keys; products may need narrowing
        return cls._summed({lw + rk: lc * rc for lw, lc in left._terms.items() for rk, rc in rights})

    def __str__(self):
        from .parsing import format_bipartite

        return format_bipartite(self)


class BipartiteMatrix(Matrix):
    """Square matrix of bipartite polynomials."""

    __slots__ = ()
    ring = BipartitePoly


def hypo_jacobian(p) -> BipartiteMatrix:
    """Pack the derivative Dp_i(y)[x] = sum U(y) x_j V(y) into the matrix with
    entry (j, i) = sum U^T (x) V, one term per letter position of p_i.

    The letter x_{j+1} at position pos of a word w = u x_{j+1} v of p_i is the
    term rev(u) (x) v of cell (j, i), both sides renamed to y.  A word and a
    position fix the key, so no two terms meet and no sum is formed."""
    g = len(p)
    check_alphabet(p, g)
    grid = [[{} for _ in range(g)] for _ in range(g)]
    column = {encode_letter(("x", j + 1)): j for j in range(g)}
    to_y = str.maketrans({x: encode_letter(("y", j + 1)) for x, j in column.items()})
    for i, comp in enumerate(p):
        for w, c in comp._terms.items():
            # the word renamed to y and reversed: rev(u) is its last pos
            # letters and rev(v) its first n - pos - 1
            n = len(w)
            rev = w.translate(to_y)[::-1]
            for pos, x in enumerate(w):
                grid[column[x]][i][rev[n - pos :] + SEP + rev[: n - pos - 1]] = c
    return BipartiteMatrix([[BipartitePoly._raw(cell) for cell in row] for row in grid])


bipartite_matrix_inverse = poly_matrix_inverse


@dataclass(frozen=True)
class InjectivityOutcome:
    """Result of the matrix-form injectivity test.

    `certified` is False when a user-supplied cap or term budget cut the
    search short of the rigorous degree bound, in which case a negative
    status is only "no inverse found", not a proof.
    """

    status: str  # "injective" | "not-injective" | "indeterminate"
    inverse: BipartiteMatrix | None
    cap_used: int
    certified: bool

    @property
    def injective(self):
        return self.status == "injective"


def injectivity_test(p, cap=None, max_terms=None) -> InjectivityOutcome:
    """Decide injectivity by inverting the packed-derivative matrix.

    A positive answer always comes with an exactly verified inverse.  With the
    default rigorous cap a negative answer is a certificate; otherwise it is
    reported as certified=False.
    """
    check_limits(cap, max_terms)
    hj = hypo_jacobian(p)
    rigorous = rigorous_cap(hj)
    used = rigorous if cap is None else min(cap, rigorous)
    clipped = used < rigorous
    result = bipartite_matrix_inverse(hj, used, max_terms=max_terms)
    if isinstance(result, BipartiteMatrix):
        return InjectivityOutcome("injective", result, used, True)
    if result.reason == REASON_TERM_BUDGET or clipped:
        return InjectivityOutcome("indeterminate", None, used, False)
    return InjectivityOutcome("not-injective", None, used, True)


@dataclass(frozen=True)
class Hyporealization:
    """A proper system that is z-affine linear: a_i = base_i + sum U z_j V.

    `components` is the system, `base` its z-free part and `phi` its linear
    part, packed once: phi[j][i] = sum U^T (x) V over the words U z_{j+1} V
    of component i, with the left side re-tagged to the y-alphabet.
    """

    components: tuple
    base: tuple
    phi: BipartiteMatrix

    @property
    def h(self):
        return len(self.components)

    @classmethod
    def from_system(cls, system):
        comps = tuple(system)
        if not check_proper(comps):
            raise NotHyporealization("system is not proper")
        h = len(comps)
        # z_{j+1} -> j; a proper system has no z-letter beyond z_h
        zs = {encode_letter(("z", j + 1)): j for j in range(h)}
        letters = set().union(*(w for comp in comps for w in comp._terms))
        to_y = str.maketrans({ch: encode_letter(("y", decode_letter(ch)[1])) for ch in letters})
        base = []
        grid = [[{} for _ in range(h)] for _ in range(h)]
        for i, comp in enumerate(comps):
            free = {}
            for w, c in comp._terms.items():
                at = [t for t, ch in enumerate(w) if ch in zs]
                if not at:
                    free[w] = c
                    continue
                if len(at) > 1:
                    raise NotHyporealization(
                        "a word carries more than one z-letter; the system is not z-affine linear"
                    )
                t = at[0]
                # re-tagging U to y can merge words, so the cell accumulates
                cell = grid[zs[w[t]]][i]
                key = w[:t][::-1].translate(to_y) + SEP + w[:t:-1]
                cell[key] = cell.get(key, 0) + c
            base.append(FreePoly._raw(free))
        phi = BipartiteMatrix([[BipartitePoly._summed(cell) for cell in row] for row in grid])
        return cls(tuple(comps), tuple(base), phi)

    def to_system(self):
        return ProperAlgebraicSystem(self.components)


def hypomatrix_rep(real: Hyporealization):
    """The pair (base, Phi) of a hyporealization."""
    return real.base, real.phi
