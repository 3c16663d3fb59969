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
always verified by exact multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deriv import free_derivative
from .freealg import FreePoly, Poly, check_alphabet, decode, encode, encode_letter
from .jacobian import REASON_TERM_BUDGET, Matrix, poly_matrix_inverse
from .inverter import check_limits, rigorous_cap

# the separator between a key's two sides; letter codes start at chr(1)
SEP = "\x00"


class NotHyporealization(ValueError):
    """The system is not z-affine linear (or not proper)."""


class BipartitePoly(Poly):
    """Finite sum of (left word, right word) pairs with exact coefficients."""

    __slots__ = ()
    _ONE_KEY = SEP
    _key_degree = staticmethod(lambda k: len(k) - 1)
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
    entry (j, i) = sum U^T (x) V; unique by x-linearity of the derivative."""
    g = len(p)
    check_alphabet(p, g, kinds=("x",))
    grid = [[{} for _ in range(g)] for _ in range(g)]
    xs = "".join(encode_letter(("x", j + 1)) for j in range(g))
    ys = "".join(encode_letter(("y", j + 1)) for j in range(g))
    # the derivative's words carry base letters x and one direction letter y;
    # in the matrix the base letters become y and the direction x
    swap = str.maketrans(xs + ys, ys + xs)
    for i, comp in enumerate(p):
        for w, c in free_derivative(comp)._terms.items():
            w = w.translate(swap)
            # the word's one x-letter x_j; the word and j fix the key, so no
            # two words share a cell key
            for j, x in enumerate(xs):
                pos = w.find(x)
                if pos >= 0:
                    break
            grid[j][i][w[:pos][::-1] + SEP + w[:pos:-1]] = c
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

    linear[i][j] is a tuple of (coeff, U_word, V_word) triples over the
    x-alphabet describing the words of component i that contain z_{j+1}.
    """

    base: tuple
    linear: tuple

    @property
    def h(self):
        return len(self.base)

    @classmethod
    def from_system(cls, system):
        from .sysolve import check_proper

        comps = system.components if hasattr(system, "components") else tuple(system)
        if not check_proper(comps):
            raise NotHyporealization("system is not proper")
        h = len(comps)
        base = []
        linear = [[[] for _ in range(h)] for _ in range(h)]
        for i, comp in enumerate(comps):
            b_terms = {}
            for w, c in comp.terms():
                zpos = [t for t, (k, _) in enumerate(w) if k == "z"]
                if not zpos:
                    b_terms[w] = c
                    continue
                if len(zpos) > 1:
                    raise NotHyporealization(
                        "a word carries more than one z-letter; the system is not z-affine linear"
                    )
                t = zpos[0]
                j = w[t][1]
                if j > h:
                    raise NotHyporealization(f"z-index {j} exceeds the component count {h}")
                linear[i][j - 1].append((c, w[:t], w[t + 1 :]))
            base.append(FreePoly(b_terms))
        return cls(
            tuple(base),
            tuple(tuple(tuple(cell) for cell in row) for row in linear),
        )

    def to_system(self):
        from .sysolve import ProperAlgebraicSystem

        comps = []
        for i in range(self.h):
            acc = self.base[i]
            for j in range(self.h):
                for c, u, v in self.linear[i][j]:
                    acc = acc + FreePoly.monomial(u + (("z", j + 1),) + v, c)
            comps.append(acc)
        return ProperAlgebraicSystem(tuple(comps))


def hypomatrix_rep(real: Hyporealization):
    """Assemble (base, Phi) with Phi[j][i] = sum U^T (x) V over the z_{j+1} words
    of component i; the left side is re-tagged to the y-alphabet."""
    h = real.h
    x_to_y = lambda let: ("y", let[1])  # noqa: E731
    grid = [[{} for _ in range(h)] for _ in range(h)]
    for i in range(h):
        for j in range(h):
            cell = grid[j][i]
            for c, u, v in real.linear[i][j]:
                key = (tuple(x_to_y(let) for let in u[::-1]), v)
                prev = cell.get(key)
                cell[key] = c if prev is None else prev + c
    phi = BipartiteMatrix([[BipartitePoly(cell) for cell in row] for row in grid])
    return real.base, phi
