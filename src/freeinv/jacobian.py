"""Left Jacobian matrices, verified polynomial matrix inversion and its degree bound.

The left Jacobian of a map p is the unique matrix J with
p(x) = p(0) + x*J(x); entry J[s][j] collects the words of p_j that start with
x_{s+1}, with that first letter removed.

`Matrix` and `poly_matrix_inverse` are ring-generic: `PolyMatrix` (free
polynomials) and the bipartite matrices of `freeinv.bipartite` only name
their entry ring, and both inverses run through the one series engine.

That engine computes the layers of the formal inverse with sparse rows of
raw term dicts, accumulated through the entry ring's kernel `Poly._mac` and
settled (narrowed) once per layer, so its cost is proportional to the
nonzero entries and terms it produces.  A nonzero layer above the cap
certifies that no inverse of degree <= cap exists: the formal inverse of a
matrix with invertible constant part is unique and two-sided, so any
polynomial inverse would be it.  Every positive answer is still checked by
exact two-sided multiplication, M*R = I = R*M, on raw term dicts: each entry
of both products is summed through `_mac` and compared with the identity's
entry, {1: 1} or {}, and the first entry that differs answers no; no product
matrix is built.  Raw-dict equality is exact: it compares coefficient values,
so an unnarrowed Fraction(1) or GaussianRational(1) equals 1, and `_mac`
deletes every sum that cancels, so an entry is {1: 1} or {} exactly when its
value is 1 or 0.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

from . import linalg
from .freealg import NEG_INF, FreePoly, _settled, decode_letter

REASON_SINGULAR_CONSTANT = "singular-constant-term"
REASON_NO_INVERSE_UP_TO_CAP = "no-polynomial-inverse-up-to-cap"
REASON_TERM_BUDGET = "term-budget-exceeded"


@dataclass(frozen=True)
class NotPolyInvertible:
    """Negative (or budget-cut) result of a polynomial matrix inversion attempt.

    With `reason == REASON_NO_INVERSE_UP_TO_CAP` the meaning depends on the cap:
    at the rigorous degree bound it proves no polynomial inverse exists, at a
    smaller cap it only says none was found up to that degree.
    """

    reason: str
    cap: int | None = None


class Matrix:
    """Rectangular matrix over the polynomial ring `ring`, set by each subclass."""

    __slots__ = ("entries",)
    ring = None

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n):
        raw, one = cls.ring._raw, cls.ring._ONE_KEY
        return cls([[raw({one: 1} if i == j else {}) for j in range(n)] for i in range(n)])

    def __getitem__(self, idx):
        return self.entries[idx]

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def _entrywise(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"dimension mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return type(self)(
            [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        mac, left, raw = self.ring._mac, self.ring._left, self.ring._raw
        cols = tuple(zip(*other.entries))
        out = [[{} for _ in cols] for _ in self.entries]
        for row, out_row in zip(self.entries, out):
            # each left entry is prepared once for the whole row of products
            row = [left(a._terms) for a in row]
            for col, terms in zip(cols, out_row):
                for a, b in zip(row, col):
                    mac(terms, a, b._terms.items())
        return type(self)([[raw(_settled(t)) for t in row] for row in out])

    def constant_part(self):
        return tuple(tuple(e.constant_term() for e in row) for row in self.entries)

    def degree(self):
        return max((e.degree() for row in self.entries for e in row), default=NEG_INF)

    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    def __repr__(self):
        rows = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"{type(self).__name__}([{rows}])"


class PolyMatrix(Matrix):
    """Rectangular matrix of free polynomials."""

    __slots__ = ()
    ring = FreePoly


def jacobian_extract(p):
    """Decompose p(x) = p(0) + x*J(x); returns (constant tuple, J)."""
    h = len(p)
    g = 0
    for comp in p:
        for (kind, idx) in comp.letters():
            if kind != "x":
                raise ValueError(f"jacobian_extract expects x-letters only, found {kind}{idx}")
            g = max(g, idx)
    g = max(g, h)
    constants = tuple(comp.constant_term() for comp in p)
    grid = [[{} for _ in range(h)] for _ in range(g)]
    for j, comp in enumerate(p):
        for w, c in comp._terms.items():
            # a word is its first letter and the rest, so no two words meet
            if w:
                grid[decode_letter(w[0])[1] - 1][j][w[1:]] = c
    return constants, PolyMatrix([[FreePoly._raw(cell) for cell in row] for row in grid])


def reconstruct(constants, J):
    """Inverse of jacobian_extract: p(x) = p(0) + x*J(x)."""
    x = PolyMatrix([[FreePoly.letter("x", s + 1) for s in range(J.rows)]])
    return tuple(e + c for e, c in zip((x * J)[0], constants))


def pmid_f(n: int) -> int:
    """f(1) = 1, f(n+1) = (n+1)^3 f(n); closed form (n!)^3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = 1
    for m in range(2, n + 1):
        value *= m**3
    return value


def pmid_bound(n: int, d: int) -> int:
    """Degree cap 3^n f(n) d for polynomial inverses of n x n matrices of degree d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    return 3**n * pmid_f(n) * d


def rigorous_cap(M) -> int:
    """Degree cap 3^n f(n) deg(M) past which a square polynomial matrix over
    either ring provably has no polynomial inverse."""
    deg = M.degree()
    return pmid_bound(M.rows, 0 if deg == NEG_INF else int(deg))


def check_limits(cap, max_terms):
    """`cap` and `max_terms` must each be None or an int >= 0."""
    for name, value in (("cap", cap), ("max_terms", max_terms)):
        if not (value is None or type(value) is int and value >= 0):
            raise ValueError(f"{name} must be None or an int >= 0, got {value!r}")


def poly_matrix_inverse(M: Matrix, degree_cap: int, max_terms=None):
    """Two-sided inverse of a square polynomial matrix over either ring, or
    NotPolyInvertible.

    Write M = M0 - N with M0 the constant part and N without constant term.
    When M0 is invertible, M has a unique formal-series inverse R, and it is
    two-sided.  Its degree-m layer (graded by the ring's key degree) obeys
    R_0 = M0^-1 and R_m = M0^-1 (N_1 R_{m-1} + ... + N_e R_{m-e}), with
    e = deg N.  Layers are computed up to `degree_cap` + e:

    - e consecutive zero layers make every later layer zero, so R is the
      polynomial summed so far.  It is returned only after the exact check
      M*R = I = R*M (`_inverts`), which compares each entry of both products,
      summed into a raw term dict, with the identity's.
    - A nonzero layer of degree m > `degree_cap` is the degree-m part of the
      unique inverse, so no polynomial inverse of degree <= `degree_cap`
      exists.  At the rigorous cap this proves none exists; at a smaller cap
      it only says none up to the cap.
    - `max_terms` bounds the terms of the layers of degree <= `degree_cap`.
    - With no budget, a lone non-unit diagonal block (`_lone_non_unit`)
      answers as the series would, at once: no inverse up to the cap.

    Cost is per term product.  A layer is a list of rows {column: term
    dict}.  N is split by degree in one pass over its terms and multiplied by
    M0^-1 once, A_d = M0^-1 N_d, and each entry of A_d is prepared as a left
    factor once (`_left`), so that R_m = A_1 R_{m-1} + ... + A_e R_{m-e} is
    one `_mac` pass into raw dicts, settled once; only the last e layers are
    kept for the recurrence.  Each nonzero layer's term dicts are appended to
    one list per entry of R, and nothing is summed while the series runs, so
    a negative, capped or budget-cut call builds no inverse.  Layers have
    distinct degrees, so their keys are disjoint: once e zero layers have
    closed the series, each entry's dicts are joined by `dict.update`, which
    reuses the stored key hashes, and R is built from them.
    """
    if M.rows != M.cols:
        raise ValueError("only square matrices can be inverted")
    if degree_cap < 0:
        raise ValueError("degree_cap must be >= 0")
    cls, ring = type(M), M.ring
    mac, left, one, pad = ring._mac, ring._left, ring._ONE_KEY, ring._pad
    n = M.rows
    m0_inv = linalg.inverse(M.constant_part())
    if m0_inv is None:
        return NotPolyInvertible(REASON_SINGULAR_CONSTANT, degree_cap)
    if max_terms is None and _lone_non_unit(M.entries, one):
        return NotPolyInvertible(REASON_NO_INVERSE_UP_TO_CAP, degree_cap)
    # N = M0 - M by degree: parts[d][(i, k)] is the term dict of N_d[i][k]
    parts = {}
    for i, row in enumerate(M.entries):
        for k, e in enumerate(row):
            for key, c in e._terms.items():
                if key != one:
                    parts.setdefault(len(key) - pad, {}).setdefault((i, k), {})[key] = -c
    if not parts:
        return cls([[ring.scalar(c) for c in row] for row in m0_inv])
    deg_n = max(parts)
    a_parts = []  # (d, (row, column, prepared left factor) triples of A_d = M0^-1 N_d)
    for d in sorted(parts):
        cells = {}
        for (l, k), t in parts[d].items():
            for i, inv_row in enumerate(m0_inv):
                if inv_row[l]:
                    mac(cells.setdefault((i, k), {}), left({one: inv_row[l]}), t.items())
        a_parts.append((d, [(i, k, left(_settled(t))) for (i, k), t in sorted(cells.items()) if t]))
    # kept[i][j] lists the term dicts of R[i][j], one per nonzero layer
    kept = [[[{one: c}] if c else [] for c in row] for row in m0_inv]
    layer = [{j: cell[0] for j, cell in enumerate(row) if cell} for row in kept]
    terms = sum(map(len, layer))  # R_0 has one term per nonzero entry
    # window[-d] is the layer d degrees below the next one; the shared empty
    # rows stand for the zero layers below degree 0 and are never written
    window = deque([[{}] * n] * (deg_n - 1) + [layer], maxlen=deg_n)
    zero_run = 0
    for m in range(1, degree_cap + deg_n + 1):
        acc = [{} for _ in range(n)]
        for d, triples in a_parts:
            below = window[-d]
            for i, k, e in triples:
                acc_row = acc[i]
                for j, r in below[k].items():
                    mac(acc_row.setdefault(j, {}), e, r.items())
        layer = [{j: _settled(t) for j, t in row.items() if t} for row in acc]
        window.append(layer)
        if not any(layer):
            zero_run += 1
            if zero_run == deg_n:
                break
            continue
        if m > degree_cap:
            return NotPolyInvertible(REASON_NO_INVERSE_UP_TO_CAP, degree_cap)
        zero_run = 0
        for kept_row, row in zip(kept, layer):
            for j, t in row.items():
                kept_row[j].append(t)
                terms += len(t)
        if max_terms is not None and terms > max_terms:
            return NotPolyInvertible(REASON_TERM_BUDGET, degree_cap)
    for row in kept:
        for cell in row:
            for t in cell[1:]:
                cell[0].update(t)
    R = cls([[ring._raw(cell[0] if cell else {}) for cell in row] for row in kept])
    if _inverts(M, R):
        return R
    return NotPolyInvertible(REASON_NO_INVERSE_UP_TO_CAP, degree_cap)


def _inverts(M, R):
    """Are M*R and R*M both the identity?  Each entry of the two products
    is summed into a raw term dict by the ring's kernel and compared with
    the identity's, {1: 1} on the diagonal and {} off it; the first entry
    that differs answers no.  No product matrix, `Poly` or narrowing pass is
    made.  The comparison is exact: dict equality compares coefficient
    values, so an unnarrowed Fraction(1) or GaussianRational(1) equals 1,
    and `_mac` deletes every sum that cancels."""
    mac, left, one = M.ring._mac, M.ring._left, M.ring._ONE_KEY
    for a, b in ((M, R), (R, M)):
        cols = [[e._terms.items() for e in col] for col in zip(*b.entries)]
        for i, row in enumerate(a.entries):
            row = [left(e._terms) for e in row]
            for j, col in enumerate(cols):
                terms = {}
                for x, y in zip(row, col):
                    mac(terms, x, y)
                if terms != ({one: 1} if i == j else {}):
                    return False
    return True


def _lone_non_unit(entries, one):
    """Is some diagonal entry M[i][i] non-constant while i lies on no cycle
    of the off-diagonal pattern (i -> k when M[i][k] != 0, k != i)?  Then M
    has no polynomial inverse.

    Proof.  Such an i is a 1x1 diagonal block of the block-triangular form:
    order the strongly connected components of the pattern topologically
    and permute rows and columns alike.  A block-triangular M is invertible
    only if each diagonal block is: from [[A, B], [0, D]] * [[P, Q], [R, S]]
    = I, D*S = I; both rings are stably finite, so S*D = I, then D*R = 0
    gives R = 0 and A*P = I, and induction on the blocks does the rest.
    The free ring is stably finite because it embeds in a skew field
    (Cohn, Free Ideal Rings and Localization, 2006); the bipartite ring is
    the monoid algebra of F+_x x F+_y, which sits in the group algebra of
    the bi-orderable group F x F and so in a Malcev-Neumann division ring.
    A 1x1 block is invertible only if it is a unit, and a unit of either
    ring is a nonzero constant: both monoids are totally ordered compatibly
    with the product, so the leading term of a product is the product of
    the leading terms, and a unit has degree 0.  A zero or constant-free
    lone diagonal entry makes M0 singular, so only non-constant entries
    with a nonzero constant reach here, and these are not units.

    With M0 invertible the formal inverse then exists but is not a
    polynomial, so the series has a nonzero layer past every cap: the
    answer is the one the series gives whenever it finishes.
    """
    lone = [i for i, row in enumerate(entries) if len(row[i]._terms) > (one in row[i]._terms)]
    if not lone:
        return False
    succ = [[k for k, e in enumerate(row) if e and k != i] for i, row in enumerate(entries)]
    for i in lone:
        seen, stack = set(), list(succ[i])
        while stack:
            k = stack.pop()
            if k == i:
                break
            if k not in seen:
                seen.add(k)
                stack.extend(succ[k])
        else:
            return True
    return False
