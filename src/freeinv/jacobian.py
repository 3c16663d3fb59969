"""Left Jacobian matrices, verified polynomial matrix inversion, auxiliary inverses.

The left Jacobian of a map p is the unique matrix J with
p(x) = p(0) + x*J(x); entry J[s][j] collects the words of p_j that start with
x_{s+1}, with that first letter removed.

`Matrix` and `poly_matrix_inverse` are ring-generic: `PolyMatrix` (free
polynomials) and the bipartite matrices of `freeinv.bipartite` only name
their entry ring, and both inverses run through the one series engine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import linalg
from .freealg import (
    NEG_INF,
    FreePoly,
    check_alphabet,
    rename_letters,
)

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
        return cls.from_scalars([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalars(cls, scalars):
        return cls([[cls.ring.scalar(c) for c in row] for row in scalars])

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
        zero = self.ring.zero()
        cols = tuple(zip(*other.entries))
        return type(self)(
            [[sum((a * b for a, b in zip(row, col)), zero) for col in cols] for row in self.entries]
        )

    def scaled(self, scalars):
        """The product S * self for a matrix S of exact scalars."""
        zero = self.ring.zero()
        cols = tuple(zip(*self.entries))
        return type(self)(
            [[sum((e * c for e, c in zip(col, row) if c), zero) for col in cols] for row in scalars]
        )

    def constant_part(self):
        return tuple(tuple(e.constant_term() for e in row) for row in self.entries)

    def degree(self):
        return max((e.degree() for row in self.entries for e in row), default=NEG_INF)

    def map_entries(self, fn):
        return type(self)([[fn(e) for e in row] for row in self.entries])

    def term_count(self):
        return sum(len(e) for row in self.entries for e in row)

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
        for w, c in comp.terms():
            if not w:
                continue
            s = w[0][1]
            rest = w[1:]
            row = grid[s - 1][j]
            prev = row.get(rest)
            row[rest] = c if prev is None else prev + c
    entries = [
        [FreePoly({w: c for w, c in cell.items() if c}) for cell in row] for row in grid
    ]
    return constants, PolyMatrix(entries)


def reconstruct(constants, J):
    """Inverse of jacobian_extract: p(x) = p(0) + x*J(x)."""
    g, h = J.rows, J.cols
    out = []
    for j in range(h):
        comp = FreePoly.scalar(constants[j])
        for s in range(g):
            comp = comp + FreePoly.letter("x", s + 1) * J[s][j]
        out.append(comp)
    return tuple(out)


def poly_matrix_inverse(M: Matrix, degree_cap: int, max_terms=None):
    """Two-sided inverse of a square polynomial matrix over either ring, or
    NotPolyInvertible.

    Accumulates the geometric-series inverse degree layer by degree layer up to
    `degree_cap` (layers are graded by the ring's key degree), then verifies
    M*R = I = R*M exactly, so a returned matrix is unconditionally correct.  At
    the rigorous cap a negative answer proves no polynomial inverse exists; at
    a smaller cap it means none up to the cap.
    """
    if M.rows != M.cols:
        raise ValueError("only square matrices can be inverted")
    if degree_cap < 0:
        raise ValueError("degree_cap must be >= 0")
    cls = type(M)
    n = M.rows
    m0 = M.constant_part()
    m0_inv = linalg.inverse(m0)
    if m0_inv is None:
        return NotPolyInvertible(REASON_SINGULAR_CONSTANT, degree_cap)
    # N = M(0) - M has no constant term; R solves M0*R = I + N*R layerwise.
    N = cls.from_scalars(m0) - M
    deg_n = N.degree()
    if deg_n == NEG_INF:
        return cls.from_scalars(m0_inv)
    deg_n = int(deg_n)
    n_layers = {
        d: N.map_entries(lambda e, d=d: e.homogeneous_part(d)) for d in range(1, deg_n + 1)
    }
    n_layers = {d: L for d, L in n_layers.items() if not L.is_zero()}
    layers = [cls.from_scalars(m0_inv)]
    total = layers[0]
    zero_run = 0
    terms = total.term_count()
    for m in range(1, degree_cap + 1):
        acc = None
        for d, Nd in n_layers.items():
            if d > m:
                continue
            part = Nd * layers[m - d]
            acc = part if acc is None else acc + part
        layer = cls.from_scalars([[0] * n] * n) if acc is None else acc.scaled(m0_inv)
        layers.append(layer)
        if layer.is_zero():
            zero_run += 1
            if zero_run >= deg_n:
                break
        else:
            zero_run = 0
            total = total + layer
            terms += layer.term_count()
            if max_terms is not None and terms > max_terms:
                return NotPolyInvertible(REASON_TERM_BUDGET, degree_cap)
    ident = cls.identity(n)
    if M * total == ident and total * M == ident:
        return total
    return NotPolyInvertible(REASON_NO_INVERSE_UP_TO_CAP, degree_cap)


def auxiliary_inverse(p, j_inv: PolyMatrix):
    """Build the proper algebraic system x * Jinv(z) from a verified inverse Jacobian."""
    from .sysolve import ProperAlgebraicSystem, check_proper

    g = len(p)
    check_alphabet(p, g, kinds=("x",))
    if any(comp.constant_term() for comp in p):
        raise ValueError("auxiliary inverse requires a map without constant term")
    to_z = {("x", i + 1): ("z", i + 1) for i in range(g)}
    jz = j_inv.map_entries(lambda e: rename_letters(e, to_z))
    components = []
    for i in range(g):
        acc = FreePoly.zero()
        for s in range(g):
            acc = acc + FreePoly.letter("x", s + 1) * jz[s][i]
        components.append(acc)
    system = ProperAlgebraicSystem(tuple(components))
    if not check_proper(system):
        raise ValueError("auxiliary inverse failed the proper-system invariants")
    return system
