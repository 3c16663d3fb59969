"""Exact linear algebra over the Gaussian rationals.

Matrices are immutable tuples of row tuples of exact scalars.  `mat`,
`identity`, `zeros`, `scale`, `mul` and `inverse` produce entries in their
narrowest exact type (`scalars.exact`), so products of integer matrices run
on native ints.  No floating point anywhere.  `inverse` and `solve` run one
fraction-free (Bareiss) Gauss-Jordan elimination for every entry type: every
entry stays a minor of the input, so integer matrices run on native ints, and
the left block ends as d * I, with d the last pivot, +-det a; the right block
is then divided by d once per entry.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .scalars import as_gaussian, exact


def mat(rows):
    return tuple(tuple(map(exact, row)) for row in rows)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def zeros(r, c):
    return tuple((0,) * c for _ in range(r))


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a, c):
    c = exact(c)
    return tuple(tuple(x * c for x in row) for row in a)


def mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def transpose(a):
    return tuple(zip(*a))


def is_zero(a):
    return all(not e for row in a for e in row)


def kron(a, b):
    """Kronecker product."""
    bn = len(b)
    bm = len(b[0]) if b else 0
    out = []
    for i in range(len(a)):
        for k in range(bn):
            out.append(
                tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(bm))
            )
    return tuple(out)


def vec(a):
    """Row-major flattening of a square matrix to a row of length n^2."""
    return tuple(e for row in a for e in row)


def unvec(row, n):
    return tuple(tuple(row[i * n + j] for j in range(n)) for i in range(n))


def direct_sum(a, b):
    na, nb = len(a), len(b)
    top = tuple(tuple(a[i]) + (0,) * nb for i in range(na))
    bot = tuple((0,) * na + tuple(b[i]) for i in range(nb))
    return top + bot


def _eliminate(a, rhs):
    """Fraction-free Gauss-Jordan on [a | rhs]; returns a^-1 rhs, or None
    when a is singular."""
    n = len(a)
    work = [list(row) + list(rrow) for row, rrow in zip(a, rhs)]
    if all(type(e) is int for row in work for e in row):
        # every entry stays a minor of [a | rhs], so the divisions are exact
        div, quotient = operator.floordiv, Fraction
    else:
        # GaussianRational division is exact and narrows, for any exact operands
        div = quotient = lambda x, y: x / as_gaussian(y)
    last = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        prow = work[col]
        piv = prow[col]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [div(piv * e - f * p, last) for e, p in zip(work[r], prow)]
        last = piv
    # the left block is now last * I
    return tuple(tuple(exact(quotient(e, last)) for e in row[n:]) for row in work)


def inverse(a):
    """Exact inverse, or None when singular."""
    n = len(a)
    return _eliminate(a, [[int(i == j) for j in range(n)] for i in range(n)])


def solve(a, b):
    """Solve a x = b for a column vector b (tuple); None when singular."""
    rhs = tuple((e,) for e in b)
    res = _eliminate(a, rhs)
    if res is None:
        return None
    return tuple(row[0] for row in res)
