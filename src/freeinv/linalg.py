"""Exact linear algebra over the Gaussian rationals.

Matrices are immutable tuples of row tuples of exact scalars.  `mat` and
`identity` build them from GaussianRational values; `zeros`, `scale`, `mul`
and `inverse` produce entries in their narrowest exact type
(`scalars.exact`), so products of integer matrices run on native ints.  No
floating point anywhere; singularity is decided exactly by Gauss-Jordan
elimination.
"""

from __future__ import annotations

from .scalars import GaussianRational, as_gaussian, exact

_ZERO = GaussianRational(0)
# the reciprocal's numerator: GaussianRational division stays exact and
# narrows its result, where int / int would give a float
_ONE = GaussianRational(1)


def mat(rows):
    return tuple(tuple(as_gaussian(e) for e in row) for row in rows)


def identity(n):
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


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
    """Gauss-Jordan on [a | rhs]; returns reduced rhs or None when a is singular."""
    n = len(a)
    work = [list(row) + list(rrow) for row, rrow in zip(a, rhs)]
    width = len(work[0]) if work else 0
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = _ONE / work[col][col]
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [e - factor * p for e, p in zip(work[r], work[col])]
    # Fractions may reduce to integers on the way
    return tuple(tuple(map(exact, row[n:width])) for row in work)


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
