"""Exact evaluation of free and bipartite polynomials on matrix tuples.

All verification runs over exact Gaussian-rational matrices; singularity of
the linear systems arising in split-term evaluation is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .bipartite import BipartiteMatrix, Hyporealization, hypomatrix_rep
from .deriv import free_derivative
from .freealg import ArityMismatch, FreePoly
from .linalg import kron, unvec
from .scalars import GaussianRational


class SizeMismatch(ValueError):
    """Matrix tuples of different sizes were mixed."""


class UndefinedEvaluation(ArithmeticError):
    """The split-term evaluation hit a singular linear system at this point."""


@dataclass(frozen=True)
class MatrixTuple:
    """A g-tuple of square matrices of common size n over the Gaussian rationals."""

    n: int
    mats: tuple

    def __post_init__(self):
        mats = tuple(linalg.mat(m) for m in self.mats)
        for m in mats:
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise SizeMismatch("all matrices must be square of the declared size")
        object.__setattr__(self, "mats", mats)

    @property
    def arity(self):
        return len(self.mats)

    def __getitem__(self, i):
        return self.mats[i]

    def transpose(self):
        return MatrixTuple(self.n, tuple(linalg.transpose(m) for m in self.mats))

    def direct_sum(self, other):
        if self.arity != other.arity:
            raise ArityMismatch("direct sum requires equal arity")
        return MatrixTuple(
            self.n + other.n,
            tuple(linalg.direct_sum(a, b) for a, b in zip(self.mats, other.mats)),
        )

    def conjugate(self, s, s_inv=None):
        """Similarity S^-1 X S applied entrywise."""
        if s_inv is None:
            s_inv = linalg.inverse(s)
            if s_inv is None:
                raise ValueError("similarity matrix is singular")
        return MatrixTuple(
            self.n, tuple(linalg.mul(linalg.mul(s_inv, m), s) for m in self.mats)
        )


def random_matrix(rng, n, bound=3):
    return linalg.mat(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )


def random_matrix_tuple(rng, g, n, bound=3) -> MatrixTuple:
    """Seeded tuple with small integer entries; the verification substrate."""
    return MatrixTuple(n, tuple(random_matrix(rng, n, bound) for _ in range(g)))


def random_invertible(rng, n, bound=2):
    """Product of unit triangular matrices; exactly invertible by construction."""
    lower = [[GaussianRational(1) if i == j else GaussianRational(0) for j in range(n)] for i in range(n)]
    upper = [[GaussianRational(1) if i == j else GaussianRational(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = GaussianRational(rng.randint(-bound, bound))
            upper[j][i] = GaussianRational(rng.randint(-bound, bound))
    return linalg.mul(tuple(tuple(r) for r in lower), tuple(tuple(r) for r in upper))


def _env_of(X):
    if isinstance(X, MatrixTuple):
        return {"x": X}
    return dict(X)


def eval_word(word, env, n):
    acc = linalg.identity(n)
    for (kind, idx) in word:
        tup = env.get(kind)
        if tup is None or idx > tup.arity:
            raise ArityMismatch(f"no matrix for letter {kind}{idx}")
        acc = linalg.mul(acc, tup[idx - 1])
    return acc


def eval_poly(f: FreePoly, X):
    """Evaluate with the constant term contributing a scalar multiple of I.

    X may be a MatrixTuple (x-letters only) or a dict kind -> MatrixTuple for
    mixed-alphabet polynomials.
    """
    env = _env_of(X)
    sizes = {tup.n for tup in env.values()}
    if len(sizes) > 1:
        raise SizeMismatch("mixed matrix sizes in evaluation environment")
    n = sizes.pop() if sizes else 1
    out = linalg.zeros(n, n)
    for w, c in f.terms():
        out = linalg.add(out, linalg.scale(eval_word(w, env, n), c))
    return out


def eval_poly_map(p, X):
    return tuple(eval_poly(comp, X) for comp in p)


def vec(a):
    """Row-major flattening of an n x n matrix to a length-n^2 row."""
    return linalg.vec(a)


def eval_bipartite(b, Y: MatrixTuple):
    """Evaluate a split term u (x) v as u(Y^T) kron v(Y), extended linearly.

    Equivalently the substitution (left letters -> Y_j^T kron I, right letters
    -> I kron Y_j); returns an n^2 x n^2 matrix.
    """
    n = Y.n
    yt = Y.transpose()
    env_left = {kind: yt for kind in "xyzwhk"}
    env_right = {kind: Y for kind in "xyzwhk"}
    out = linalg.zeros(n * n, n * n)
    for (u, v), c in b.terms():
        left = eval_word(u, env_left, n)
        right = eval_word(v, env_right, n)
        out = linalg.add(out, linalg.scale(kron(left, right), c))
    return out


def eval_bipartite_matrix(M: BipartiteMatrix, Y: MatrixTuple):
    """Assemble the g x g grid of n^2 x n^2 blocks into one gn^2 x gn^2 matrix."""
    n2 = Y.n * Y.n
    g = M.rows
    blocks = [[eval_bipartite(M[j][i], Y) for i in range(g)] for j in range(g)]
    rows = []
    for j in range(g):
        for r in range(n2):
            row = []
            for i in range(g):
                row.extend(blocks[j][i][r])
            rows.append(tuple(row))
    return tuple(rows)


def block_derivative_check(f: FreePoly, X: MatrixTuple, H: MatrixTuple) -> bool:
    """Evaluate f on [[X_i, H_i], [0, X_i]] and compare the top-right block with
    the evaluated formal derivative at (X, H)."""
    if X.n != H.n:
        raise SizeMismatch("X and H must have the same size")
    if X.arity != H.arity:
        raise ArityMismatch("X and H must have the same arity")
    n = X.n
    zero = linalg.zeros(n, n)
    block_mats = []
    for xm, hm in zip(X.mats, H.mats):
        top = tuple(tuple(xm[i]) + tuple(hm[i]) for i in range(n))
        bot = tuple(tuple(zero[i]) + tuple(xm[i]) for i in range(n))
        block_mats.append(top + bot)
    block = MatrixTuple(2 * n, tuple(block_mats))
    full = eval_poly(f, block)
    top_right = tuple(tuple(full[i][n:]) for i in range(n))
    deriv_value = eval_poly(free_derivative(f), {"x": X, "y": H})
    return top_right == deriv_value


def hyporational_eval(real: Hyporealization, X: MatrixTuple, component: int):
    """Evaluate one solution component of a z-affine linear proper system.

    Forms the hn^2 x hn^2 exact matrix I - Phi(X^T kron I, I kron X), solves
    vec(base(X)) against it from the left, and un-flattens the requested
    component; raises UndefinedEvaluation when the matrix is singular.
    """
    h = real.h
    if not (0 <= component < h):
        raise ValueError("component index out of range")
    base, phi = hypomatrix_rep(real)
    n = X.n
    n2 = n * n
    big = eval_bipartite_matrix(phi, X)
    size = h * n2
    system = linalg.sub(linalg.identity(size), big)
    rhs = []
    for comp in base:
        rhs.extend(vec(eval_poly(comp, X)))
    # row-vector equation y (I - Phi) = rhs  <=>  (I - Phi)^T y^T = rhs^T
    solution = linalg.solve(linalg.transpose(system), tuple(rhs))
    if solution is None:
        raise UndefinedEvaluation("I - Phi evaluated singular at this tuple")
    seg = solution[component * n2 : (component + 1) * n2]
    return unvec(seg, n)


def to_complex_matrix(a):
    return [[complex(e.re, e.im) for e in row] for row in a]


def eval_poly_float(f: FreePoly, X: MatrixTuple):
    """Floating-point evaluation, a CLI convenience only.

    Never used by the decision algorithm or by any verification: those run in
    exact arithmetic without exception.
    """
    n = X.n
    mats = [to_complex_matrix(m) for m in X.mats]
    out = [[0j] * n for _ in range(n)]
    for w, c in f.terms():
        acc = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
        for (kind, idx) in w:
            if kind != "x" or idx > len(mats):
                raise ArityMismatch(f"no matrix for letter {kind}{idx}")
            m = mats[idx - 1]
            acc = [
                [sum(acc[i][k] * m[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        cc = complex(c.re, c.im)
        for i in range(n):
            for j in range(n):
                out[i][j] += cc * acc[i][j]
    return out


def collision_check(p, X: MatrixTuple, X2: MatrixTuple) -> bool:
    """True iff X != X2 while p agrees on them exactly (a non-injectivity witness)."""
    if X.n != X2.n:
        raise SizeMismatch("collision candidates must have the same size")
    if X.mats == X2.mats:
        return False
    return all(eval_poly(c, X) == eval_poly(c, X2) for c in p)
