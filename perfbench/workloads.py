"""Seeded inputs, expected verdicts and oracle witnesses for the benchmark.

Maps are built here with a small dict-based polynomial arithmetic of the
benchmark's own, so the true inverses and collision witnesses that the oracle
uses share no code with the program under test; only the finished maps are
handed to `freeinv` (as `FreePoly({word: coeff})`).

Why the inputs are fixed families under seeded symmetries: per-map cost of
random tame maps is heavy-tailed (one map in a hundred can cost more than the
other ninety-nine together), so freshly sampled maps per seed would make every
summed time move with the seed rather than with the program.  Each workload is
therefore a fixed family, and `--seed` picks a signed permutation of the
variables for every map (conjugation p -> P^-1 o p o P).  Signed permutations
are automorphisms of the free algebra, so they change every word and sign the
program sees but not the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from freeinv import FreePoly, MatrixTuple

WORKLOADS = ("tame", "negative")

# tame: the first TAME_MAPS maps of the seed-8 stream of the tame generator
# (its first 50 are the maps of acceptance criterion 8)
TAME_STREAM_SEED = 8
TAME_MAPS = 100
TAME_CAP = 48
CLI_MAPS = 12  # fixed subset of the tame corpus sent through the CLI
# negative, rigorous: members (x1, x2 - x1^a x2 x1^b) of the family a, b >= 1,
# a + b <= 4, where (1, 1) is P_CLASSIC; (1, 3) and (3, 1) are left out to keep
# one pass near 11 s.  Capped: the g=3 sandwich.  Budgeted: NILPOTENT under the
# caps and budgets of the acceptance tests.
FAMILY = ((1, 1), (1, 2), (2, 1), (2, 2))
SANDWICH_INVERT_CAP = 64
SANDWICH_INJ_CAP = 2000

TOY = {"tame": 6, "cli": 2, "sandwich_inj_cap": 60, "nilpotent_cap": 6, "nilpotent_inj_cap": 8}


# -- dict polynomials: {word: coefficient}, word = tuple of 1-based variable
# indices; coefficients are ints where exact (much faster than Fraction here)


def _mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            s = out.get(w, 0) + c1 * c2
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def _add(a, b, scale=1):
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + scale * c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def _compose(p, q):
    """p(q(x)) componentwise."""
    out = []
    for comp in p:
        acc = {}
        for w, c in comp.items():
            term = {(): c}
            for v in w:
                term = _mul(term, q[v - 1])
            acc = _add(acc, term)
        out.append(acc)
    return tuple(out)


def _identity(g):
    return tuple({(i + 1,): 1} for i in range(g))


def _degree(p):
    return max(len(w) for comp in p for w in comp)


# -- tame generator (same random stream as tests/tame.py::random_tame_pair)


def _elementary(rng, g, max_deg):
    i = rng.randrange(g)
    others = [j for j in range(g) if j != i] or [i]
    h = {}
    for _ in range(rng.randint(1, 2)):
        length = rng.randint(1, max_deg)
        word = tuple(rng.choice(others) + 1 for _ in range(length))
        h[word] = h.get(word, 0) + rng.choice([-2, -1, 1, 2])
    h = {w: c for w, c in h.items() if c}
    fwd, bwd = list(_identity(g)), list(_identity(g))
    fwd[i] = _add(fwd[i], h)
    bwd[i] = _add(bwd[i], h, -1)
    return tuple(fwd), tuple(bwd)


def _inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [[int(x) if x.denominator == 1 else x for x in row[n:]] for row in a]


def _linear(rng, g, bound=2):
    # unit lower times unit upper triangular, drawn in mateval.random_invertible's order
    lower = [[int(i == j) for j in range(g)] for i in range(g)]
    upper = [[int(i == j) for j in range(g)] for i in range(g)]
    for i in range(g):
        for j in range(i):
            lower[i][j] = rng.randint(-bound, bound)
            upper[j][i] = rng.randint(-bound, bound)
    m = [[sum(lower[i][k] * upper[k][j] for k in range(g)) for j in range(g)] for i in range(g)]

    def as_map(mat):
        return tuple({(s + 1,): mat[s][i] for s in range(g) if mat[s][i]} for i in range(g))

    return as_map(m), as_map(_inverse(m))


def tame_pair(rng, max_factors=4, max_deg=3, deg_cap=6, size_cap=60):
    """A (p, q_true) pair of dict maps; q_true is the composed factor inverses."""
    while True:
        g = rng.randint(2, 3)
        factors = []
        for _ in range(rng.randint(1, max_factors)):
            if rng.random() < 0.35:
                factors.append(_linear(rng, g))
            else:
                factors.append(_elementary(rng, g, max_deg))
        p = q = _identity(g)
        for fwd, bwd in factors:
            p = _compose(p, fwd)
            q = _compose(bwd, q)
            # hopeless candidates are dropped early; this rejects no candidate of
            # the seed-8 stream that tests/tame.py accepts (perfbench/selftest.py)
            if max(map(len, p + q)) > 2 * size_cap:
                break
        else:
            size = sum(map(len, p)) + sum(map(len, q))
            if 1 <= _degree(p) and _degree(p) * _degree(q) <= deg_cap * deg_cap and size <= size_cap:
                return p, q


def tame_corpus(n):
    rng = random.Random(TAME_STREAM_SEED)
    return [tame_pair(rng) for _ in range(n)]


# -- seeded signed permutations


def signed_permutation(rng, g):
    perm = list(range(g))
    rng.shuffle(perm)
    return tuple(perm), tuple(rng.choice((1, -1)) for _ in range(g))


def conjugate(p, sp):
    """P^-1 o p o P for P(x)_j = s_j x_perm(j)."""
    perm, signs = sp
    out = [None] * len(p)
    for j, comp in enumerate(p):
        image = {}
        for w, c in comp.items():
            sign = signs[j]
            for v in w:
                sign *= signs[v - 1]
            image[tuple(perm[v - 1] + 1 for v in w)] = c * sign
        out[perm[j]] = image
    return tuple(out)


def move_point(X, sp):
    """P^-1 X, so that p(X) = p(Y) gives a collision of the conjugate."""
    perm, signs = sp
    out = [None] * len(X)
    for j, m in enumerate(X):
        out[perm[j]] = [[signs[j] * e for e in row] for row in m]
    return out


# -- conversions


def to_freepoly(comp):
    return FreePoly({tuple(("x", v) for v in w): c for w, c in comp.items()})


def to_text(comp):
    """Render a dict polynomial in the CLI grammar ('x2 - 2*x1*x2')."""
    parts = []
    for w, c in sorted(comp.items(), key=lambda t: (len(t[0]), t[0])):
        mag = abs(c)
        body = "*".join(f"x{v}" for v in w)
        if not w:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if parts:
            parts.append((" - " if c < 0 else " + ") + piece)
        else:
            parts.append(("-" if c < 0 else "") + piece)
    return "".join(parts) or "0"


def scalar_point(values):
    """A tuple of 1x1 matrices."""
    return [[[Fraction(v)]] for v in values]


def to_matrix_tuple(X):
    return MatrixTuple(len(X[0]), tuple(tuple(tuple(row) for row in m) for m in X))


def random_point(rng, g, n=3, bound=3):
    return [[[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)] for _ in range(g)]


# -- jobs


@dataclass
class Job:
    """One decision call and what the oracle knows about its input.

    `truth` is "injective" (with `q_true` and an evaluation point) or
    "not-injective" (with a collision witness).  `must_decide` marks jobs the
    seed commit decides; an `indeterminate` verdict on them is a failure.
    """

    label: str
    call: str  # "invert" | "inj"
    p: tuple
    kwargs: dict
    truth: str
    must_decide: bool
    q_true: tuple | None = None
    point: object = None
    witness: tuple | None = None
    text: list = field(default_factory=list)


def _tame_jobs(rng, corpus):
    jobs = []
    for k, (pd, qd) in enumerate(corpus):
        sp = signed_permutation(rng, len(pd))
        pd, qd = conjugate(pd, sp), conjugate(qd, sp)
        p = tuple(map(to_freepoly, pd))
        common = dict(p=p, truth="injective", must_decide=True,
                      q_true=tuple(map(to_freepoly, qd)),
                      point=to_matrix_tuple(random_point(rng, len(pd))),
                      text=[to_text(c) for c in pd])
        jobs.append(Job(f"tame[{k}]", "invert", kwargs={"cap": TAME_CAP}, **common))
        jobs.append(Job(f"tame[{k}]", "inj", kwargs={}, **common))
    return jobs


def _negative_jobs(rng, label, pd, X, Y, specs):
    """Jobs on a non-injective dict map with collision p(X) = p(Y)."""
    sp = signed_permutation(rng, len(pd))
    pd = conjugate(pd, sp)
    p = tuple(map(to_freepoly, pd))
    witness = (to_matrix_tuple(move_point(X, sp)), to_matrix_tuple(move_point(Y, sp)))
    return [
        Job(label, call, p, kwargs, "not-injective", must_decide, witness=witness)
        for call, kwargs, must_decide in specs
    ]


def _x(i):
    return {(i,): 1}


NILPOTENT = (
    {(1,): 1, (1, 1): 1, (2, 1): 1},
    {(2,): 1, (1, 1): -1, (2, 1): -1},
)


def _negative_workload(rng, toy):
    rigorous = [("invert", {}, True), ("inj", {}, True)]
    jobs = []
    # p(1, t) = (1, 0) for every t
    for a, b in FAMILY[:1] if toy else FAMILY:
        pd = (_x(1), {(2,): 1, (1,) * a + (2,) + (1,) * b: -1})
        jobs += _negative_jobs(rng, f"family({a},{b})", pd, scalar_point([1, 0]), scalar_point([1, 1]), rigorous)
    # P_ONEVAR: x - x^2 vanishes at 0 and 1
    onevar = ({(1,): 1, (1, 1): -1},)
    jobs += _negative_jobs(rng, "onevar", onevar, scalar_point([0]), scalar_point([1]), rigorous)
    # the g=3 sandwich; p(1, s, t) = (1, s, 0)
    sandwich = (_x(1), _x(2), {(3,): 1, (1, 3, 1): -1})
    inj_cap = TOY["sandwich_inj_cap"] if toy else SANDWICH_INJ_CAP
    capped = [("invert", {"cap": SANDWICH_INVERT_CAP}, False), ("inj", {"cap": inj_cap}, False)]
    jobs += _negative_jobs(rng, "sandwich", sandwich, scalar_point([1, 2, 0]), scalar_point([1, 2, 1]), capped)
    # NILPOTENT is constant on the line (t, -1-t)
    cap, inj_cap = (TOY["nilpotent_cap"], TOY["nilpotent_inj_cap"]) if toy else (12, 24)
    budgeted = [("invert", {"cap": cap, "max_terms": 50_000}, False)]
    if not toy:
        budgeted.append(("invert", {"max_terms": 60_000}, False))
    budgeted.append(("inj", {"cap": inj_cap, "max_terms": 50_000}, False))
    X, Y = scalar_point([Fraction(-1, 2), Fraction(-1, 2)]), scalar_point([0, -1])
    jobs += _negative_jobs(rng, "nilpotent", NILPOTENT, X, Y, budgeted)
    return jobs


def build(workload, seed, toy=False):
    """Return (jobs, cli_jobs): the decision jobs and the tame invert jobs sent
    through the CLI.  Same seed, same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    n_tame = TOY["tame"] if toy else TAME_MAPS
    n_cli = TOY["cli"] if toy else CLI_MAPS
    corpus = tame_corpus(n_tame if workload == "tame" else n_cli)
    tame = _tame_jobs(rng, corpus)
    cli_jobs = [j for j in tame if j.call == "invert"][:n_cli]
    if workload == "tame":
        return tame, cli_jobs
    return _negative_workload(rng, toy), cli_jobs
