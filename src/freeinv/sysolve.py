"""Proper algebraic systems: iteration, head/tail splits, truncated solving.

A system a(x)[z] with h components is proper when it has no constant terms and
every word containing a z-letter has length at least two.  Such a system has a
unique formal fixed point a(x)[s(x)] = s(x), approached by composing the
system into its own z-slots; truncation at a working degree W is sound because
constant-term-free substitution never shortens words.

A composition step costs per bound letter, not per letter: only z-letters have
images, so `substitute_tracked` copies each run of x-letters as one slice and
passes a z-free word through whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .freealg import (
    POS_INF,
    FreePoly,
    letter_kind,
    substitute_tracked,
)


class ImproperSystem(ValueError):
    """The system violates the proper-system preconditions."""


class SingularLinearPart(ValueError):
    """The z-linear coefficient matrix at the origin is not invertible."""


class NonzeroConstant(ValueError):
    """The input has a nonzero constant term."""


@dataclass(frozen=True)
class ProperAlgebraicSystem:
    """A tuple a(x)[z] of polynomials over x1..xg and z1..zh with h = #components."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def h(self):
        return len(self.components)

    def dz(self):
        return min((c.dz_degree("z") for c in self.components), default=POS_INF)

    def __iter__(self):
        return iter(self.components)


def _as_components(system):
    if isinstance(system, ProperAlgebraicSystem):
        return system.components
    return tuple(system)


def check_proper(system) -> bool:
    """True iff constant-term-free and every z-word has length >= 2."""
    comps = _as_components(system)
    for c in comps:
        if c.constant_term():
            return False
        if c.dz_degree("z") <= 1:
            return False
    return True


@dataclass(frozen=True)
class IterateSplit:
    """The k-th self-composition split at its z-degree floor.

    floor is the minimum length of a z-containing word of the (truncated)
    iterate; None means no z-word survived at the working degree.  When
    `exact` is True nothing was ever truncated, so floor None certifies that
    the untruncated iterate has no z-words at all (a true fixed point).
    """

    k: int
    head: tuple
    tail: tuple
    floor: int | None
    exact: bool

    def head_degree(self):
        return max((comp.degree() for comp in self.head), default=float("-inf"))


def _require_proper(system):
    if not check_proper(system):
        raise ImproperSystem("system must be constant-term-free with z-degree floor > 1")


def _step(base_components, current, trunc):
    """One composition step: substitute the base system into the z-slots of the
    current iterate (the cheap orientation; both give the same composite by the
    semigroup law for self-composition)."""
    images = {("z", j + 1): comp for j, comp in enumerate(base_components)}
    out = []
    dropped = False
    for comp in current:
        res, d = substitute_tracked(comp, images, default_identity=True, trunc=trunc)
        out.append(res)
        dropped = dropped or d
    return tuple(out), dropped


def _split(components, k, exact):
    floor = POS_INF
    for comp in components:
        d = comp.dz_degree("z")
        if d < floor:
            floor = d
    if floor == POS_INF:
        return IterateSplit(k, tuple(components), tuple(FreePoly.zero() for _ in components), None, exact)
    floor = int(floor)
    head = []
    tail = []
    for comp in components:
        h_terms = {}
        t_terms = {}
        for w, c in comp.terms():
            (h_terms if len(w) < floor else t_terms)[w] = c
        head.append(FreePoly._raw(h_terms))
        tail.append(FreePoly._raw(t_terms))
    return IterateSplit(k, tuple(head), tuple(tail), floor, exact)


def iterate_split(system, k: int, trunc: int) -> IterateSplit:
    """Compute the k-th self-composition truncated at degree `trunc` and split it."""
    _require_proper(system)
    if k < 1:
        raise ValueError("k must be >= 1")
    if trunc < 1:
        raise ValueError("working truncation degree must be >= 1")
    comps = _as_components(system)
    current = tuple(c.truncate(trunc) for c in comps)
    exact = all(len(cur) == len(orig) for cur, orig in zip(current, comps))
    for _ in range(k - 1):
        current, dropped = _step(comps, current, trunc)
        exact = exact and not dropped
    return _split(current, k, exact)


def solve_truncated(system, trunc: int):
    """Degree-<=trunc part of the unique fixed point of a proper system."""
    _require_proper(system)
    if trunc < 1:
        raise ValueError("working truncation degree must be >= 1")
    comps = _as_components(system)
    current = tuple(c.truncate(trunc) for c in comps)
    for _ in range(1, trunc + 1):
        floor = min((c.dz_degree("z") for c in current), default=POS_INF)
        if floor > trunc:
            break
        current, _ = _step(comps, current, trunc)
    # all words of length <= trunc have stabilized; strip any z-tail
    out = []
    for comp in current:
        out.append(FreePoly({w: c for w, c in comp.terms() if "z" not in map(letter_kind, w)}))
    return tuple(out)


def implicit_solve(f, trunc: int):
    """Unique g with g(0) = 0 and f(x, g(x)) = 0 (mod degree trunc+1).

    Requires f(0,0) = 0 and an invertible z-linear coefficient matrix at the
    origin; the system z - f(x,z), normalized so that its z-linear part is the
    identity, is proper and is solved by fixed-point iteration.
    """
    f = tuple(f)
    h = len(f)
    if any(comp.constant_term() for comp in f):
        raise NonzeroConstant("implicit_solve requires f(0,0) = 0")
    part = [
        [f[i].coefficient((("z", j + 1),)) for j in range(h)]
        for i in range(h)
    ]
    part_inv = linalg.inverse(tuple(tuple(row) for row in part))
    if part_inv is None:
        raise SingularLinearPart("the z-linear coefficient matrix at 0 is singular")
    normalized = []
    for i in range(h):
        acc = FreePoly.zero()
        for s in range(h):
            c = part_inv[i][s]
            if c:
                acc = acc + f[s] * c
        normalized.append(acc)
    hatted = tuple(
        FreePoly.letter("z", i + 1) - normalized[i] for i in range(h)
    )
    system = ProperAlgebraicSystem(hatted)
    if not check_proper(system):
        raise ImproperSystem("normalized system is not proper")
    return solve_truncated(system, trunc)
