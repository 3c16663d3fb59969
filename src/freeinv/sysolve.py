"""Proper algebraic systems: iteration, head/tail splits, truncated solving.

A system a(x)[z] with h components is proper when it has no constant terms and
every word containing a z-letter has length at least two.  Such a system has a
unique formal fixed point a(x)[s(x)] = s(x), approached by composing the
system into its own z-slots; truncation at a working degree W is sound because
constant-term-free substitution never shortens words.

`iterates` is the one fixed-point loop: it yields the head/tail split of every
truncated self-composition in turn, and `iterate_split`, `solve_truncated`
(hence `implicit_solve`) and the inversion driver all consume it.

A composition step pays per surviving partial product: only z-letters have
images, so `substitute_tracked` copies a z-free word through whole and each run
of x-letters as one slice, and since the images (the components) are
constant-free it extends a partial product only while it can still fit under
the working degree once the rest of its word is appended -- every later letter
adds at least one.  A zero component switches that lookahead off; the system
x J^-1(z) of the inversion driver never has one, because J^-1(0) is
invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

from . import linalg
from .freealg import (
    POS_INF,
    FreePoly,
    encode_letter,
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
    """True iff constant-term-free, every z-word has length >= 2 and every
    z-letter is one of z1..zh."""
    comps = _as_components(system)
    for c in comps:
        if c.constant_term() or c.dz_degree("z") <= 1:
            return False
        if any(kind == "z" and i > len(comps) for kind, i in c.letters()):
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


def _step(images, current, trunc):
    """One composition step: substitute the base system (as z-slot `images`)
    into the z-slots of the current iterate (the cheap orientation; both give
    the same composite by the semigroup law for self-composition)."""
    out = []
    dropped = False
    for comp in current:
        res, d = substitute_tracked(comp, images, default_identity=True, trunc=trunc)
        out.append(res)
        dropped = dropped or d
    return tuple(out), dropped


def _split(components, k, exact, z_letters):
    # the z-degree floor: one C-speed membership test per word, not per letter
    z_lengths = (len(w) for comp in components for w in comp._terms if not z_letters.isdisjoint(w))
    floor = min(z_lengths, default=None)
    if floor is None:
        return IterateSplit(k, tuple(components), tuple(FreePoly.zero() for _ in components), None, exact)
    head = []
    tail = []
    for comp in components:
        h_terms = {}
        t_terms = {}
        for w, c in comp._terms.items():
            (h_terms if len(w) < floor else t_terms)[w] = c
        head.append(FreePoly._raw(h_terms))
        tail.append(FreePoly._raw(t_terms))
    return IterateSplit(k, tuple(head), tuple(tail), floor, exact)


def iterates(system, trunc: int):
    """Yield the split of the k-th self-composition, truncated at degree
    `trunc`, for k = 1, 2, ...; `exact` stays True while no word was dropped."""
    _require_proper(system)
    comps = _as_components(system)
    images = {("z", j + 1): comp for j, comp in enumerate(comps)}
    z_letters = frozenset(map(encode_letter, images))
    current = tuple(c.truncate(trunc) for c in comps)
    exact = all(len(cur) == len(orig) for cur, orig in zip(current, comps))
    for k in count(1):
        yield _split(current, k, exact, z_letters)
        current, dropped = _step(images, current, trunc)
        exact = exact and not dropped


def iterate_split(system, k: int, trunc: int) -> IterateSplit:
    """Compute the k-th self-composition truncated at degree `trunc` and split it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if trunc < 1:
        raise ValueError("working truncation degree must be >= 1")
    return next(islice(iterates(system, trunc), k - 1, None))


def solve_truncated(system, trunc: int):
    """Degree-<=trunc part of the unique fixed point of a proper system.

    The floor grows by at least one per step, so within `trunc` steps no
    z-word survives truncation and the head is the whole iterate.
    """
    if trunc < 1:
        raise ValueError("working truncation degree must be >= 1")
    return next(split.head for split in iterates(system, trunc) if split.floor is None)


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
    return solve_truncated(ProperAlgebraicSystem(hatted), trunc)
