"""Proper algebraic systems: iteration, head/tail splits, truncated solving.

A system a(x)[z] with h components is proper when it has no constant terms and
every word containing a z-letter has length at least two.  Such a system has a
unique formal fixed point a(x)[s(x)] = s(x), approached by composing the
system into its own z-slots; truncation at a working degree W is sound because
constant-term-free substitution never shortens words.

`iterates` is the one fixed-point loop: it yields the head/tail split of every
truncated self-composition in turn, and `iterate_split`, `solve_truncated`
(hence `implicit_solve`) and the inversion driver all consume it.  A run
can resume after an exact split of an earlier run on the same system, at
any working degree: that split is the untruncated iterate, so the inversion
driver's pass at a larger working degree steps on from it instead of
repeating the steps that led there.

The iterate is held factored, per component:

- its z-free words by length, one bucket per length;
- its z-words by (beta, l) -> {u: c}, where beta is the suffix from the
  first z-letter and u the z-free prefix of length l, so that the word is
  u beta.

The floor is min(l + |beta|) over the groups, with no scan of the words.

A step forms T_{k+1} from the iterate T_k.  By the semigroup law of
self-composition T_{k+1} = T_k o a = a o T_k, and truncating the inner map
at W first changes neither, because no image has a constant term.  So a step
can take either side, and each side is several times faster on some
iterates:

- The iterate side, T_k o a, substitutes the system into the z-slots of
  every word u beta.  Only z-letters have images, so the image of u beta is
  u times the image of beta, and its truncation at W is u times the image of
  beta truncated at W - l.  The step expands each (beta, l) by one call of
  `substitute_tracked` on the word beta, which reads that image tau from the
  system's image memo, keeps no cache of its own, and accumulates the
  products u tau over its groups.  Its cost grows with the number of groups.
- The system side, a o T_k, flattens T_k, sets its components up as the
  images of z1..zh and substitutes them into the system, one call of
  `substitute_tracked` per component: Horner's rule over the few short words
  of a.  Its cost grows with the size of T_k's components and does not see
  how the words group.

`_step` takes the system side when T_k has more than two (beta, l) groups
per term of a, and the iterate side otherwise.  Measured per step (CPython
3.11, 2-core VM, the invert jobs of the benchmark's workloads): on the
heaviest seed-8 tame maps, whose T_2 has 1,810 terms in 942 groups against
27 terms of a, the iterate side takes 20-26 ms and the system side 5-7 ms;
NILPOTENT's iterates keep two groups while their terms double, and its step
on 32,766 terms takes 9 ms on the iterate side against 65-90 ms on the system
side; the family maps (x1, x2 - x1^a x2 x1^b), one group against 3 terms,
take 0.02 ms against 0.08 ms (medians).  Over the 104 tame steps the rule
takes 0.059 s, the iterate side alone 0.107 s and the better side of each
step 0.053 s; over the 785 negative steps it takes the iterate side
throughout (0.037 s, against 0.228 s for the system side alone).  The rule
reads two counts the step already has, so choosing costs one length per
component.

The `dropped` flag of a step is read off T_k's groups, whichever side
computes the step: for a group (beta, l) it is deg(beta) > W - l, exactly
when the untruncated image of u beta has a word longer than W, where
deg(beta) sums the top degrees of the images of its letters up to the
first letter with a zero image.  The step reads deg(beta) through
`SubstitutionImages.degrees` on the system's image set and computes no
image degree itself.  It is not read off the system side's expansion,
whose flag weighs a word of a by the top degrees of T_k's components: the
two flags come from two different ways of expanding the same composite,
and before a zero letter they can differ (`tests/test_sysolve.py` pins
such a system).  So `exact`, every split, every loop index and every
`cap_used` are the same whichever side a step takes.  Once a pass is
inexact, no flag is computed.

The system's components are set up once as one `SubstitutionImages`
(`ProperAlgebraicSystem.images`), whose memo keeps the image of each z-word
core (beta from its first to its last z-letter, the x-run after it
appended on the way out) at the largest budget asked so far.  One
expansion therefore serves every l, every later iterate-side step and every
later pass of `iterates` on the same system at an equal or smaller budget,
by a length filter, and at any budget once it dropped nothing; only a larger
budget rebuilds it.  A suffix through a zero component expands to
nothing; the system x J^-1(z) of the inversion driver never has a zero
component, because J^-1(0) is invertible.  A system-side step builds an
image set of its own, which lives for that step.

Finality.  The z-free words a step adds are images of z-words, which have
length >= floor, and substitution never shortens a word; so the buckets
below the floor are final, and the head (the buckets below the floor) only
grows.  A final bucket is also the same at every working degree, since the
iterate at w is the one at any larger degree truncated at w.  So each
component's final buckets live in one dict that the splits of a run, and of
every run resumed from one of them, share: a split reads those below its
cut (its floor, or trunc + 1 once no z-word is left), and later steps, at
any degree, file only buckets at or above it, or a final one again with the
same words.  A split holds its buckets at or above its cut and its groups;
an iterate-side step copies such a bucket when it first writes to it, and a
system-side step builds every bucket afresh and drops those below the cut.
So a split yielded earlier stays valid however far the generator runs, or a
run resumed from it, and no split holds its predecessor.  Its statistics
are carried: the head degree and head size extend those of the split before
over the buckets that fall below the new cut, and the count of z-free words
changes by what the step wrote, so a step's bookkeeping touches the buckets
and groups it wrote, not the head, whose size grows with k.  The head size
also tells whether the head changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice

from . import linalg
from .freealg import (
    NEG_INF,
    POS_INF,
    FreePoly,
    SubstitutionImages,
    _settled,
    decode_letter,
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

    @cached_property
    def images(self):
        """The components as the images of z1..zh, set up once per system,
        so that its suffix memo serves every run of `iterates` on it."""
        return SubstitutionImages({("z", j + 1): comp for j, comp in enumerate(self.components)})

    @cached_property
    def size(self):
        """The number of terms of all components, which `_step` weighs
        against the iterate's groups."""
        return sum(map(len, self.components))

    def dz(self):
        return min((c.dz_degree("z") for c in self.components), default=POS_INF)

    def __iter__(self):
        return iter(self.components)


def check_proper(system) -> bool:
    """True iff constant-term-free, every z-word has length >= 2 and every
    z-letter is one of z1..zh."""
    comps = tuple(system)
    for c in comps:
        if c.constant_term():
            return False
        # a z-word of length 1 is a z-letter that is itself a word of c
        for ch in set().union(*c._terms):
            kind, i = decode_letter(ch)
            if kind == "z" and (i > len(comps) or ch in c._terms):
                return False
    return True


class IterateSplit:
    """The k-th self-composition split at its z-degree floor.

    floor is the minimum length of a z-containing word of the (truncated)
    iterate; None means no z-word survived at the working degree.  When
    `exact` is True nothing was ever truncated, so floor None certifies that
    the untruncated iterate has no z-words at all (a true fixed point).

    `head` (the words below the floor, all z-free) and `tail` (the rest) are
    built on first access.  `head_degree()` and `head_terms`, the number of
    words of the head, are carried: the head only grows, so those of the
    split before are extended over the buckets that fall below the floor at
    this split.  `terms`, the number of words of both, adds the words of the
    groups to a count of z-free words that the steps carry and change by
    what they wrote.  Two splits are equal when their k, head, tail, floor
    and exact are.
    """

    __slots__ = (
        ("k", "floor", "exact", "head_terms", "_head_degree", "_free_terms")
        + ("_final", "_iterate", "_cut", "_head", "_tail")
    )

    def __init__(self, k, iterate, exact, trunc, free_terms, before=None):
        """The split of the factored `iterate`, which holds `free_terms`
        z-free words: per component, its groups and its buckets at or above
        the cut of the split `before` (every bucket when there is none).
        Those below its own cut move to the final part it shares with
        `before`."""
        self.k = k
        self.exact = exact
        self._iterate = iterate
        self._free_terms = free_terms
        self._head = self._tail = None
        floor = min((ell + len(beta) for _, zwords in iterate for beta, ell in zwords), default=None)
        self.floor = floor
        # no word is longer than trunc, so with no z-word every bucket is final
        self._cut = cut = trunc + 1 if floor is None else floor
        if before is None:
            self._final = tuple({} for _ in iterate)
            head_degree, head_terms = NEG_INF, 0
        else:
            self._final = before._final
            head_degree, head_terms = before._head_degree, before.head_terms
        for (free, _), final in zip(iterate, self._final):
            for n in sorted(free) if free else ():
                if n >= cut:
                    break
                # another run on the same final part may have filed the same
                # bucket already: a final bucket is the same at every w
                final[n] = bucket = free.pop(n)
                head_terms += len(bucket)
                if n > head_degree:
                    head_degree = n
        self._head_degree = head_degree
        self.head_terms = head_terms

    @property
    def terms(self):
        return self._free_terms + sum(len(us) for _, zwords in self._iterate for us in zwords.values())

    def _heads(self):
        """Each component's final buckets below the cut: later steps, and
        runs resumed from this split, file buckets at or above it."""
        cut = self._cut
        return [[bucket for n, bucket in final.items() if n < cut] for final in self._final]

    @property
    def head(self):
        if self._head is None:
            self._head = tuple(FreePoly._raw(_words(buckets, {})) for buckets in self._heads())
        return self._head

    @property
    def tail(self):
        if self._tail is None:
            self._tail = tuple(FreePoly._raw(_words(free.values(), zwords)) for free, zwords in self._iterate)
        return self._tail

    def head_degree(self):
        return self._head_degree

    def _key(self):
        return (self.k, self.head, self.tail, self.floor, self.exact)

    def __eq__(self, other):
        if not isinstance(other, IterateSplit):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "IterateSplit(k={!r}, head={!r}, tail={!r}, floor={!r}, exact={!r})".format(*self._key())


def _file(words, bucket, zwords, first_z):
    """Add each term of `words` to its length bucket, bucket(n), if it is
    z-free, else to its group zwords[beta, l][u], where u is its z-free
    prefix of length l and beta the rest; a zero sum is dropped."""
    for w, c in words.items():
        m = first_z(w)
        if m is None:
            target = bucket(len(w))
        else:
            j = m.start()
            target = zwords.setdefault((w[j:], j), {})
            w = w[:j]
        prev = target.get(w)
        if prev is None:
            target[w] = c
        elif c := prev + c:
            target[w] = c
        else:
            del target[w]


def _factored(terms, first_z):
    """(free, zwords): the terms of a component filed by `_file`."""
    free = {}
    zwords = {}
    _file(terms, lambda n: free.setdefault(n, {}), zwords, first_z)
    return free, zwords


def _words(buckets, zwords):
    """The terms of the z-free `buckets` and of the groups `zwords`."""
    terms = {}
    for bucket in buckets:
        terms.update(bucket)
    for (beta, _), us in zwords.items():
        for u, c in us.items():
            terms[u + beta] = c
    return terms


def _step(system, split, trunc, first_z):
    """One composition step on the factored iterate T_k of `split`: T_{k+1}
    truncated at trunc, as the factored iterate for the next split and its
    number of z-free words.  The step takes the system side, a o T_k, when
    T_k has more than `_GROUPS_PER_TERM` (beta, l) groups per term of the
    system a, and the iterate side, T_k o a, otherwise: the system side
    expands each of a's few words once, the iterate side each group once.
    The module docstring gives the per-step timings behind the rule; the
    term count of a is kept by the system, so choosing costs one length per
    component."""
    groups = 0
    for _, zwords in split._iterate:
        groups += len(zwords)
    if groups > _GROUPS_PER_TERM * system.size:
        return _into_system(system, split, trunc, first_z)
    return _into_iterate(system.images, split, trunc, first_z)


def _into_system(system, split, trunc, first_z):
    """a o T_k: the components of T_k substituted into the z-slots of the
    system, one `substitute_tracked` call per component.  The buckets of
    T_{k+1} below T_k's cut are T_k's final ones, and are dropped."""
    cut = split._cut
    images = SubstitutionImages(
        {
            ("z", j + 1): FreePoly._raw(_words(chain(head, free.values()), zwords))
            for j, (head, (free, zwords)) in enumerate(zip(split._heads(), split._iterate))
        }
    )
    out = []
    free_terms = split.head_terms
    for comp in system.components:
        result, _ = substitute_tracked(comp, images, default_identity=True, trunc=trunc)
        free, zwords = _factored(result._terms, first_z)
        for n in [n for n in free if n < cut]:
            del free[n]
        free_terms += sum(map(len, free.values()))
        out.append((free, zwords))
    return tuple(out), free_terms


def _into_iterate(images, split, trunc, first_z):
    """T_k o a: the base system (as z-slot `images`) substituted into the
    z-slots of every group of T_k.

    Each (beta, l) group expands beta, truncated at trunc - l, by one call of
    `substitute_tracked` on the word beta, which reads the image from the
    image set's memo; the memo keeps it across l, steps and passes, and the
    step keeps no cache of its own.  A group with many prefixes u files tau
    with `_factored`, as T_1 is filed, and writes u tau straight into tau's
    buckets and groups, each length and prefix length shifted by l; `_mac`
    runs the prefixes in its inner loop when they outnumber a part's terms.
    A group with few would pay a target lookup per term of tau for one or two
    products, so its words go to one flat dict, which is split by first
    z-letter once all products (which often merge) are in.  Every word
    written is at least as long as T_k's floor, so only T_k's buckets at or
    above its cut are copied, and the count of z-free words changes by what
    the written buckets gained.
    """
    mac = FreePoly._mac
    out = []
    free_terms = split._free_terms
    for free, zwords in split._iterate:
        written = {}

        def bucket(n):
            # copy on write: an earlier split may still read the old bucket
            target = written.get(n)
            if target is None:
                target = written[n] = dict(free.get(n, ()))
            return target

        new_zwords = {}
        flat = {}
        for (beta, ell), us in zwords.items():
            tau, _ = substitute_tracked(FreePoly._raw({beta: 1}), images, default_identity=True, trunc=trunc - ell)
            if len(us) < _WIDE:
                mac(flat, us.items(), tau._terms.items())
                continue
            tau_free, tau_zwords = _factored(tau._terms, first_z)
            for n, part in tau_free.items():
                mac(bucket(ell + n), us.items(), part.items())
            for (suffix, j), part in tau_zwords.items():
                mac(new_zwords.setdefault((suffix, ell + j), {}), us.items(), part.items())
        _file(flat, bucket, new_zwords, first_z)
        new_free = dict(free)
        for n, target in written.items():
            free_terms += len(target) - len(free.get(n, ()))
            if target:
                new_free[n] = _settled(target)
            else:
                new_free.pop(n, None)
        out.append((new_free, {key: _settled(us) for key, us in new_zwords.items() if us}))
    return tuple(out), free_terms


# groups with fewer prefixes than this take the flat route in
# `_into_iterate`.  Both routes pay for themselves on the benchmark's
# workloads (CPython 3.11, 2-core VM, in process, summed invert time): with
# the flat route only, the negative invert jobs ran 2.5x slower, and with the
# wide route only, the tame invert jobs ran 12-13 % slower (over 30 % at p90)
_WIDE = 4

# `_step` takes a o T_k when T_k has more (beta, l) groups than this many per
# term of the system a
_GROUPS_PER_TERM = 2


def iterates(system, trunc: int, start: IterateSplit | None = None):
    """Yield the split of the k-th self-composition, truncated at degree
    `trunc`, for k = 1, 2, ...; `exact` stays True while no word was dropped.

    `start` resumes an earlier run on the same system: it must be an exact
    split, which is the untruncated iterate T_k and so the k-th iterate at
    every working degree, and the run steps it at `trunc` and yields from
    k + 1 on, the splits a fresh run at `trunc` would yield there.  An
    inexact `start` raises ValueError.  The resumed run shares the final
    buckets of the run it resumes.

    Runs on one `ProperAlgebraicSystem` share its image set and so its
    suffix memo; any other sequence of components gets a system of its own."""
    if not check_proper(system):
        raise ImproperSystem("system must be constant-term-free with z-degree floor > 1")
    if not isinstance(system, ProperAlgebraicSystem):
        system = ProperAlgebraicSystem(system)
    first_z = system.images.patterns()[0]
    degrees = system.images.degrees
    if start is None:
        comps = system.components
        current = tuple(c.truncate(trunc) for c in comps)
        exact = all(len(cur) == len(orig) for cur, orig in zip(current, comps))
        iterate = tuple(_factored(comp._terms, first_z) for comp in current)
        free_terms = sum(len(bucket) for free, _ in iterate for bucket in free.values())
        start = IterateSplit(1, iterate, exact, trunc, free_terms)
        yield start
    elif not start.exact:
        raise ValueError("a run can resume only from an exact split")
    split = start
    for k in count(start.k + 1):
        # the flag of each group (beta, l): deg(beta) > trunc - l
        exact = split.exact and not any(
            degrees(beta, True)[1] > trunc - ell for _, zwords in split._iterate for beta, ell in zwords
        )
        iterate, free_terms = _step(system, split, trunc, first_z)
        split = IterateSplit(k, iterate, exact, trunc, free_terms, split)
        yield split


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
    # row i of part_inv * f
    normalized = [sum(f_s * c for f_s, c in zip(f, row)) for row in part_inv]
    hatted = tuple(FreePoly.letter("z", i + 1) - n for i, n in enumerate(normalized))
    return solve_truncated(ProperAlgebraicSystem(hatted), trunc)
