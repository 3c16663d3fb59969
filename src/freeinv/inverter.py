"""Decision procedure: polynomial inverse of a free polynomial map, or a
certificate that none exists.

The driver inverts the left Jacobian (a polynomial inverse must exist for an
injective map), forms the induced proper system x * Jinv(z), and iterates its
self-composition.  The split heads converge to the unique compositional
inverse; a degree gap (head degree times deg p below the z-degree floor)
certifies that the head *is* the full inverse, while a head degree above the
bound B = 3^g (g!)^3 (deg p - 1) + 1 certifies that no polynomial inverse
exists.  Every positive answer is re-verified by exact two-sided composition
before being returned.

The working degree w escalates geometrically up to the requested cap.  A
decision is final when no word has been dropped yet (the iterates at w are
then those at every larger w) or when w is the cap; only a final decision
may end the search without an inverse, and it reports the cap.  Positives
report the w of their own pass, and a term-budget exit ends the search at
its own w.

A pass that must escalate hands the next pass its last exact split, and the
next pass resumes the iteration after it instead of replaying its steps.
That is sound because an exact split is the untruncated iterate, the same at
every w, and its decision does not read w: for it `final` and the floor-None
gap are both True, and every other test reads only the split and the state
(the last head degree and the head size at the last attempt) that the splits
before it left.  So splits 1..k' of the pass at 2w would decide as the pass
at w did, none of them ending the search, and leave the same state, which
the pass at w hands on with the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .freealg import (
    NEG_INF,
    ArityMismatch,
    FreePoly,
    check_alphabet,
    compose,
    encode_letter,
    identity_map,
    map_degree,
)
from .jacobian import (
    REASON_SINGULAR_CONSTANT,
    REASON_TERM_BUDGET,
    NotPolyInvertible,
    PolyMatrix,
    check_limits,
    jacobian_extract,
    pmid_bound,
    poly_matrix_inverse,
    rigorous_cap,
)
from .sysolve import ProperAlgebraicSystem, check_proper, iterates

OUTCOME_INVERSE = "inverse"
OUTCOME_NOT_INJECTIVE = "not-injective"
OUTCOME_INDETERMINATE = "indeterminate"

REASON_SINGULAR_JACOBIAN_CONSTANT = "singular-jacobian-constant"
REASON_JACOBIAN_NOT_POLY_INVERTIBLE = "jacobian-not-poly-invertible"
REASON_DEGREE_EXCEEDED = "degree-exceeded"
REASON_ITERATION_EXCEEDED = "iteration-exceeded"
REASON_CAP = "cap-exceeded"


def jacobian_gate(p0, max_terms=None):
    """Verified inverse of the left Jacobian of the constant-free map p0 at the
    rigorous cap, or NotPolyInvertible (a proof of non-injectivity unless the
    term budget cut it short)."""
    _, jac = jacobian_extract(p0)
    return poly_matrix_inverse(jac, rigorous_cap(jac), max_terms=max_terms)


def auxiliary_inverse(p, j_inv: PolyMatrix):
    """Build the proper algebraic system x * Jinv(z) from a verified inverse Jacobian:
    component j is {x_s + w(z): c} over s and the terms w(x) c of Jinv[s][j], built in
    one pass, since distinct (s, w) give distinct words and nothing is summed."""
    g = len(p)
    check_alphabet(p, g)
    if any(comp.constant_term() for comp in p):
        raise ValueError("auxiliary inverse requires a map without constant term")
    to_z = {ord(encode_letter(("x", i + 1))): encode_letter(("z", i + 1)) for i in range(g)}
    xs = [encode_letter(("x", s + 1)) for s in range(j_inv.rows)]
    system = ProperAlgebraicSystem(
        FreePoly._raw({x + w.translate(to_z): c for x, e in zip(xs, col) for w, c in e._terms.items()})
        for col in zip(*j_inv.entries)
    )
    if not check_proper(system):
        raise ValueError("auxiliary inverse failed the proper-system invariants")
    return system


def gate_outcome(failure) -> InversionOutcome:
    """The answer of `invert` when the Jacobian gate returns the
    NotPolyInvertible `failure`: not injective, or indeterminate when the
    term budget cut the gate short."""
    if failure.reason == REASON_SINGULAR_CONSTANT:
        return InversionOutcome(OUTCOME_NOT_INJECTIVE, reason=REASON_SINGULAR_JACOBIAN_CONSTANT)
    if failure.reason == REASON_TERM_BUDGET:
        return InversionOutcome(OUTCOME_INDETERMINATE, reason=REASON_TERM_BUDGET, cap_used=failure.cap)
    return InversionOutcome(OUTCOME_NOT_INJECTIVE, reason=REASON_JACOBIAN_NOT_POLY_INVERTIBLE)


def inverse_degree_bound(g: int, deg_p: int) -> int:
    """Upper bound B on the degree of a polynomial inverse of a degree-deg_p map."""
    if deg_p < 1:
        raise ValueError("deg_p must be >= 1")
    return pmid_bound(g, deg_p - 1) + 1


@dataclass(frozen=True)
class InversionOutcome:
    outcome: str
    q: tuple | None = None
    iterations: int | None = None
    reason: str | None = None
    bound_B: int | None = None
    cap_used: int | None = None

    @property
    def is_inverse(self):
        return self.outcome == OUTCOME_INVERSE

    @property
    def is_not_injective(self):
        return self.outcome == OUTCOME_NOT_INJECTIVE

    @property
    def is_indeterminate(self):
        return self.outcome == OUTCOME_INDETERMINATE

    def to_jsonable(self):
        from .parsing import format_poly

        data = {"outcome": self.outcome}
        if self.q is not None:
            data["q"] = [format_poly(comp) for comp in self.q]
        for field in ("iterations", "bound_B", "cap_used", "reason"):
            value = getattr(self, field)
            if value is not None:
                data[field] = value
        return data


def verify_inverse(p, q) -> bool:
    """True iff p(q(x)) = x = q(p(x)) as exact polynomial identities."""
    if len(p) != len(q):
        raise ArityMismatch("p and q must have the same number of components")
    ident = identity_map(len(p))
    return compose(p, q) == ident and compose(q, p) == ident


def _restore_constant(q0, constants):
    """Turn an inverse of p - p(0) into an inverse of p via x -> x - p(0)."""
    if not any(constants):
        return q0
    return compose(q0, tuple(x - c for x, c in zip(identity_map(len(constants)), constants)))


def invert(p, cap: int | None = None, max_terms: int | None = None) -> InversionOutcome:
    """Return a verified polynomial inverse of p, certify that none exists, or
    report indeterminate when a user cap/budget cut the search short.

    With cap=None the rigorous working degree B*deg(p)+1 is used; negative
    outcomes are then certificates.  Any smaller cap downgrades would-be
    negatives to indeterminate; positive outcomes are sound under every cap
    because they are re-verified by exact composition.
    """
    check_limits(cap, max_terms)
    p = tuple(p)
    g = len(p)
    check_alphabet(p, g)

    constants = tuple(comp.constant_term() for comp in p)
    # p - p(0): every word but the empty one, with its coefficient
    p0 = tuple(FreePoly._raw({w: c for w, c in comp._terms.items() if w}) for comp in p)

    j_inv = jacobian_gate(p0, max_terms)
    if isinstance(j_inv, NotPolyInvertible):
        return gate_outcome(j_inv)

    # an inverted Jacobian is nonzero, so p0 has degree >= 1
    deg_p = int(map_degree(p0))
    system = auxiliary_inverse(p0, j_inv)
    bound = inverse_degree_bound(g, deg_p)
    w_rig = bound * deg_p + 1
    w_outer = w_rig if cap is None else min(cap, w_rig)
    rigorous = w_outer == w_rig
    outcome = partial(InversionOutcome, bound_B=bound)
    capped = partial(outcome, OUTCOME_INDETERMINATE, reason=REASON_CAP, cap_used=w_outer)

    def run(w, start=None, prev_head_deg=None, last_attempt=None):
        """One pass of the iteration at working degree w, resumed after the
        exact split `start` with the state the pass that yielded it had
        there.  Returns the answer, or asks for a larger w by returning the
        record (split, prev_head_deg, last_attempt) of the last exact split
        so far, the one it was given if this pass yielded none."""
        resume = (start, prev_head_deg, last_attempt)
        for split in iterates(system, w, start):
            k = split.k
            # an exact split is the untruncated iterate, so every decision up
            # to here is the one the pass at w_outer would make
            final = split.exact or w == w_outer
            if max_terms is not None and split.terms > max_terms:
                return outcome(
                    OUTCOME_INDETERMINATE, iterations=k, reason=REASON_TERM_BUDGET, cap_used=w
                )
            head_deg = split.head_degree()
            head_deg_int = 0 if head_deg == NEG_INF else int(head_deg)
            if head_deg_int > bound or k > bound:
                if not final:
                    return resume
                if not rigorous:
                    return capped(iterations=k)
                reason = (
                    REASON_DEGREE_EXCEEDED if head_deg_int > bound else REASON_ITERATION_EXCEEDED
                )
                return outcome(OUTCOME_NOT_INJECTIVE, iterations=k, reason=reason, cap_used=w_outer)
            # the degree-gap exit: the head is provably the full inverse here
            if split.floor is None:
                gap = split.exact or head_deg_int * deg_p <= w
            else:
                gap = head_deg_int * deg_p < split.floor
            # a stabilized head degree suggests the head has converged; trying it
            # early is unconditionally sound because of the exact verification
            attempt = gap or (prev_head_deg == head_deg_int)
            # the head only grows (its words are final), so a head with as
            # many words as at the last attempt is that head
            if attempt and split.head_terms != last_attempt:
                last_attempt = split.head_terms
                q = _restore_constant(split.head, constants)
                if verify_inverse(p, q):
                    return outcome(OUTCOME_INVERSE, q=q, iterations=k, cap_used=w)
            if gap and final and rigorous:
                raise RuntimeError(
                    "internal error: a degree-gap candidate failed exact verification "
                    "at the rigorous working degree"
                )
            if split.floor is None:
                # no z-words below the working degree: the iteration is now
                # stationary, so nothing further can be learned at this cap
                return capped(iterations=k) if final else resume
            prev_head_deg = head_deg_int
            if split.exact:
                resume = (split, prev_head_deg, last_attempt)

    # escalate the working degree: positive answers are cap-independent (they
    # are verified by exact composition), so cheap passes go first; a budget
    # exit ends the search at its own w, and any other answer needs a final
    # pass, which resumes after the last exact split of the pass before it
    w = min(8, w_outer)
    resume = ()
    while not isinstance(answer := run(w, *resume), InversionOutcome):
        resume = answer
        w = min(2 * w, w_outer)
    return answer
