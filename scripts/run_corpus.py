#!/usr/bin/env python3
"""Walk the bundled example corpus end to end and print every artifact:
Jacobians and their verified inverses, auxiliary systems, iterate splits,
inversion outcomes, injectivity tests, split-term representations, and the
exact collision witness for the dense non-injective map.
"""

import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from freeinv import (  # noqa: E402
    FreePoly,
    Hyporealization,
    MatrixTuple,
    ProperAlgebraicSystem,
    auxiliary_inverse,
    collision_check,
    format_poly,
    hypomatrix_rep,
    hyporational_eval,
    injectivity_test,
    invert,
    iterate_split,
    jacobian_extract,
    compose,
    parse_poly_map,
    random_matrix_tuple,
)
from freeinv.inverter import jacobian_gate  # noqa: E402

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)
x3 = FreePoly.letter("x", 3)


def show_map(name, p):
    print(f"\n=== {name} ===")
    for i, comp in enumerate(p):
        print(f"  p{i + 1} = {format_poly(comp)}")


def show_matrix(label, m):
    print(f"  {label}:")
    for row in m.entries:
        print("    [" + ", ".join(str(e) for e in row) + "]")


def run_invert(name, p, cap=None):
    show_map(name, p)
    t = time.time()
    out = invert(p, cap=cap)
    dt = time.time() - t
    print(f"  invert -> {out.outcome}"
          + (f" ({out.reason})" if out.reason else "")
          + f", {out.iterations} loops, B = {out.bound_B}, {dt:.2f}s")
    if out.is_inverse:
        for i, comp in enumerate(out.q):
            print(f"  q{i + 1} = {format_poly(comp)}")
    res = injectivity_test(p, cap=cap if out.is_indeterminate else None)
    print(f"  injectivity test -> {res.status} (cap {res.cap_used}, certified={res.certified})")
    return out


def main():
    # triangular map with quadratic twist
    run_invert("upper-triangular quadratic", (x1, x2 - x1**2))

    # composition of two elementary maps
    p = compose((x1, x2 + x1**2), (x1 + x2**2, x2))
    run_invert("composed elementary pair", p)

    # three-variable triangular map
    run_invert(
        "three-variable triangular",
        (x1, x2 - x1**2, x3 - x1 * x2 + x1**2 * x2 - x2**2),
    )

    # invertible Jacobian yet no polynomial inverse
    p = parse_poly_map(["x1", "x2 - x1*x2*x1"])
    show_map("sandwich map (not injective)", p)
    consts, jac = jacobian_extract(p)
    show_matrix("J", jac)
    j_inv = jacobian_gate(p)
    show_matrix("J^-1 (verified)", j_inv)
    system = auxiliary_inverse(p, j_inv)
    print("  auxiliary system:", [format_poly(c) for c in system.components])
    for k in (1, 2, 3, 5):
        split = iterate_split(system, k, 2 * k + 3)
        print(
            f"  k={k}: head = {[format_poly(c) for c in split.head]}, z-floor = {split.floor}"
        )
    out = invert(p)
    print(f"  invert (rigorous) -> {out.outcome} ({out.reason}) after {out.iterations} loops")

    # dense non-injective map: exact collision instead of the exponential loop
    p = (x1 + x1**2 + x2 * x1, x2 - x1**2 - x2 * x1)
    show_map("dense collapse map (not injective)", p)
    a = MatrixTuple(1, (((Fraction(-1, 2),),), ((Fraction(-1, 2),),)))
    b = MatrixTuple(1, (((Fraction(0),),), ((Fraction(-1),),)))
    print("  collision p(-1/2,-1/2) == p(0,-1):", collision_check(p, a, b))
    out = invert(p, cap=12, max_terms=50_000)
    print(f"  invert at cap 12 -> {out.outcome} ({out.reason}); see scripts/growth_profile.py")

    # split-term representation of the sandwich series
    z2 = FreePoly.letter("z", 2)
    real = Hyporealization.from_system(ProperAlgebraicSystem((x1, x2 + x1 * z2 * x1)))
    base, phi = hypomatrix_rep(real)
    print("\n=== split-term representation of the sandwich series ===")
    show_matrix("Phi", phi)
    import random

    rng = random.Random(1)
    n1 = tuple(
        tuple(Fraction(v) for v in row) for row in ((0, 1, 2), (0, 0, 3), (0, 0, 0))
    )
    X = MatrixTuple(3, (n1, random_matrix_tuple(rng, 1, 3)[0]))
    val = hyporational_eval(real, X, 1)
    print("  value at a nilpotent first coordinate:", [[str(e) for e in row] for row in val])


if __name__ == "__main__":
    main()
