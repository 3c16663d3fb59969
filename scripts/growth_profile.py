#!/usr/bin/env python3
"""Profile the dense worst case of the inversion loop.

The map (x1 + x1^2 + x2*x1, x2 - x1^2 - x2*x1) has an invertible Jacobian, so
the decision falls to the auxiliary iteration, whose heads contain the full
expansion of (x1+x2)^k: term counts double every loop.  The degree bound for
this map is B = 73, so the negative certificate needs loop k = 74 and about
2^74 stored words; this script prints the measured doubling and the projected
cost, which is why the suite certifies this map through its exact collision
instead.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from freeinv import (  # noqa: E402
    FreePoly,
    auxiliary_inverse,
    inverse_degree_bound,
    iterates,
)
from freeinv.inverter import jacobian_gate  # noqa: E402

x1 = FreePoly.letter("x", 1)
x2 = FreePoly.letter("x", 2)


def main():
    p = (x1 + x1**2 + x2 * x1, x2 - x1**2 - x2 * x1)
    j_inv = jacobian_gate(p)
    system = auxiliary_inverse(p, j_inv)
    bound = inverse_degree_bound(2, 2)
    w = bound * 2 + 1
    print(f"degree bound B = {bound}; decision loop k = {bound + 1}; working degree {w}")
    print(f"{'k':>3} {'terms':>10} {'head deg':>9} {'z-floor':>8} {'step time':>10}")
    t = time.time()
    # the time on row k is the step that built iterate k (row 1: the truncation)
    for split in iterates(system, w):
        dt = time.time() - t
        total = split.terms
        print(f"{split.k:>3} {total:>10} {int(split.head_degree()):>9} {split.floor!s:>8} {dt:>9.2f}s")
        k = split.k + 1
        if total > 200_000 or k > bound:
            break
        t = time.time()
    if k <= bound:
        doubles = bound + 1 - k
        print(
            f"stopped at k = {k}: term counts double per loop, so loop {bound + 1} "
            f"would need ~2^{doubles} times more storage (~2^{bound + 1} words total)"
        )


if __name__ == "__main__":
    main()
