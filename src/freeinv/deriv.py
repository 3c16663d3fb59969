"""Formal directional derivative and the doubled-variables linearization map.

The derivative sends a word w = x_{i1}...x_{im} to the sum of the m words
obtained by replacing one letter x_{ij} with the direction letter y_{ij}; it
is linear, satisfies the product rule, and its output is y-linear (every word
carries exactly one y-letter).
"""

from __future__ import annotations

from .freealg import FreePoly, decode_letter, encode_letter, swap_kinds


def free_derivative(f: FreePoly, *, base_kind="x", direction_kind="y") -> FreePoly:
    """Directional derivative; constants map to 0."""
    # the direction letter of every base letter that occurs
    direction = {}
    for ch in set().union(*f._terms):
        kind, idx = decode_letter(ch)
        if kind == base_kind:
            direction[ch] = encode_letter((direction_kind, idx))
    out = {}
    for w, c in f._terms.items():
        for pos, ch in enumerate(w):
            if ch not in direction:
                kind, idx = decode_letter(ch)
                raise ValueError(
                    f"free_derivative expects {base_kind}-letters only, found {kind}{idx}"
                )
            nw = w[:pos] + direction[ch] + w[pos + 1 :]
            prev = out.get(nw)
            out[nw] = c if prev is None else prev + c
    return FreePoly._summed(out)


def derivative_map(p):
    return tuple(free_derivative(comp) for comp in p)


def scion(p):
    """The 2g-component map (Dp with base letters y and direction letters x, then y).

    The first block is x-linear; the trailing block returns the base point.
    """
    g = len(p)
    first = tuple(swap_kinds(free_derivative(comp), "x", "y") for comp in p)
    second = tuple(FreePoly.letter("y", i + 1) for i in range(g))
    return first + second
