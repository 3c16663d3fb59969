"""Command-line surface.

Exit codes: 0 mathematical success, 1 mathematical negative (not injective /
verification false), 2 input error (including a file that cannot be read or
written), 3 indeterminate (a cap or budget cut the search short of the
rigorous bound), 4 internal error (an uncaught exception; `run` prints its
traceback, `main` lets it propagate).

The inversion loop follows the auxiliary-system iteration; the Jacobian gate
treats "no polynomial inverse of the Jacobian up to the rigorous degree cap"
as the non-injectivity certificate (the Jacobian of a polynomial map is itself
always polynomial; only its inverse can fail to be).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bipartite, deriv, inverter, jacobian, linalg, mateval, parsing, sysolve
from .freealg import ArityMismatch, UnboundLetter, check_alphabet
from .parsing import ParseError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL_ERROR = 4

DEFAULT_CAP = 64
DEFAULT_MAX_TERMS = 200_000


class FileAccessError(Exception):
    """A file named on the command line cannot be read or written."""


def _parse_map(strings, g, self_map=True):
    """Parse the components over x1..xg; a self-map must have exactly g of them."""
    p = parsing.parse_poly_map(strings)
    if self_map and len(p) != g:
        raise ArityMismatch(f"-g {g} needs {g} components, got {len(p)}")
    check_alphabet(p, g)
    return p


def _int_at_least(low):
    """argparse type: an integer >= low."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _emit(args, payload, text_lines):
    if args.json:
        out = json.dumps(payload, indent=None, sort_keys=True)
    else:
        out = "\n".join(text_lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise FileAccessError(f"cannot write --out file: {exc}") from exc
    else:
        print(out)


def _matrix_payload(m):
    return [[str(e) for e in row] for row in m.entries]


def _matrix_lines(rows):
    return ["[" + ", ".join(row) + "]" for row in rows]


def cmd_invert(args):
    p = _parse_map(args.poly, args.g)
    cap = None if args.rigorous else args.cap
    outcome = inverter.invert(p, cap=cap, max_terms=args.max_terms or None)
    payload = outcome.to_jsonable()
    lines = [f"outcome: {outcome.outcome}"]
    if outcome.is_inverse:
        for i, comp in enumerate(outcome.q):
            lines.append(f"q{i + 1} = {parsing.format_poly(comp)}")
        lines.append(f"iterations: {outcome.iterations}")
    elif outcome.reason:
        lines.append(f"reason: {outcome.reason}")
    _emit(args, payload, lines)
    if outcome.is_inverse:
        return EXIT_OK
    if outcome.is_not_injective:
        return EXIT_NEGATIVE
    return EXIT_INDETERMINATE


def cmd_jacobian(args):
    p = _parse_map(args.poly, args.g, self_map=False)
    constants, jac = jacobian.jacobian_extract(p)
    payload = {
        "constant": [str(c) for c in constants],
        "jacobian": _matrix_payload(jac),
    }
    lines = [f"constant: {payload['constant']}"] + _matrix_lines(payload["jacobian"])
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_aux_iterate(args):
    p = _parse_map(args.poly, args.g)
    constants = [comp.constant_term() for comp in p]
    if any(constants):
        print("error: map must have zero constant term", file=sys.stderr)
        return EXIT_INPUT_ERROR
    budget = args.max_terms or None
    out_of_budget = f"indeterminate: the term budget (--max-terms {args.max_terms}) ran out"
    j_inv = inverter.jacobian_gate(p, budget)
    if isinstance(j_inv, jacobian.NotPolyInvertible):
        if j_inv.reason == jacobian.REASON_TERM_BUDGET:
            print(f"{out_of_budget} while inverting the Jacobian", file=sys.stderr)
            return EXIT_INDETERMINATE
        print(f"error: Jacobian not polynomially invertible ({j_inv.reason})", file=sys.stderr)
        return EXIT_NEGATIVE
    system = jacobian.auxiliary_inverse(p, j_inv)
    # the budget bounds every iterate on the way to the k-th, as in `invert`
    for split in sysolve.iterates(system, args.trunc):
        if budget is not None and split.terms > budget:
            print(f"{out_of_budget} at iterate {split.k}", file=sys.stderr)
            return EXIT_INDETERMINATE
        if split.k == args.k:
            break
    floor = "inf" if split.floor is None and split.exact else (
        f">{args.trunc}" if split.floor is None else split.floor
    )
    payload = {
        "k": split.k,
        "head": parsing.format_poly_map(split.head),
        "floor": floor,
        "tail": parsing.format_poly_map(split.tail),
    }
    lines = [f"k = {split.k}", f"floor = {floor}"]
    lines += [f"head{i + 1} = {s}" for i, s in enumerate(payload["head"])]
    lines += [f"tail{i + 1} = {s}" for i, s in enumerate(payload["tail"])]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_solve_system(args):
    comps = parsing.parse_poly_map(args.poly)
    system = sysolve.ProperAlgebraicSystem(comps)
    solution = sysolve.solve_truncated(system, args.trunc)
    payload = {"solution": parsing.format_poly_map(solution)}
    lines = [f"s{i + 1} = {s}" for i, s in enumerate(payload["solution"])]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_derive(args):
    p = _parse_map(args.poly, args.g, self_map=False)
    d = deriv.derivative_map(p)
    payload = {"derivative": parsing.format_poly_map(d)}
    lines = [f"D{i + 1} = {s}" for i, s in enumerate(payload["derivative"])]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_scion(args):
    p = _parse_map(args.poly, args.g)
    f = deriv.scion(p)
    payload = {"scion": parsing.format_poly_map(f)}
    lines = [f"F{i + 1} = {s}" for i, s in enumerate(payload["scion"])]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_hypojac(args):
    p = _parse_map(args.poly, args.g)
    hj = bipartite.hypo_jacobian(p)
    payload = {"hypo_jacobian": _matrix_payload(hj)}
    _emit(args, payload, _matrix_lines(payload["hypo_jacobian"]))
    return EXIT_OK


def cmd_check_injective(args):
    p = _parse_map(args.poly, args.g)
    cap = None if args.rigorous else args.cap
    result = bipartite.injectivity_test(p, cap=cap, max_terms=args.max_terms or None)
    payload = {"status": result.status, "cap_used": result.cap_used, "certified": result.certified}
    if result.inverse is not None:
        payload["inverse"] = _matrix_payload(result.inverse)
    lines = [f"status: {result.status} (cap {result.cap_used})"]
    _emit(args, payload, lines)
    if result.status == "injective":
        return EXIT_OK
    if result.status == "not-injective":
        return EXIT_NEGATIVE
    return EXIT_INDETERMINATE


def cmd_eval(args):
    p = _parse_map(args.poly, args.g, self_map=False)
    if args.at_file:
        try:
            with open(args.at_file) as fh:
                tuple_text = fh.read()
        except OSError as exc:
            raise FileAccessError(f"cannot read --at-file: {exc}") from exc
    else:
        tuple_text = args.at
    X = parsing.parse_matrix_tuple(tuple_text)
    if X.arity < args.g:
        print(
            f"error: tuple has {X.arity} matrices but -g {args.g} was declared",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    values = [mateval.eval_poly(comp, X) for comp in p]
    if args.float:
        rendered = [[[_float_str(e) for e in row] for row in v] for v in values]
    else:
        rendered = [parsing.format_matrix(v) for v in values]
    payload = {"values": rendered}
    lines = [json.dumps(v) for v in rendered]
    _emit(args, payload, lines)
    return EXIT_OK


def _float_str(value):
    """An exact scalar rounded to floats; complex only when its imaginary
    part is not exactly zero."""
    if value.imag:
        return repr(complex(value))
    return repr(float(value.real))


def cmd_verify(args):
    p = _parse_map(args.p, args.g)
    q = _parse_map(args.q, args.g)
    if args.float:
        # one seeded 2x2 point, evaluated exactly; only the residual is a float
        import random  # only on this path, to keep start-up lean

        X = mateval.random_matrix_tuple(random.Random(args.seed), args.g, 2)
        resid = 0.0
        for outer, inner in ((p, q), (q, p)):
            inner_x = mateval.MatrixTuple(2, mateval.eval_poly_map(inner, X))
            for comp, target in zip(outer, X.mats):
                diff = linalg.sub(mateval.eval_poly(comp, inner_x), target)
                resid = max(resid, max(abs(complex(e)) for row in diff for e in row))
        ok = resid < 1e-9
        payload = {"inverse_pair": ok, "sampled_residual": resid}
        _emit(args, payload, [f"inverse pair (sampled, tol 1e-9): {ok}"])
        return EXIT_OK if ok else EXIT_NEGATIVE
    ok = inverter.verify_inverse(p, q)
    payload = {"inverse_pair": ok}
    _emit(args, payload, [f"inverse pair: {ok}"])
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freeinv",
        description="Exact inversion and injectivity testing of free (noncommutative) polynomial maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, polys="poly", cap=False):
        sp.add_argument("-g", type=_int_at_least(1), required=True, help="number of variables/components")
        sp.add_argument(polys, nargs="+", help="polynomial components, e.g. \"x2 - x1*x2*x1\"")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--out", help="write output to a file instead of stdout")
        if cap:
            sp.add_argument(
                "--cap",
                type=_int_at_least(0),
                default=DEFAULT_CAP,
                help="working-degree cap (default 64)",
            )
            sp.add_argument(
                "--rigorous",
                action="store_true",
                help="use the full rigorous degree bound (may be very slow)",
            )
            sp.add_argument(
                "--max-terms",
                type=_int_at_least(0),
                default=DEFAULT_MAX_TERMS,
                help="abort to 'indeterminate' beyond this many stored terms (0 = unlimited)",
            )

    sp = sub.add_parser("invert", help="compute a verified polynomial inverse or certify none exists")
    common(sp, cap=True)
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("jacobian", help="constant part and left Jacobian matrix")
    common(sp)
    sp.set_defaults(fn=cmd_jacobian)

    sp = sub.add_parser("aux-iterate", help="k-th self-composition of the auxiliary system, split at its z-floor")
    common(sp)
    sp.add_argument("-k", type=_int_at_least(1), required=True)
    sp.add_argument(
        "--trunc", type=_int_at_least(1), default=DEFAULT_CAP, help="working truncation degree"
    )
    sp.add_argument("--max-terms", type=_int_at_least(0), default=DEFAULT_MAX_TERMS)
    sp.set_defaults(fn=cmd_aux_iterate)

    sp = sub.add_parser("solve-system", help="truncated fixed point of a proper system over x and z")
    sp.add_argument("poly", nargs="+", help="system components over x1.. and z1..")
    sp.add_argument("--trunc", type=_int_at_least(1), default=8)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_solve_system)

    sp = sub.add_parser("derive", help="formal directional derivative (direction letters y)")
    common(sp)
    sp.set_defaults(fn=cmd_derive)

    sp = sub.add_parser("scion", help="doubled-variables linearization (2g components over x and y)")
    common(sp)
    sp.set_defaults(fn=cmd_scion)

    sp = sub.add_parser("hypojac", help="packed-derivative matrix over the split ring")
    common(sp)
    sp.set_defaults(fn=cmd_hypojac)

    sp = sub.add_parser("check-injective", help="matrix-form injectivity test")
    common(sp, cap=True)
    sp.set_defaults(fn=cmd_check_injective)

    sp = sub.add_parser("eval", help="evaluate components on an exact matrix tuple")
    common(sp)
    sp.add_argument("--at", help="JSON matrix tuple")
    sp.add_argument("--at-file", help="file containing a JSON matrix tuple")
    sp.add_argument("--float", action="store_true", help="floating-point output (convenience only)")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("verify", help="check that two maps are exact compositional inverses")
    sp.add_argument("-g", type=_int_at_least(1), required=True)
    sp.add_argument("--p", nargs="+", required=True)
    sp.add_argument("--q", nargs="+", required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--float",
        action="store_true",
        help="sampled floating-point check at tolerance 1e-9 (convenience only)",
    )
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fn", None) is cmd_eval and not (args.at or args.at_file):
        print("error: eval requires --at or --at-file", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.fn(args)
    except (ParseError, UnboundLetter, ArityMismatch, mateval.SizeMismatch, sysolve.ImproperSystem,
            sysolve.SingularLinearPart, sysolve.NonzeroConstant, FileAccessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run(argv=None) -> int:
    """Entry point of the `freeinv` command and `python -m freeinv`: `main`,
    with any uncaught exception printed as a traceback and reported as exit
    code 4 rather than escaping as exit 1, the "not injective" code."""
    try:
        return main(argv)
    except Exception:
        import traceback  # only on this path, to keep start-up lean

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(run())
