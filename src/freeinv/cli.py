"""Command-line surface.

One result path: every `cmd_*` returns (payload, text lines, exit code) and
prints nothing, and `main` emits the result once -- the payload as JSON with
`--json`, else the lines -- to stdout or the `--out` file.  An end without a
result raises `Stop`, which carries its exit code and its exact stderr line;
`main` catches it once, and turns the input errors a command line can cause
(`ParseError`, `ArityMismatch`, `ImproperSystem`) into exit 2.

Exit codes: 0 mathematical success, 1 mathematical negative (not injective /
verification false), 2 input error (including a file that cannot be read or
written), 3 indeterminate (a cap or budget cut the search short of the
rigorous bound), 4 internal error (an uncaught exception; `run` prints its
traceback, or one line when memory ran out, and `main` lets it propagate).
`invert` and `check-injective` read theirs from one table, `EXIT_CODES`,
keyed by outcome or status.

The inversion loop follows the auxiliary-system iteration; the Jacobian gate
treats "no polynomial inverse of the Jacobian up to the rigorous degree cap"
as the non-injectivity certificate (the Jacobian of a polynomial map is itself
always polynomial; only its inverse can fail to be).
"""

from __future__ import annotations

import argparse
import json
import sys

# the modules every command runs; the others are imported by the commands
# that use them, so that `invert` loads only what it runs
from . import inverter, jacobian, linalg, parsing, sysolve
from .freealg import ArityMismatch, check_alphabet
from .parsing import ParseError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL_ERROR = 4

# the exit code of an `invert` outcome or a `check-injective` status
EXIT_CODES = {
    "inverse": EXIT_OK,
    "injective": EXIT_OK,
    "not-injective": EXIT_NEGATIVE,
    "indeterminate": EXIT_INDETERMINATE,
}

DEFAULT_CAP = 64
DEFAULT_MAX_TERMS = 200_000


class Stop(Exception):
    """A command ends without a result: `code` is its exit code and the
    message its stderr line."""

    def __init__(self, code, line):
        super().__init__(line)
        self.code = code


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
    out = json.dumps(payload, sort_keys=True) if args.json else "\n".join(text_lines)
    if not args.out:
        print(out)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    except OSError as exc:
        raise Stop(EXIT_INPUT_ERROR, f"error: cannot write --out file: {exc}") from exc


def _render_matrix(m):
    """A matrix as rows of entry strings, and as text lines `[a, b]`."""
    rows = [[str(e) for e in row] for row in m.entries]
    return rows, ["[" + ", ".join(row) + "]" for row in rows]


def _render_tuple(name, p):
    """A tuple of polynomials as strings, and as text lines `name1 = ...`."""
    strings = parsing.format_poly_map(p)
    return strings, [f"{name}{i} = {s}" for i, s in enumerate(strings, 1)]


def _verdict(outcome):
    """An `InversionOutcome` as a command result."""
    lines = [f"outcome: {outcome.outcome}"]
    if outcome.is_inverse:
        lines += _render_tuple("q", outcome.q)[1]
        lines.append(f"iterations: {outcome.iterations}")
    elif outcome.reason:
        lines.append(f"reason: {outcome.reason}")
    return outcome.to_jsonable(), lines, EXIT_CODES[outcome.outcome]


def cmd_invert(args):
    p = _parse_map(args.poly, args.g)
    cap = None if args.rigorous else args.cap
    return _verdict(inverter.invert(p, cap=cap, max_terms=args.max_terms or None))


def cmd_jacobian(args):
    p = _parse_map(args.poly, args.g, self_map=False)
    constants, jac = jacobian.jacobian_extract(p)
    constant = [str(c) for c in constants]
    rows, lines = _render_matrix(jac)
    return {"constant": constant, "jacobian": rows}, [f"constant: {constant}", *lines], EXIT_OK


def cmd_aux_iterate(args):
    p = _parse_map(args.poly, args.g)
    if any(comp.constant_term() for comp in p):
        raise Stop(EXIT_INPUT_ERROR, "error: map must have zero constant term")
    budget = args.max_terms or None
    out_of_budget = f"indeterminate: the term budget (--max-terms {args.max_terms}) ran out"
    j_inv = inverter.jacobian_gate(p, budget)
    if isinstance(j_inv, jacobian.NotPolyInvertible):
        if j_inv.reason == jacobian.REASON_TERM_BUDGET:
            raise Stop(EXIT_INDETERMINATE, f"{out_of_budget} while inverting the Jacobian")
        # a certified negative, reported as `invert` reports it
        return _verdict(inverter.gate_outcome(j_inv))
    system = inverter.auxiliary_inverse(p, j_inv)
    # the budget bounds every iterate on the way to the k-th, as in `invert`
    for split in sysolve.iterates(system, args.trunc):
        if budget is not None and split.terms > budget:
            raise Stop(EXIT_INDETERMINATE, f"{out_of_budget} at iterate {split.k}")
        if split.k == args.k:
            break
    floor = "inf" if split.floor is None and split.exact else (
        f">{args.trunc}" if split.floor is None else split.floor
    )
    head, head_lines = _render_tuple("head", split.head)
    tail, tail_lines = _render_tuple("tail", split.tail)
    payload = {"k": split.k, "head": head, "floor": floor, "tail": tail}
    return payload, [f"k = {split.k}", f"floor = {floor}", *head_lines, *tail_lines], EXIT_OK


def cmd_solve_system(args):
    system = sysolve.ProperAlgebraicSystem(parsing.parse_poly_map(args.poly))
    solution, lines = _render_tuple("s", sysolve.solve_truncated(system, args.trunc))
    return {"solution": solution}, lines, EXIT_OK


def cmd_derive(args):
    from . import deriv

    p = _parse_map(args.poly, args.g, self_map=False)
    derivative, lines = _render_tuple("D", deriv.derivative_map(p))
    return {"derivative": derivative}, lines, EXIT_OK


def cmd_scion(args):
    from . import deriv

    scion, lines = _render_tuple("F", deriv.scion(_parse_map(args.poly, args.g)))
    return {"scion": scion}, lines, EXIT_OK


def cmd_hypojac(args):
    from . import bipartite

    rows, lines = _render_matrix(bipartite.hypo_jacobian(_parse_map(args.poly, args.g)))
    return {"hypo_jacobian": rows}, lines, EXIT_OK


def cmd_check_injective(args):
    from . import bipartite

    p = _parse_map(args.poly, args.g)
    cap = None if args.rigorous else args.cap
    result = bipartite.injectivity_test(p, cap=cap, max_terms=args.max_terms or None)
    payload = {"status": result.status, "cap_used": result.cap_used, "certified": result.certified}
    if result.inverse is not None:
        payload["inverse"] = _render_matrix(result.inverse)[0]
    return payload, [f"status: {result.status} (cap {result.cap_used})"], EXIT_CODES[result.status]


def cmd_eval(args):
    from . import mateval

    # the point is checked before the map is parsed
    if not (args.at or args.at_file):
        raise Stop(EXIT_INPUT_ERROR, "error: eval requires --at or --at-file")
    p = _parse_map(args.poly, args.g, self_map=False)
    tuple_text = args.at
    if args.at_file:
        try:
            with open(args.at_file) as fh:
                tuple_text = fh.read()
        except OSError as exc:
            raise Stop(EXIT_INPUT_ERROR, f"error: cannot read --at-file: {exc}") from exc
    X = parsing.parse_matrix_tuple(tuple_text)
    if X.arity < args.g:
        raise Stop(EXIT_INPUT_ERROR, f"error: tuple has {X.arity} matrices but -g {args.g} was declared")
    values = [mateval.eval_poly(comp, X) for comp in p]
    if args.float:
        rendered = [[[_float_str(e) for e in row] for row in v] for v in values]
    else:
        rendered = [parsing.format_matrix(v) for v in values]
    return {"values": rendered}, [json.dumps(v) for v in rendered], EXIT_OK


def _float_str(value):
    """An exact scalar rounded to floats; complex only when its imaginary
    part is not exactly zero."""
    if value.imag:
        return repr(complex(value))
    return repr(float(value.real))


def cmd_verify(args):
    p = _parse_map(args.p, args.g)
    q = _parse_map(args.q, args.g)
    if not args.float:
        ok = inverter.verify_inverse(p, q)
        return {"inverse_pair": ok}, [f"inverse pair: {ok}"], EXIT_OK if ok else EXIT_NEGATIVE
    # one seeded 2x2 point, evaluated exactly; only the residual is a float
    import random  # only on this path, to keep start-up lean

    from . import mateval

    X = mateval.random_matrix_tuple(random.Random(args.seed), args.g, 2)
    resid = 0.0
    for outer, inner in ((p, q), (q, p)):
        inner_x = mateval.MatrixTuple(2, mateval.eval_poly_map(inner, X))
        for comp, target in zip(outer, X.mats):
            diff = linalg.sub(mateval.eval_poly(comp, inner_x), target)
            resid = max(resid, max(abs(complex(e)) for row in diff for e in row))
    ok = resid < 1e-9
    payload = {"inverse_pair": ok, "sampled_residual": resid}
    return payload, [f"inverse pair (sampled, tol 1e-9): {ok}"], EXIT_OK if ok else EXIT_NEGATIVE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freeinv",
        description="Exact inversion and injectivity testing of free (noncommutative) polynomial maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, cap=False):
        sp.add_argument("-g", type=_int_at_least(1), required=True, help="number of variables/components")
        sp.add_argument("poly", nargs="+", help="polynomial components, e.g. \"x2 - x1*x2*x1\"")
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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--float",
        action="store_true",
        help="sampled floating-point check at tolerance 1e-9 (convenience only)",
    )
    sp.set_defaults(fn=cmd_verify)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--out", help="write output to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = args.fn(args)
        _emit(args, payload, lines)
    except (ParseError, ArityMismatch, sysolve.ImproperSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Stop as stop:
        print(stop, file=sys.stderr)
        return stop.code
    return code


def run(argv=None) -> int:
    """Entry point of the `freeinv` command and `python -m freeinv`: `main`,
    with any uncaught exception printed as a traceback and reported as exit
    code 4 rather than escaping as exit 1, the "not injective" code.  Running
    out of memory prints one fixed line instead, once the exception and the
    frames that hold the command's data are released."""
    try:
        return main(argv)
    except MemoryError:
        pass
    except Exception:
        import traceback  # only on this path, to keep start-up lean

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    print("error: out of memory", file=sys.stderr)
    return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(run())
