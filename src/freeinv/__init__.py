"""freeinv: exact-arithmetic inversion of free (noncommutative) polynomial maps.

The package decides whether a polynomial map in freely noncommuting variables
is injective on matrix tuples of every size and, when it is, computes its
polynomial compositional inverse; every positive answer is verified by exact
composition, and evaluation on exact rational matrix tuples provides an
independent check of all identities involved.

`import freeinv` loads no submodule: each public name is imported from the
module that defines it on first use (PEP 562), so a command pays only for
the modules it runs.
"""

from importlib import import_module

# each defining module and the public names it gives the package
_EXPORTS = {
    "bipartite": "BipartiteMatrix BipartitePoly Hyporealization NotHyporealization "
    "bipartite_matrix_inverse hypo_jacobian hypomatrix_rep injectivity_test",
    "deriv": "derivative_map free_derivative scion",
    "freealg": "ArityMismatch FreePoly UnboundLetter compose identity_map rename_letters substitute swap_kinds",
    "inverter": "InversionOutcome auxiliary_inverse inverse_degree_bound invert verify_inverse",
    "jacobian": "NotPolyInvertible PolyMatrix jacobian_extract pmid_bound pmid_f poly_matrix_inverse",
    "mateval": "MatrixTuple SizeMismatch UndefinedEvaluation block_derivative_check collision_check "
    "eval_bipartite eval_bipartite_matrix eval_poly eval_poly_map hyporational_eval random_matrix_tuple vec",
    "parsing": "ParseError format_bipartite format_poly format_poly_map parse_bipartite parse_matrix_tuple "
    "parse_poly parse_poly_map",
    "scalars": "GaussianRational",
    "sysolve": "ImproperSystem IterateSplit NonzeroConstant ProperAlgebraicSystem SingularLinearPart "
    "check_proper implicit_solve iterate_split iterates solve_truncated",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
