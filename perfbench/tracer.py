"""Outside-in tracing of freeinv: spans and counts recorded by wrapping the
module attributes the decision path looks up at call time.

Nothing in `src/` changes.  A wrapper replaces, for example,
`freeinv.sysolve.substitute_tracked`, which is the binding the iteration step
calls, so only calls through that binding are seen.  An attribute a later
version of the program no longer has is skipped and listed in
`Tracer.missing`; its metrics then read 0.

Spans are kept in memory as (name, start, end, parent, job) and written out
by `Tracer.dump`.  A layer is the part of a span name before the first dot;
its self time is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name) for every timed boundary
SPANS = (
    ("inverter", "invert", "inverter.invert"),
    ("inverter", "poly_matrix_inverse", "jacobian.inverse"),
    ("inverter", "verify_inverse", "inverter.verify"),
    ("sysolve", "substitute_tracked", "sysolve.step"),
    ("freealg", "substitute", "freealg.substitute"),
    ("bipartite", "injectivity_test", "bipartite.injectivity_test"),
    ("bipartite", "bipartite_matrix_inverse", "bipartite.inverse"),
    ("bipartite", "hypo_jacobian", "bipartite.hypo_jacobian"),
    ("bipartite", "free_derivative", "deriv.derivative"),
    ("mateval", "eval_poly", "mateval.eval"),
    ("parsing", "parse_poly", "parsing.parse"),
    ("parsing", "format_poly", "parsing.format"),
    ("cli", "main", "cli.main"),
)

# (module, dotted attribute, counter name) for calls that are counted only
COUNTS = (
    ("scalars", "GaussianRational.__mul__", "scalars.mul_ops"),
    ("scalars", "GaussianRational.__rmul__", "scalars.mul_ops"),
    ("scalars", "GaussianRational.__add__", "scalars.add_ops"),
    ("scalars", "GaussianRational.__radd__", "scalars.add_ops"),
    ("freealg", "FreePoly.__mul__", "freealg.poly_mul_calls"),
    ("jacobian", "PolyMatrix.__mul__", "jacobian.matmul_calls"),
    ("bipartite", "BipartiteMatrix.__mul__", "bipartite.matmul_calls"),
)

LAYERS = ("inverter", "jacobian", "sysolve", "freealg", "bipartite", "deriv", "mateval", "parsing", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.counts = Counter()
        self.missing = []
        self.job = None
        self._stack = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _split_counter(self, fn):
        counts = self.counts

        def wrapper(components, k, exact):
            counts["inverter.iterations"] += 1
            if k == 1:
                counts["inverter.passes"] += 1
            return fn(components, k, exact)

        return wrapper

    def install(self, package):
        """Wrap every boundary of `package` (the imported freeinv)."""
        import importlib

        def resolve(module, dotted):
            try:
                owner = importlib.import_module(f"{package.__name__}.{module}")
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                return owner, attr, getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{dotted}")
                return None

        for module, attr, name in SPANS:
            found = resolve(module, attr)
            if found:
                owner, attr, fn = found
                setattr(owner, attr, self._span(name, fn))
        for module, dotted, name in COUNTS:
            found = resolve(module, dotted)
            if found:
                owner, attr, fn = found
                setattr(owner, attr, self._count(name, fn))
        # inverter's loop calls _split once per iteration, with k = 1 at the
        # start of every working-degree pass
        found = resolve("inverter", "_split")
        if found:
            owner, attr, fn = found
            setattr(owner, attr, self._split_counter(fn))

    # -- results ---------------------------------------------------------------

    def metrics(self):
        total = defaultdict(float)
        calls = Counter()
        self_s = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name.split(".")[0]] += end - start - child[idx]
        c = self.counts
        out = {
            "scalars.mul_ops": c["scalars.mul_ops"],
            "scalars.add_ops": c["scalars.add_ops"],
            "freealg.poly_mul_calls": c["freealg.poly_mul_calls"],
            "freealg.substitute_calls": calls["freealg.substitute"],
            "freealg.substitute_s": total["freealg.substitute"],
            "jacobian.inverse_calls": calls["jacobian.inverse"],
            "jacobian.inverse_s": total["jacobian.inverse"],
            "jacobian.matmul_calls": c["jacobian.matmul_calls"],
            "sysolve.step_calls": calls["sysolve.step"],
            "sysolve.step_s": total["sysolve.step"],
            "sysolve.step_terms_out": c["sysolve.step_terms_out"],
            "sysolve.step_dropped": c["sysolve.step_dropped"],
            "inverter.verify_calls": calls["inverter.verify"],
            "inverter.verify_ok": c["inverter.verify_ok"],
            "inverter.verify_useful_ratio": (
                c["inverter.verify_ok"] / calls["inverter.verify"] if calls["inverter.verify"] else 0.0
            ),
            "inverter.verify_s": total["inverter.verify"],
            "inverter.passes": c["inverter.passes"],
            "inverter.iterations": c["inverter.iterations"],
            "bipartite.inverse_s": total["bipartite.inverse"],
            "bipartite.matmul_calls": c["bipartite.matmul_calls"],
            "bipartite.hypo_jacobian_s": total["bipartite.hypo_jacobian"],
            "deriv.derivative_s": total["deriv.derivative"],
            "mateval.eval_calls": calls["mateval.eval"],
            "mateval.eval_s": total["mateval.eval"],
            "parsing.parse_s": total["parsing.parse"],
            "parsing.format_s": total["parsing.format"],
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")


def _observe_step(counts, args, result):
    poly, dropped = result
    counts["sysolve.step_terms_out"] += len(poly)
    counts["sysolve.step_dropped"] += bool(dropped)


def _observe_verify(counts, args, result):
    counts["inverter.verify_ok"] += bool(result)


_OBSERVERS = {"sysolve.step": _observe_step, "inverter.verify": _observe_verify}
