"""Spans and counters recorded around calls into ``cosetalg``'s public functions.

The package itself records nothing; the benchmark patches the public names
listed in ``install``, in every loaded ``cosetalg`` module that binds them,
and times each call.  A span stores the operation it belongs to, its name,
the span that caused it, and its start and end.  Self time is a span's
duration minus the part covered by its child spans, so nested calls are not
counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MARKER = "BENCH-TRACE "   # starts the line on which a traced CLI call reports


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None                  # identifier shared by the spans of one operation
        self.spans: list = []           # (op, name, parent index, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []    # [span index, name, child seconds, parent, start]
        self._patched: list[tuple] = []

    def _enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, 0.0, parent, time.perf_counter()])

    def _exit(self):
        end = time.perf_counter()
        index, name, child_s, parent, start = self._stack.pop()
        self.spans[index] = (self.op, name, parent, start, end)
        self.self_s[name] += end - start - child_s
        if self._stack:
            self._stack[-1][2] += end - start

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, values: dict[str, int]):
        for key, v in values.items():
            self.counts[key] += v

    def wrap(self, owner, attr: str, name, counter=None):
        """Replace ``owner.attr`` by a timed wrapper.

        ``name`` is a span name, or a function of the call's arguments that
        returns one.  ``counter(result, args)`` returns counts to add.  A
        module-level function is replaced in every ``cosetalg`` module that
        imported it by name, so calls from inside the package are seen too.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            if counter is not None:
                tracer.count(counter(result, args))
            return result

        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                mod for key, mod in list(sys.modules.items())
                if key.split(".")[0] == "cosetalg" and getattr(mod, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, traced)
            self._patched.append((target, attr, original))

    def unwrap_all(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()
        self.enabled = False

    def summary(self) -> dict[str, float]:
        """Self seconds per span name (as ``<name>_s``) and every counter."""
        out: dict[str, float] = {f"{k}_s": v for k, v in self.self_s.items()}
        out.update(self.counts)
        return out


def _multiply_span(args):
    x, y = args
    if len(x.terms) == 1 and len(y.terms) == 1:
        return "algebra.product"
    return "algebra.element_mul"


def _multiply_counts(result, args):
    x, y = args
    if len(x.terms) == 1 and len(y.terms) == 1:
        return {"algebra.products": 1, "algebra.constants": len(result.terms)}
    return {}


def _universal_counts(result, args):
    return {
        "universal.products": 1,
        "universal.constants": len(result),
        "universal.num_terms": sum(len(v.num.terms) for v in result.values()),
        "universal.den_factors": sum(sum(v.den.values()) for v in result.values()),
    }


def install(tracer: Tracer):
    """Wrap the public functions of each layer that the workloads reach, and enable."""
    from cosetalg import algebra, braid, cosets, epsring, nu2, oracle, poisson, universal

    tracer.wrap(cosets, "enumerate_coset_matrices", "cosets.enumerate",
                lambda r, a: {"cosets.matrices": len(r)})
    # a product of two basis elements is a structure-constant product; any
    # other product is element arithmetic on top of cached products
    tracer.wrap(algebra, "multiply", _multiply_span, _multiply_counts)
    tracer.wrap(algebra, "structure_constant", "algebra.product")
    tracer.wrap(algebra, "product_table", "algebra.product",
                lambda r, a: {"algebra.products": len({(x, y) for x, y, _, _ in r}),
                              "algebra.constants": len(r)})
    tracer.wrap(algebra, "verify_associativity", "algebra.assoc")
    tracer.wrap(universal, "universal_product", "universal.product", _universal_counts)
    tracer.wrap(universal, "universal_structure_constant", "universal.product")
    tracer.wrap(universal, "candidate_outputs", "universal.product")
    tracer.wrap(epsring.EpsRingElement, "specialize", "epsring.specialize",
                lambda r, a: {"epsring.specializations": 1})
    tracer.wrap(epsring.EpsRingElement, "expand", "epsring.expand",
                lambda r, a: {"epsring.expansions": 1})
    tracer.wrap(poisson, "poisson_bracket", "poisson.bracket",
                lambda r, a: {"poisson.brackets": 1})
    tracer.wrap(poisson, "graded_multiply", "poisson.graded_mul")
    for op in ("__add__", "__sub__", "__rmul__"):
        tracer.wrap(poisson.GradedElement, op, "poisson.element_arith")
    tracer.wrap(braid, "check_relations", "braid.check",
                lambda r, a: {"braid.relations": len(r.checks)})
    tracer.wrap(oracle, "coset_partition", "oracle.partition")
    tracer.wrap(oracle, "oracle_product", "oracle.product",
                lambda r, a: {"oracle.products": 1})
    tracer.wrap(oracle, "oracle_structure_constant", "oracle.product",
                lambda r, a: {"oracle.products": 1})
    tracer.wrap(nu2, "s_sum", "nu2.sum")
    tracer.wrap(nu2, "s_closed_form", "nu2.closed")
    tracer.wrap(nu2, "s_oracle", "nu2.oracle")
    tracer.enabled = True
