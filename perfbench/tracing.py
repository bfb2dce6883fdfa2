"""Spans around the public functions of each ulrichcert layer.

Each function is wrapped where its callers look it up (a module global of
the calling module, or the ``SparsePoly`` class for its methods), so the
program itself is unchanged.  Spans are kept in memory and written out once
the batch has finished.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, operation index]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []

    def span(self, name: str, fn, koszul=None):
        """``fn`` recorded as a span; ``koszul(args)`` adds 2^s Koszul terms
        computed from the call's inputs."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if koszul is not None:
                counts["euler.koszul_terms"] += koszul(args)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(row)
            row[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        """``fn`` with a call counter only: a span would cost more than the call."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "op": op, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def _koszul_terms(args) -> int:
    return 1 << args[1].s  # chi_ci(ell, profile) / chi_subvariety(ell, profile, u)


#: (module, attribute) wrapped with a span, and the span's name.
SPANNED = [
    ("cli", "certify_veronese", "certify.certify_veronese"),
    ("cli", "certify_complete_intersection", "certify.certify_complete_intersection"),
    ("certify", "certify_complete_intersection", "certify.certify_complete_intersection"),
    ("certify", "rank2_numerics", "invariants.rank2_numerics"),
    ("certify", "rank3_numerics", "invariants.rank3_numerics"),
    ("certify", "gap_poly", "identities.gap_poly"),
    ("identities", "gap_poly", "identities.gap_poly"),
    ("identities", "subvariety_chi_poly", "euler.subvariety_chi_poly"),
    ("identities", "to_basis", "symmetric.to_basis"),
    ("identities", "divide_all_vars", "symmetric.divide_all_vars"),
    ("identities", "specialize_ones", "symmetric.specialize_ones"),
    ("euler", "from_basis", "symmetric.from_basis"),
    ("euler", "m1_times", "symmetric.m1_times"),
] + [
    ("cli", check, "identities." + check)
    for check in (
        "check_gap_positivity",
        "check_coefficient_table",
        "check_closed_forms",
        "check_gap_identities",
        "check_structure",
        "check_s4_tables",
    )
]
KOSZUL = [
    ("invariants", "chi_subvariety", "euler.chi_subvariety"),
    ("cli", "chi_subvariety", "euler.chi_subvariety"),
    ("euler", "chi_ci", "euler.chi_ci"),
    ("cli", "chi_ci", "euler.chi_ci"),
]
COUNTED = [("euler", "binom"), ("invariants", "binom"), ("exactcore", "binom")]
#: The lru_cache'd builders of the identity layer, read through cache_info().
BUILDERS = ("deg_poly_r3", "noether_chi_r2", "kh_poly_r3", "ksq_poly_r3", "c2_poly_r3", "noether_chi_r3", "gap_poly")


def install(tracer: Tracer) -> dict:
    """Wrap the layers' public functions; returns the cached functions whose
    cache_info() the traced run reports."""
    import importlib

    modules = {
        name: importlib.import_module("ulrichcert." + name)
        for name in ("cli", "certify", "invariants", "identities", "euler", "exactcore")
    }
    cached = {name: getattr(modules["identities"], name) for name in BUILDERS}
    cached["subvariety_chi_poly"] = modules["euler"].subvariety_chi_poly
    for module, attr, name in SPANNED:
        setattr(modules[module], attr, tracer.span(name, getattr(modules[module], attr)))
    for module, attr, name in KOSZUL:
        setattr(modules[module], attr, tracer.span(name, getattr(modules[module], attr), _koszul_terms))
    for module, attr in COUNTED:
        setattr(modules[module], attr, tracer.count("exactcore.binom.calls", getattr(modules[module], attr)))
    poly = modules["exactcore"].SparsePoly
    poly.eval = tracer.span("exactcore.SparsePoly.eval", poly.eval)
    poly.__mul__ = tracer.span("exactcore.SparsePoly.mul", poly.__mul__)
    poly.__rmul__ = tracer.span("exactcore.SparsePoly.mul", poly.__rmul__)
    return cached
