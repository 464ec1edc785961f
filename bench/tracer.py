"""Spans around the public functions of pgfactor's modules, recorded from
outside the program.

``Tracer.install`` replaces each traced function under every name that
callers look it up by: ``cli`` imports most library functions by name,
``mobius`` imports ``formulas._subgroup_count_value``, ``oracle`` imports
``mobius.hall_mobius`` and ``IntPolynomial.__rmul__`` is an alias of
``__mul__`` rather than a lookup of it.  ``uninstall`` puts the originals
back.

Spans live in flat arrays (name, instance, parent, start, end) until the run
ends; ``write`` dumps them.  Work counters are keyed by (counter, instance).
"""

from __future__ import annotations

import array
import functools
import json
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "formulas", "poly", "mobius", "oracle")

# Public functions per module, plus the private ones another module imports.
# grouptype is not traced: outside mobius-large-p it stays under 1 % of self
# time, and there its cost sits inside mobius.quotient_type.
FUNCTIONS = {
    "cli": ("main",),
    "formulas": ("subgroup_count", "subgroup_count_ext", "factorization_count",
                 "factorization_count_equal_exponents", "_subgroup_count_value"),
    "poly": ("render",),
    "mobius": ("gaussian_binomial", "enumerate_subspaces", "smith_normal_form", "hall_mobius",
               "quotient_type", "quotient_type_census", "reference_census",
               "factorization_count_mobius"),
    "oracle": ("build_group", "all_subgroups", "subgroup_type", "quotient_type_mod",
               "count_factorizations", "interval_size", "mobius_interval", "verify_hall",
               "verify_inversion_forms"),
}

# IntPolynomial methods, by attribute, with the span name each records under.
POLY_METHODS = {
    "__add__": "poly.add", "__radd__": "poly.add", "__sub__": "poly.sub",
    "__rsub__": "poly.sub", "__neg__": "poly.neg", "__mul__": "poly.mul",
    "__rmul__": "poly.mul", "__pow__": "poly.pow", "exact_div": "poly.exact_div",
    "evaluate": "poly.evaluate",
}


class Tracer:
    """Spans and work counters for one run; ``current`` is the instance being run."""

    def __init__(self, package):
        self._package = package
        self._modules = [package] + [getattr(package, m) for m in ("cli", "formulas", "grouptype",
                                                                   "mobius", "oracle", "poly")]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("H")
        self.instance = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.current = -1
        self.counts: Counter = Counter()
        self._lattices: list = []
        self._quotients: set = set()
        self._saved: list = []

    # ---------------------------------------------------------- recording
    def _wrap(self, name, fn, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, instances, parents, starts, ends = self.name, self.instance, self.parent, self.start, self.end
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            instances.append(tracer.current)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _hooks(self):
        """Counters taken from a traced call's arguments and result."""
        def count(counter, amount):
            self.counts[counter, self.current] += amount

        def elements(args, g):
            count("oracle.elements", g.order)

        def lattice(args, lat):
            self._lattices.append((self.current, lat))

        def pairs(args, total):
            n = len(args[1])
            count("oracle.pairs_tested", n * (n + 1) // 2)
            count("oracle.factorizing_pairs", (total + 1) // 2)

        def subspaces(args, result):
            count("mobius.subspaces", len(result))

        def quotient(args, result):
            self._quotients.add((self.current, args[0], args[2], result))

        def products(args, result):
            a, b = args
            width = len(b.coeffs) if hasattr(b, "coeffs") else int(b != 0)
            count("poly.mul.coef_products", len(a.coeffs) * width)

        return {"oracle.build_group": elements, "oracle.all_subgroups": lattice,
                "oracle.count_factorizations": pairs, "mobius.enumerate_subspaces": subspaces,
                "mobius.quotient_type": quotient, "poly.mul": products}

    def install(self) -> None:
        hooks = self._hooks()
        for module, functions in FUNCTIONS.items():
            source = getattr(self._package, module)
            for fname in functions:
                original = getattr(source, fname)
                span = f"{module}.{fname}"
                wrapper = self._wrap(span, original, hooks.get(span))
                for mod in self._modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        poly_cls = self._package.poly.IntPolynomial
        for attr, span in POLY_METHODS.items():
            original = poly_cls.__dict__[attr]
            self._saved.append((poly_cls, attr, original))
            setattr(poly_cls, attr, self._wrap(span, original, hooks.get(span)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def finish_instance(self) -> None:
        """Count work whose tally would be too slow to take inside a span."""
        for inst, lat in self._lattices:
            self.counts["oracle.subgroups", inst] += len(lat)
            self.counts["oracle.comparable_pairs", inst] += sum(m.bit_count() for m in lat.above)
        self._lattices.clear()
        for inst, _, _, _ in self._quotients:
            self.counts["mobius.distinct_quotients", inst] += 1
        self._quotients.clear()

    # ---------------------------------------------------------- summaries
    def per_name(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds].

        Self time is a span's duration minus the durations of its direct
        children, which never overlap in a single thread.
        """
        starts, ends, parents = self.start, self.end, self.parent
        child = [0.0] * len(starts)
        for i, par in enumerate(parents):
            if par >= 0:
                child[par] += ends[i] - starts[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name):
            entry = stats[self.names[nid]]
            dur = ends[i] - starts[i]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
        return stats

    def totals(self) -> Counter:
        out = Counter()
        for (counter, _), value in self.counts.items():
            out[counter] += value
        return out

    def write(self, path) -> None:
        """Header line of JSON, then the five columns as raw arrays."""
        columns = (("name", self.name), ("instance", self.instance), ("parent", self.parent),
                   ("start", self.start), ("end", self.end))
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [[c, a.typecode, a.itemsize] for c, a in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)
