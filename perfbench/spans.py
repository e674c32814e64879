"""Outside-in tracing of implicitseries: spans and counts at layer boundaries.

The package is not edited.  After it is imported, `Tracer.install` replaces
the public functions and operator methods listed in BOUNDARIES with wrappers
that record one span per call (name, start, end, parent) and a few counts.
A function is rebound in every ``implicitseries.*`` module that holds it, so
names imported with ``from .x import f`` are traced too.  A boundary whose
target no longer exists is reported as missing, not treated as an error.

`count_scalars` is the separate pass that counts ``Fraction`` arithmetic.
It runs in its own job because its cost would otherwise show up as self time
of whichever layer does the scalar work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

PACKAGE = "implicitseries"

# (span name, module, attribute path).  Several targets may share a span
# name; an alias such as ``__rmul__ = __mul__`` gets the same wrapper.
BOUNDARIES = [
    ("cli.main", "cli", "main"),
    ("expr.parse", "expr", "parse"),
    ("expr.eval_series", "expr", "eval_series"),
    ("expr.table_from_expr", "expr", "table_from_expr"),
    ("implicit.expand", "implicit", "expand"),
    ("implicit.y_coeff_direct", "implicit", "y_coeff_direct"),
    ("implicit.inverse_taylor_coeff", "implicit", "inverse_taylor_coeff"),
    ("implicit.column_power", "implicit", "_column_power"),
    ("implicit.column_series", "implicit", "column_series"),
    ("implicit.validate_table", "implicit", "validate_table"),
    ("implicit.symbolic_table", "implicit", "CoeffTable.symbolic"),
    ("series.taylor_mul", "series", "TaylorEGF.__mul__"),
    ("series.taylor_mul", "series", "TaylorEGF.__rmul__"),
    ("series.taylor_add", "series", "TaylorEGF.__add__"),
    ("series.taylor_sub", "series", "TaylorEGF.__sub__"),
    ("series.taylor_reciprocal", "series", "TaylorEGF.reciprocal"),
    ("series.bivariate_mul", "series", "BivariateEGF.__mul__"),
    ("series.bivariate_mul", "series", "BivariateEGF.__rmul__"),
    ("series.bivariate_add", "series", "BivariateEGF.__add__"),
    ("series.bivariate_sub", "series", "BivariateEGF.__sub__"),
    ("series.bivariate_reciprocal", "series", "BivariateEGF.reciprocal"),
    ("series.bivariate_exp", "series", "BivariateEGF.exp"),
    ("series.bivariate_log", "series", "BivariateEGF.log"),
    ("series.substitute_y", "series", "BivariateEGF.substitute_y"),
    ("combinatorics.partition_sequences", "combinatorics", "partition_sequences"),
    ("combinatorics.compositions", "combinatorics", "compositions"),
    ("combinatorics.bell_eval", "combinatorics", "bell_eval"),
    ("combinatorics.bell_partial", "combinatorics", "bell_partial"),
    ("combinatorics.comp_inverse_coeff_poly", "combinatorics", "comp_inverse_coeff_poly"),
    ("algebra.mul", "algebra", "LaurentPoly.__mul__"),
    ("algebra.mul", "algebra", "LaurentPoly.__rmul__"),
    ("algebra.add", "algebra", "LaurentPoly.__add__"),
    ("algebra.add", "algebra", "LaurentPoly.__radd__"),
    ("algebra.sub", "algebra", "LaurentPoly.__sub__"),
    ("algebra.sub", "algebra", "LaurentPoly.__rsub__"),
    ("algebra.neg", "algebra", "LaurentPoly.__neg__"),
    ("algebra.pow", "algebra", "LaurentPoly.__pow__"),
    ("algebra.div", "algebra", "LaurentPoly.__truediv__"),
]

ROOT_SPAN = "job"


def _monomials(value):
    count = getattr(value, "monomial_count", None)
    return count() if callable(count) else None


def _count_returned(counts, key):
    """Count the items a list-or-generator result holds, without changing
    what the caller receives."""
    def after(args, result):
        if hasattr(result, "__len__"):
            counts[key] += len(result)
            return result

        def counted():
            for item in result:
                counts[key] += 1
                yield item
        return counted()
    return after


def _count_products(counts):
    """Operand and result sizes of a polynomial-by-polynomial product."""
    def after(args, result):
        if len(args) == 2:
            left, right = _monomials(args[0]), _monomials(args[1])
            out = _monomials(result)
            if left is not None and right is not None and out is not None:
                counts["algebra.mul.pairs"] += left * right
                counts["algebra.mul.terms_out"] += out
        return result
    return after


class Tracer:
    """Spans and counts of one job, kept in memory until `to_obj`."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = [-1]
        self._wrappers = {}

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, after=None):
        """`fn` with a span named `name` around each call."""
        nid = self._name_id(name)
        parent, names, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            return result if after is None else after(args, result)

        return functools.update_wrapper(traced, fn)

    def _split_by_method(self, name, fn):
        """One span name per value of the `method` argument."""
        signature = inspect.signature(fn)
        per_method = {}

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            method = bound.arguments.get("method")
            inner = per_method.get(method)
            if inner is None:
                inner = per_method[method] = self.wrap(f"{name}.{method}", fn)
            return inner(*args, **kwargs)

        return functools.update_wrapper(traced, fn)

    def _wrapper_for(self, name, fn):
        key = (name, fn)
        if key not in self._wrappers:
            if name == "implicit.expand":
                w = self._split_by_method(name, fn)
            elif name == "combinatorics.partition_sequences":
                w = self.wrap(name, fn, _count_returned(self.counts, "combinatorics.partitions"))
            elif name == "combinatorics.compositions":
                w = self.wrap(name, fn, _count_returned(self.counts, "combinatorics.compositions"))
            elif name == "algebra.mul":
                w = self.wrap(name, fn, _count_products(self.counts))
            else:
                w = self.wrap(name, fn)
            self._wrappers[key] = w
        return self._wrappers[key]

    def install(self):
        """Wrap every boundary of the already imported package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, modname, path in BOUNDARIES:
            owner = sys.modules.get(f"{PACKAGE}.{modname}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{modname}.{path}")
                continue
            raw = vars(owner)[attr]
            if inspect.isclass(owner):
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrapper_for(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrapper_for(name, raw))
                continue
            wrapper = self._wrapper_for(name, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapper)

    def root(self, fn):
        """`fn` run as the root span of the job."""
        return self.wrap(ROOT_SPAN, fn)

    def to_obj(self):
        return {
            "job_id": self.job_id,
            "names": self.names,
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
            "missing": self.missing,
        }


SCALAR_OPS = {
    "scalar.mul": ("__mul__", "__rmul__"),
    "scalar.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "scalar.zero_tests": ("__bool__",),
}


def count_scalars(counts):
    """Count Fraction products, sums and differences, and truth tests into
    `counts` from now on, in this process."""
    for key, attrs in SCALAR_OPS.items():
        counts.setdefault(key, 0)
        for attr in attrs:
            setattr(Fraction, attr, _counting(getattr(Fraction, attr), key, counts))


def _counting(fn, key, counts):
    def counted(*args):
        counts[key] += 1
        return fn(*args)
    return counted


class Summary:
    """Per-name calls, self time and outermost inclusive time of a trace."""

    def __init__(self, trace):
        names = trace["names"]
        parent, name, start, end = trace["parent"], trace["name"], trace["start"], trace["end"]
        n = len(start)
        dur = [end[i] - start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.root_s = 0.0
        stack, open_names = [], defaultdict(int)
        for i in range(n):
            # spans are stored in start order, so the open ones form a stack
            while stack and stack[-1] != parent[i]:
                open_names[name[stack.pop()]] -= 1
            label = names[name[i]]
            self.calls[label] += 1
            self.self_s[label] += dur[i] - covered[i]
            if not open_names[name[i]]:
                self.inclusive_s[label] += dur[i]
            if parent[i] < 0:
                self.root_s += dur[i]
            stack.append(i)
            open_names[name[i]] += 1

    def layer_self_s(self, layer):
        return sum((v for k, v in self.self_s.items() if k.split(".")[0] == layer), 0.0)
