"""Per-layer tracing of the liefam modules, installed from the benchmark.

`Tracer.install` wraps every public function and method defined in the
traced modules and rebinds each name that refers to one of them: module
globals (including names one module imports from another, such as
`cohomology.bracket`), class attributes (including aliases such as
`ParamPoly.__rmul__ = __mul__`) and functions held in module-level dicts
and tuples (such as `suite.CRITERIA` and `families.CATALOG`).  Nothing
under `src/` is edited; `Tracer.uninstall` puts every binding back.
`Tracer.unwrapped_bindings` asks the garbage collector for any other
holder of a traced original.

Calls are aggregated per function into counters, not one span object
per call: the hot functions run hundreds of thousands of times per
pass.  Each wrapper pushes a child-time slot on a stack, so that

    self time = span duration - time covered by direct child spans.

Properties (`is_zero`, `is_constant`, ...) are attribute reads and are
not traced; their cost lands in the self time of the caller.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
import types
from fractions import Fraction

TRACED_MODULES = (
    "poly",
    "algebra",
    "cohomology",
    "linalg",
    "geometry",
    "central",
    "moduli",
    "families",
    "suite",
    "cli",
)

# Functions whose per-layer metrics are reported as `<name>.calls` and
# `<name>.self_s`.
TIMED = (
    "poly.ParamPoly.__mul__",
    "poly.ParamPoly.__add__",
    "poly.ParamPoly.substitute",
    "algebra.evaluate_pair_rule",
    "algebra.basis_bracket",
    "algebra.bracket",
    "algebra.LieElement.__add__",
    "algebra.LieElement.scale",
    "algebra.verify_jacobi",
    "algebra.specialize",
    "cohomology.is_cocycle",
    "cohomology.solve_coboundary",
    "cohomology.compare_classes",
    "cohomology.graded_differential_columns",
    "linalg.LinearSystem.add",
    "linalg.LinearSystem.solution",
    "linalg.rank_of_vectors",
    "geometry.verify_against_geometry",
    "geometry.realize",
    "geometry.vf_bracket",
    "geometry.expand_in_candidates",
    "geometry.RationalFunc.__init__",
    "geometry.Poly.gcd",
    "geometry.Poly.divmod",
    "central.pairing_table",
    "central.kn_cocycle",
    "central.locality_bound",
    "moduli.classify_fiber",
)
CRITERIA = tuple(range(1, 10))

# Counted quantities gathered by hooks; every one must repeat exactly
# between two traced passes at one seed.
COUNTERS = (
    "poly.mul_const",
    "algebra.verify_jacobi.triples",
    "algebra.verify_jacobi.brackets",
    "cohomology.is_cocycle.tuples",
    "linalg.pivots",
    "geometry.verify_against_geometry.pairs",
    "geometry.gcd_nontrivial",
    "fractions.Fraction.new",
)

# Bypass predictions: on these workloads every call count whose name
# starts with one of the prefixes (or equals one of the names) is 0.
BYPASS = {
    "jacobi-window": ("linalg.", "geometry."),
    "elimination": ("poly.ParamPoly.__mul__", "algebra.", "geometry."),
}


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for fn in TIMED:
        specs.append((f"{fn}.calls", "count"))
        specs.append((f"{fn}.self_s", "s"))
    specs += [
        ("poly.mul_const_ratio", "ratio"),
        ("algebra.verify_jacobi.triples", "count"),
        ("algebra.brackets_per_triple", "ratio"),
        ("cohomology.is_cocycle.tuples", "count"),
        ("cohomology.differential.calls", "count"),
        ("cohomology.goncharova_table.self_s", "s"),
        ("linalg.pivot_ratio", "ratio"),
        ("geometry.verify_against_geometry.pairs", "count"),
        ("geometry.gcd_nontrivial_ratio", "ratio"),
        ("moduli.symbolic_invariants.self_s", "s"),
    ]
    specs += [(f"suite.criterion_{n}.s", "s") for n in CRITERIA]
    specs += [
        ("cli.main.self_s", "s"),
        ("families.build.self_s", "s"),
        ("fractions.Fraction.new.calls", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.count_mismatches", "count"),
        ("trace.bypass_violations", "count"),
        ("trace.unwrapped_bindings", "count"),
    ]
    return specs


# ---------------------------------------------------------------------------
# hooks: (pre, post) run inside the hooked function's span
# ---------------------------------------------------------------------------


def _mul_pre(tracer, args):
    a, b = args[0], args[1]
    if not isinstance(b, type(a)) or (a.is_constant and b.is_constant):
        tracer.counts["poly.mul_const"] += 1


def _jacobi_pre(tracer, args):
    return tracer.calls("algebra.basis_bracket")


def _jacobi_post(tracer, token, args, result):
    tracer.counts["algebra.verify_jacobi.triples"] += result.checked
    tracer.counts["algebra.verify_jacobi.brackets"] += (
        tracer.calls("algebra.basis_bracket") - token
    )


def _cocycle_post(tracer, token, args, result):
    tracer.counts["cohomology.is_cocycle.tuples"] += result.checked


def _add_pre(tracer, args):
    return len(args[0].rows)


def _add_post(tracer, token, args, result):
    tracer.counts["linalg.pivots"] += len(args[0].rows) - token


def _geometry_post(tracer, token, args, result):
    tracer.counts["geometry.verify_against_geometry.pairs"] += result.checked


def _gcd_post(tracer, token, args, result):
    if result.degree() > 0:
        tracer.counts["geometry.gcd_nontrivial"] += 1


HOOKS = {
    "poly.ParamPoly.__mul__": (_mul_pre, None),
    "algebra.verify_jacobi": (_jacobi_pre, _jacobi_post),
    "cohomology.is_cocycle": (None, _cocycle_post),
    "linalg.LinearSystem.add": (_add_pre, _add_post),
    "geometry.verify_against_geometry": (None, _geometry_post),
    "geometry.Poly.gcd": (None, _gcd_post),
}


def _unwrap(member):
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__, type(member)
    return member, None


def _describe(obj):
    """A short name for a container found by the garbage collector."""
    if isinstance(obj, dict) and "__name__" in obj:
        return f"the namespace of {obj['__name__']}"
    if isinstance(obj, types.CellType):
        return "a closure cell"
    return f"a {type(obj).__name__}"


def _is_public(name):
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


class Tracer:
    """Aggregated call counters and self times for the traced functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.counts = {name: 0 for name in COUNTERS}
        self._stack = [0.0]
        self._restore = []  # (owner, key, original value); owner is a dict or object
        self._originals = {}  # id(function) -> function
        self._wrappers = {}  # id(function) -> wrapper

    # -- recording ----------------------------------------------------------

    def calls(self, name) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def reset(self):
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        for name in self.counts:
            self.counts[name] = 0
        self._stack[:] = [0.0]

    def wrap(self, name, fn):
        """A wrapper around `fn` that records its span under `name`."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, self.clock
        pre, post = HOOKS.get(name, (None, None))

        if pre is None and post is None:

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span = clock() - start
                    stat[0] += 1
                    stat[1] += span - stack.pop()
                    stat[2] += span
                    stack[-1] += span

        else:

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    token = pre(self, args) if pre else None
                    result = fn(*args, **kwargs)
                    if post:
                        post(self, token, args, result)
                    return result
                finally:
                    span = clock() - start
                    stat[0] += 1
                    stat[1] += span - stack.pop()
                    stat[2] += span
                    stack[-1] += span

        return functools.update_wrapper(wrapper, fn)

    # -- installation -------------------------------------------------------

    def install(self, package):
        """Wrap the traced modules of `package` and count Fraction creation."""
        prefix = package.__name__ + "."
        for short in TRACED_MODULES:
            module = sys.modules[prefix + short]
            for attr, value in vars(module).items():
                if not _is_public(attr) or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    self._register(f"{short}.{value.__qualname__}", value)
                elif isinstance(value, type):
                    for mname, member in vars(value).items():
                        func, _ = _unwrap(member)
                        if _is_public(mname) and isinstance(func, types.FunctionType):
                            self._register(f"{short}.{func.__qualname__}", func)
        for module in self._package_modules(package):
            self._rebind(module)
        self._count_fractions()

    def _register(self, name, func):
        if id(func) not in self._originals:
            self._originals[id(func)] = func
            self._wrappers[id(func)] = self.wrap(name, func)

    @staticmethod
    def _package_modules(package):
        prefix = package.__name__ + "."
        return [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(prefix))
        ]

    def _traced(self, value):
        return id(value) in self._originals and self._originals[id(value)] is value

    def _swap(self, value):
        """The traced replacement of `value`, or None if it holds no traced function."""
        func, kind = _unwrap(value)
        if isinstance(func, types.FunctionType) and self._traced(func):
            wrapper = self._wrappers[id(func)]
            return kind(wrapper) if kind else wrapper
        if isinstance(value, tuple) and any(self._traced(v) for v in value):
            return tuple(self._wrappers[id(v)] if self._traced(v) else v for v in value)
        return None

    def _rebind(self, module):
        for attr, value in list(vars(module).items()):
            new = self._swap(value)
            if new is not None:
                self._restore.append((module, attr, value))
                setattr(module, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    new = self._swap(item)
                    if new is not None:
                        self._restore.append((value, key, item))
                        value[key] = new
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for mname, member in list(vars(value).items()):
                    new = self._swap(member)
                    if new is not None:
                        self._restore.append((value, mname, member))
                        setattr(value, mname, new)

    def _count_fractions(self):
        raw = Fraction.__dict__["__new__"]
        original = raw.__func__
        counts = self.counts

        def __new__(cls, *args, **kwargs):
            counts["fractions.Fraction.new"] += 1
            return original(cls, *args, **kwargs)

        self._restore.append((Fraction, "__new__", raw))
        Fraction.__new__ = staticmethod(__new__)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def unwrapped_bindings(self) -> list:
        """Objects other than the tracer's own that still refer to a traced original.

        The referrers come from the garbage collector, not from the places
        that `_rebind` rewrites, so a binding it misses (a list, a default
        argument, a closure cell, an instance attribute) shows here.
        """
        gc.collect()  # drop the wrappers of earlier tracers
        originals = list(self._originals.values())
        own = {id(originals), id(self._originals)}
        for entry in self._restore:
            own.update((id(entry), id(entry[2])))  # the entry and the value it restores
        for wrapper in self._wrappers.values():
            own.add(id(wrapper.__dict__))  # holds __wrapped__
            own.update(id(cell) for cell in wrapper.__closure__)
        traced = {id(f) for f in originals}
        left = []
        for ref in gc.get_referrers(*originals):
            if id(ref) in own or isinstance(ref, types.FrameType):
                continue
            for func in gc.get_referents(ref):
                if id(func) in traced:
                    left.append(f"{func.__module__}.{func.__qualname__} held by {_describe(ref)}")
        return sorted(left)

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Call counts and hook counters: the quantities that must repeat."""
        data = {f"{name}.calls": stat[0] for name, stat in self.stats.items()}
        data.update(self.counts)
        return data

    def layer_metrics(self) -> dict:
        """Per-layer metric values except the trace.* self-checks."""
        stats = self.stats

        def get(name, field):
            stat = stats.get(name)
            return stat[field] if stat else 0

        def ratio(num, den):
            return num / den if den else 0.0

        counts = self.counts
        out = {}
        for fn in TIMED:
            out[f"{fn}.calls"] = get(fn, 0)
            out[f"{fn}.self_s"] = get(fn, 1)
        triples = counts["algebra.verify_jacobi.triples"]
        out["poly.mul_const_ratio"] = ratio(
            counts["poly.mul_const"], get("poly.ParamPoly.__mul__", 0)
        )
        out["algebra.verify_jacobi.triples"] = triples
        out["algebra.brackets_per_triple"] = ratio(
            counts["algebra.verify_jacobi.brackets"], triples
        )
        out["cohomology.is_cocycle.tuples"] = counts["cohomology.is_cocycle.tuples"]
        out["cohomology.differential.calls"] = get("cohomology.differential", 0)
        out["cohomology.goncharova_table.self_s"] = get("cohomology.goncharova_table", 1)
        out["linalg.pivot_ratio"] = ratio(
            counts["linalg.pivots"], get("linalg.LinearSystem.add", 0)
        )
        out["geometry.verify_against_geometry.pairs"] = counts[
            "geometry.verify_against_geometry.pairs"
        ]
        out["geometry.gcd_nontrivial_ratio"] = ratio(
            counts["geometry.gcd_nontrivial"], get("geometry.Poly.gcd", 0)
        )
        out["moduli.symbolic_invariants.self_s"] = get("moduli.symbolic_invariants", 1)
        for n in CRITERIA:
            out[f"suite.criterion_{n}.s"] = get(f"suite.criterion_{n}", 2)
        out["cli.main.self_s"] = get("cli.main", 1)
        out["families.build.self_s"] = sum(
            stat[1] for name, stat in stats.items() if name.startswith("families.")
        )
        out["fractions.Fraction.new.calls"] = counts["fractions.Fraction.new"]
        return out


def bypass_violations(workload, snapshot) -> list:
    """Call counts that the workload's bypass prediction says are 0 but are not."""
    prefixes = BYPASS.get(workload, ())
    return sorted(
        name
        for name, value in snapshot.items()
        if name.endswith(".calls")
        and value
        and any(name.startswith(p) for p in prefixes)
    )


def count_mismatches(first, second) -> list:
    """Names whose counts differ between two traced passes."""
    return sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
