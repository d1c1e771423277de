"""Outside-in span tracer for harmcalc.

The library carries no instrumentation, so the benchmark wraps entry
points where their callers look them up: class attributes of `Scalar`,
`Polynomial` and `Expr`, module attributes such as `linalg.solve`, and
every module namespace that bound the same function by name (for example
`poly_laplacian` in `bvp` and `harmonic`, `parse_expression` in `cli`).
`install()` patches every such site and `uninstall()` restores the
original objects, so untraced runs execute the library unchanged.

A span has a name, start, end, parent span and operation id.  Spans are
kept in memory and written out at the end.  A layer's self time is its
span time minus the time its child spans cover.  `Scalar` operations are
too frequent to keep as individual spans: they are counted and timed as
leaves, and their time is charged to the enclosing span as child time.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns

from harmcalc.expr import Polynomial
from harmcalc.scalar import Scalar

# (owner, attribute, span name, workload meant to exercise it).  The layer
# of a span is the part of its name before the first dot.
ENTRY_POINTS = (
    ("harmcalc.scalar:Scalar", "__add__", "scalar.add", "kernel-calculus"),
    ("harmcalc.scalar:Scalar", "__mul__", "scalar.mul", "kernel-calculus"),
    ("harmcalc.scalar:Scalar", "inverse", "scalar.inverse", "kernel-calculus"),
    ("harmcalc.expr:Polynomial", "__mul__", "expr.poly_mul", "kernel-calculus"),
    ("harmcalc.expr:Polynomial", "__add__", "expr.poly_add", "kernel-calculus"),
    ("harmcalc.expr:Polynomial", "divide_exact", "expr.divide_exact", "kernel-calculus"),
    ("harmcalc.expr:Expr", "_from_raw", "expr.canon", "kernel-calculus"),
    ("harmcalc.linalg", "solve", "linalg.solve", "quadric-solve"),
    ("harmcalc.bvp", "dirichlet", "bvp.dirichlet", "quadric-solve"),
    ("harmcalc.bvp", "neumann", "bvp.neumann", "quadric-solve"),
    ("harmcalc.bvp", "anti_laplacian", "bvp.anti_laplacian", "quadric-solve"),
    ("harmcalc.bvp", "exterior_neumann", "bvp.exterior_neumann", "cli-batch"),
    ("harmcalc.bvp", "bi_dirichlet", "bvp.bi_dirichlet", "cli-batch"),
    ("harmcalc.calculus", "laplacian_of", "calculus.laplacian_of", "kernel-calculus"),
    ("harmcalc.calculus", "partial_d", "calculus.partial_d", "cli-batch"),
    ("harmcalc.calculus", "poly_laplacian", "calculus.poly_laplacian", "quadric-solve"),
    ("harmcalc.kernels", "poisson_kernel", "kernels.poisson_kernel", "kernel-calculus"),
    ("harmcalc.kernels", "bergman_kernel", "kernels.bergman_kernel", "kernel-calculus"),
    ("harmcalc.kernels", "poisson_kernel_h", "kernels.poisson_kernel_h", "kernel-calculus"),
    ("harmcalc.kernels", "bergman_kernel_h", "kernels.bergman_kernel_h", "kernel-calculus"),
    ("harmcalc.transforms", "kelvin", "transforms.kelvin", "kernel-calculus"),
    ("harmcalc.transforms", "kelvin_h", "transforms.kelvin_h", "kernel-calculus"),
    ("harmcalc.transforms", "reflect_point", "transforms.reflect_point", "cli-batch"),
    ("harmcalc.integrate", "integrate_ellipsoid_area", "integrate.ellipsoid_area", "quadric-solve"),
    ("harmcalc.integrate", "integrate_ellipsoid_volume", "integrate.ellipsoid_volume", "quadric-solve"),
    ("harmcalc.integrate", "integrate_sphere", "integrate.sphere", "cli-batch"),
    ("harmcalc.integrate", "integrate_ball", "integrate.ball", "cli-batch"),
    ("harmcalc.integrate", "unit_ball_volume", "integrate.unit_ball_volume", "kernel-calculus"),
    ("harmcalc.harmonic", "harmonic_decompose", "harmonic.decompose", "cli-batch"),
    ("harmcalc.harmonic", "harmonic_parts_by_degree", "harmonic.parts_by_degree", "cli-batch"),
    ("harmcalc.harmonic", "basis_harmonic", "harmonic.basis", "cli-batch"),
    ("harmcalc.harmonic", "zonal_harmonic", "harmonic.zonal", "cli-batch"),
    ("harmcalc.parser", "parse_expression", "parser.parse_expression", "cli-batch"),
    ("harmcalc.parser", "parse_polynomial", "parser.parse_polynomial", "cli-batch"),
    ("harmcalc.render", "render_value", "render.render_value", "cli-batch"),
    ("harmcalc.cli", "run_command", "cli.run_command", "cli-batch"),
)

LAYERS = (
    "linalg",
    "bvp",
    "expr",
    "scalar",
    "calculus",
    "kernels",
    "transforms",
    "integrate",
    "harmonic",
    "parser",
    "render",
    "cli",
)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _is_irrational(x):
    return isinstance(x, Scalar) and not x.is_rational()


class Tracer:
    """Records spans while `active`; wrappers are inert otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.stack = []  # open spans: [span index, name, layer, child ns]
        self.spans = []  # (name, start ns, end ns, parent index, op id)
        self.stats = {}  # span name -> counters
        self._patches = []  # (site, attribute, original object)

    # -- patching -----------------------------------------------------------

    def sites(self):
        """Every (site, attribute, original, span name) an entry point is bound at."""
        out = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "harmcalc"]
        for owner, attr, name, _ in ENTRY_POINTS:
            target = _resolve(owner)
            if isinstance(target, type):
                original = target.__dict__[attr]
                for alias, value in list(target.__dict__.items()):
                    if value is original:
                        out.append((target, alias, original, name))
            else:
                original = getattr(target, attr)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            out.append((mod, alias, original, name))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for site, alias, original, name in self.sites():
            key = (name, id(original))
            if key not in wrappers:
                wrappers[key] = self._wrap(name, original)
            setattr(site, alias, wrappers[key])
            self._patches.append((site, alias, original))

    def uninstall(self):
        for site, alias, original in reversed(self._patches):
            setattr(site, alias, original)
        self._patches = []

    def _wrap(self, name, original):
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        self.stats.setdefault(name, _new_stats())
        if name.startswith("scalar."):
            wrapper = self._scalar_wrapper(name, fn)
        else:
            wrapper = self._span_wrapper(name, fn, _MEASURES.get(name))
        wrapper.__wrapped__ = fn
        return staticmethod(wrapper) if static else wrapper

    def _span_wrapper(self, name, fn, measure):
        tr = self
        layer = name.split(".")[0]
        st = self.stats[name]

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            parent = stack[-1] if stack else None
            idx = len(tr.spans)
            tr.spans.append(None)
            frame = [idx, name, layer, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                tr.spans[idx] = (name, t0, t1, parent[0] if parent else -1, tr.op)
                st["hits"] += 1
                st["self_ns"] += dur - frame[3]
                outer = parent is None or parent[2] != layer
                if parent is None or parent[1] != name:
                    st["calls"] += 1
                if outer:
                    st["layer_calls"] += 1
                if parent is not None:
                    parent[3] += dur
            if measure is not None:
                measure(st, args, result, outer)
            return result

        return wrapper

    def _scalar_wrapper(self, name, fn):
        tr = self
        st = self.stats[name]

        def wrapper(a, *b):
            if not tr.active:
                return fn(a, *b)
            t0 = perf_counter_ns()
            result = fn(a, *b)
            dur = perf_counter_ns() - t0
            st["hits"] += 1
            st["calls"] += 1
            st["layer_calls"] += 1
            st["self_ns"] += dur
            if _is_irrational(a) or (b and _is_irrational(b[0])):
                st["irrational"] += 1
            if tr.stack:
                tr.stack[-1][3] += dur
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def write_spans(self, path):
        """One JSON object per span: name, start/end ns, parent index, op."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                                "parent": parent, "op": op})
                    + "\n"
                )

    def hits(self):
        return {name: st["hits"] for name, st in self.stats.items()}


def _new_stats():
    return {
        "hits": 0,
        "calls": 0,
        "layer_calls": 0,
        "self_ns": 0,
        "rows": 0,
        "cols": 0,
        "nnz": 0,
        "ok": 0,
        "pairs": 0,
        "terms_out": 0,
        "chars_out": 0,
        "irrational": 0,
    }


def _measure_solve(st, args, result, outer):
    a = args[0]
    st["rows"] += len(a)
    st["cols"] += len(a[0]) if a else 0
    st["nnz"] += sum(1 for row in a for x in row if x)
    st["ok"] += result is not None


def _measure_mul(st, args, result, outer):
    a, b = args
    if isinstance(result, Polynomial):
        st["pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, Polynomial) else 1)
        st["terms_out"] += len(result.terms)


def _measure_divide(st, args, result, outer):
    st["ok"] += result is not None


def _measure_render(st, args, result, outer):
    if outer:
        st["chars_out"] += len(result) if isinstance(result, str) else len(json.dumps(result))


_MEASURES = {
    "linalg.solve": _measure_solve,
    "expr.poly_mul": _measure_mul,
    "expr.divide_exact": _measure_divide,
    "render.render_value": _measure_render,
}


def per_layer(stats, passes, overhead_frac):
    """The per-layer metrics, averaged over `passes` traced passes."""
    def total(prefix, key):
        return sum(st[key] for n, st in stats.items() if n.split(".")[0] == prefix)

    def named(name, key):
        return stats.get(name, _new_stats())[key]

    def ratio(a, b):
        return a / b if b else 0.0

    s = 1e-9 / passes
    m = {}
    solve_calls = named("linalg.solve", "hits")
    m["linalg.solve.calls"] = (named("linalg.solve", "calls") / passes, "count")
    m["linalg.solve.self_s"] = (named("linalg.solve", "self_ns") * s, "s")
    m["linalg.solve.rows"] = (ratio(named("linalg.solve", "rows"), solve_calls), "count")
    m["linalg.solve.cols"] = (ratio(named("linalg.solve", "cols"), solve_calls), "count")
    m["linalg.solve.nnz"] = (ratio(named("linalg.solve", "nnz"), solve_calls), "count")
    m["linalg.solve.consistent_ratio"] = (ratio(named("linalg.solve", "ok"), solve_calls), "ratio")
    for name, key in (
        ("poly_mul", "expr.poly_mul"),
        ("poly_add", "expr.poly_add"),
        ("canon", "expr.canon"),
        ("divide_exact", "expr.divide_exact"),
    ):
        m["expr.%s.calls" % name] = (named(key, "calls") / passes, "count")
        m["expr.%s.self_s" % name] = (named(key, "self_ns") * s, "s")
    m["expr.poly_mul.pairs"] = (named("expr.poly_mul", "pairs") / passes, "count")
    m["expr.poly_mul.terms_out"] = (named("expr.poly_mul", "terms_out") / passes, "count")
    m["expr.divide_exact.hit_ratio"] = (
        ratio(named("expr.divide_exact", "ok"), named("expr.divide_exact", "hits")),
        "ratio",
    )
    m["expr.self_s"] = (total("expr", "self_ns") * s, "s")
    scalar_ops = total("scalar", "hits")
    m["scalar.ops"] = (scalar_ops / passes, "count")
    m["scalar.self_s"] = (total("scalar", "self_ns") * s, "s")
    m["scalar.irrational_ratio"] = (ratio(total("scalar", "irrational"), scalar_ops), "ratio")
    for layer in ("bvp", "calculus", "kernels", "transforms", "integrate", "harmonic",
                  "parser", "render", "cli"):
        m["%s.calls" % layer] = (total(layer, "layer_calls") / passes, "count")
        m["%s.self_s" % layer] = (total(layer, "self_ns") * s, "s")
    m["render.chars_out"] = (total("render", "chars_out") / passes, "count")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
