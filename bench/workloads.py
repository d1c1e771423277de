"""Seeded workloads for the harmcalc benchmark.

Each workload is a fixed list of operation slots.  The slot list fixes the
input shape (dimensions, degrees, term counts, verb mix and format mix);
the seed only picks coefficients, exponents and axes.  The library receives
only the generated inputs: polynomials are built from exponent tuples with
the `Polynomial` constructors, never through the parser, so the library
workloads do not touch `parser`, `render` or `cli` while they are timed.

An operation is a plain dict.  `prepare(op)` builds a fresh `Context` and
the inputs (untimed) and returns a `Prepared` whose `call` is the timed
part, whose `check` verifies the result exactly and whose `render` gives
the canonical text that is hashed.
"""

from __future__ import annotations

import json
import random
import shlex
from collections import namedtuple
from fractions import Fraction

from harmcalc import bvp, calculus, cli, integrate, kernels, transforms
from harmcalc.expr import Context, Expr, Polynomial, restrict_to_sphere
from harmcalc.parser import parse_expression, parse_polynomial
from harmcalc.render import render_value

DEFAULT_SEED = 0
FORMATS = ("text", "json", "latex")


Prepared = namedtuple("Prepared", "call check render")


# ---------------------------------------------------------------------------
# seeded pieces


def _composition(rng, dim, deg):
    """Exponent tuple of total degree `deg` over `dim` coordinates."""
    cuts = sorted(rng.randint(0, deg) for _ in range(dim - 1))
    bounds = [0] + cuts + [deg]
    return tuple(bounds[i + 1] - bounds[i] for i in range(dim))


def _odd_composition(rng, dim, deg):
    """Exponent tuple that is odd in at least one coordinate.

    Such a monomial integrates to zero over any centered ellipsoid, which
    makes it valid Neumann data.
    """
    exps = list(_composition(rng, dim, deg))
    if all(e % 2 == 0 for e in exps):
        i = max(range(dim), key=lambda k: exps[k])
        j = rng.choice([k for k in range(dim) if k != i])
        exps[i] -= 1
        exps[j] += 1
    return tuple(exps)


def _even_composition(rng, dim, deg):
    """Exponent tuple that is even in every coordinate (`deg` even).

    No integral over a centered sphere, ball or ellipsoid of such a
    monomial vanishes by symmetry.
    """
    half = _composition(rng, dim, deg // 2)
    return tuple(2 * e for e in half)


def _coeff(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _poly_spec(rng, dim, degrees, make=_composition):
    """One term per entry of `degrees`, as (coefficient, exponents) pairs."""
    return [(_coeff(rng), make(rng, dim, d)) for d in degrees]


def _centered_ellipsoid(rng, dim):
    b = rng.sample(range(1, 7), dim)
    return (tuple(b), (), -rng.randint(1, 3))


def _offcenter_ellipsoid(rng, dim):
    b = rng.sample(range(1, 7), dim)
    c = [0] * dim
    for axis in rng.sample(range(dim), 2):
        c[axis] = rng.choice((-2, -1, 1, 2))
    return (tuple(b), tuple(c), -rng.randint(2, 4))


def _indefinite_quadric(rng, dim):
    b = rng.sample(range(2, 7), dim)
    b[rng.randrange(dim)] = -1
    return (tuple(b), (), -1)


def _names(dim, label="x"):
    return tuple("%s%d" % (label, i + 1) for i in range(dim))


def poly_of(spec, names):
    pairs = []
    for c, exps in spec:
        mono = tuple(sorted((n, e) for n, e in zip(names, exps) if e))
        pairs.append((mono, c))
    return Polynomial.from_raw(pairs)


def poly_text(spec, names):
    """DSL text of a spec, for command lines."""
    out = []
    for c, exps in spec:
        factors = ["%s^%d" % (n, e) if e > 1 else n for n, e in zip(names, exps) if e]
        coeff = str(abs(c))
        body = "*".join(([coeff] if coeff != "1" or not factors else []) + factors)
        out.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _quadric(q):
    b, c, d = q
    return bvp.Quadratic(
        tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in c), Fraction(d)
    )


# ---------------------------------------------------------------------------
# quadric-solve
#
# Why: isolates `linalg`.  Dirichlet, Neumann and quadric-multiple
# anti-Laplacian solves on quadrics build a polynomial-ansatz system and
# hand it to the dense Fraction RREF in `linalg.solve`, which is nearly all
# of their time; `expr` and `scalar` do little here.  The structured sparse
# solve (ROADMAP item 2) should move this workload and no other.

# (kind, dim, quadric kind, data degrees, rhs degrees)
QUADRIC_SLOTS = (
    ("dirichlet", 3, "centered", (6, 3), ()),
    ("dirichlet", 3, "centered", (7, 4), ()),
    ("dirichlet", 3, "centered", (8, 5), ()),
    ("dirichlet", 3, "centered", (9, 6), ()),
    ("dirichlet", 3, "offcenter", (6, 3), ()),
    ("dirichlet", 3, "offcenter", (7, 4), ()),
    ("dirichlet", 3, "offcenter", (8, 5), ()),
    ("dirichlet", 4, "centered", (6, 3), ()),
    ("dirichlet", 4, "centered", (7, 4), ()),
    ("dirichlet", 4, "offcenter", (6, 3), ()),
    ("dirichlet", 3, "indefinite", (6, 3), ()),
    ("dirichlet", 3, "indefinite", (7, 4), ()),
    ("dirichlet", 3, "indefinite", (8, 5), ()),
    ("neumann", 3, "centered", (6, 4), ()),
    ("neumann", 3, "centered", (6, 2), ()),
    ("neumann", 3, "centered", (7, 5), ()),
    ("neumann", 3, "centered", (6, 4), (3,)),
    ("anti_laplacian", 3, "centered", (6, 3), ()),
    ("anti_laplacian", 3, "centered", (7, 4), ()),
    ("anti_laplacian", 3, "offcenter", (6, 3), ()),
)

_QUADRICS = {
    "centered": _centered_ellipsoid,
    "offcenter": _offcenter_ellipsoid,
    "indefinite": _indefinite_quadric,
}


def gen_quadric_solve(rng):
    ops = []
    for kind, dim, qkind, degrees, rhs_degrees in QUADRIC_SLOTS:
        make = _odd_composition if kind == "neumann" else _composition
        ops.append(
            {
                "workload": "quadric-solve",
                "kind": kind,
                "dim": dim,
                "quadric": qkind,
                "q": _QUADRICS[qkind](rng, dim),
                "data": _poly_spec(rng, dim, degrees, make),
                "rhs": _poly_spec(rng, dim, rhs_degrees, make) if rhs_degrees else None,
            }
        )
    return ops


def _divides(q, p, rank):
    return p.is_zero() or p.divide_exact(q, rank) is not None


def _prepare_quadric(op):
    ctx = Context(op["dim"])
    p = poly_of(op["data"], ctx.coords)
    region = _quadric(op["q"])
    q = region.poly(ctx)
    rank = ctx.var_rank
    lap = lambda u: calculus.poly_laplacian(u, ctx)  # noqa: E731
    kind = op["kind"]
    if kind == "dirichlet":

        def call():
            return bvp.dirichlet(p, region, ctx)

        def check(u):
            u = u.as_polynomial()
            if not lap(u).is_zero():
                return "Laplacian of the Dirichlet solution is not zero"
            if not _divides(q, u - p, rank):
                return "solution minus data is not a multiple of q"

    elif kind == "neumann":
        g = poly_of(op["rhs"], ctx.coords) if op["rhs"] else None

        def call():
            return bvp.neumann(p, g, region, ctx)

        def check(u):
            u = u.as_polynomial()
            if lap(u) != (g if g is not None else Polynomial()):
                return "Laplacian of the Neumann solution is wrong"
            flux = sum(
                (u.partial(v) * q.partial(v) for v in ctx.coords), Polynomial()
            )
            if not _divides(q, flux - p, rank):
                return "grad u . grad q - f is not a multiple of q"
            if not u.constant_term().is_zero():
                return "u(0) is not zero"

    else:
        mode = bvp.QuadraticMultiple(region.b, region.c, region.d)

        def call():
            return bvp.anti_laplacian(p, mode, ctx)

        def check(u):
            u = u.as_polynomial()
            if lap(u) != p:
                return "Laplacian of the anti-Laplacian is not the data"
            if not _divides(q, u, rank):
                return "anti-Laplacian is not a multiple of q"

    return Prepared(call, check, lambda u: render_value(u, "text", ctx))


# ---------------------------------------------------------------------------
# kernel-calculus
#
# Why: isolates `expr` and `scalar`: large rational polynomial products and
# `Expr._from_raw` canonicalization (kernel harmonicity checks, Kelvin
# round trips, iterated Laplacians of norm-power-log expressions).
# `linalg`, `cli`, `parser` and `render` make no calls.  The packed-monomial
# polynomial core (ROADMAP item 3) should move this workload.

KERNEL_SLOTS = (
    ("poisson", 3),
    ("poisson", 4),
    ("poisson", 5),
    ("bergman", 3),
    ("bergman", 4),
    ("bergman", 5),
    ("poisson_h", 4),
    ("bergman_h", 5),
)
# (dim, [(coordinate degree, norm half-exponent)]) for Kelvin round trips
KELVIN_SLOTS = (
    (3, ((5, 3), (3, -1), (2, 1))),
    (4, ((5, 3), (3, -1), (2, 1))),
    (5, ((4, 3), (3, -1), (2, 1))),
    (3, ((6, 5), (4, 1), (2, -3))),
    (4, ((6, 5), (4, 1), (2, -3))),
    (5, ((5, 5), (3, 1), (2, -3))),
)
# (dim, [(degree, exponent of the last coordinate)]) for kelvin_h round trips;
# the cost grows quickly with the last exponent, so the slot fixes it.
KELVIN_H_SLOTS = (
    (3, ((4, 1), (3, 0), (2, 1))),
    (3, ((4, 2), (4, 0), (2, 1))),
    (3, ((5, 0), (3, 0), (1, 0))),
    (3, ((5, 1), (3, 1), (1, 0))),
)
# (dim, [(coordinate degree, norm half-exponent, log power)])
LAPLACIAN_SLOTS = (
    (3, ((3, 3, 2), (3, -1, 1), (2, 1, 0))),
    (4, ((3, 3, 2), (3, -1, 1), (2, 1, 0))),
    (5, ((3, 3, 2), (3, -1, 1), (2, 1, 0))),
    (3, ((5, 3, 3), (4, -3, 2), (3, 1, 1))),
    (4, ((5, 3, 3), (4, -3, 2), (3, 1, 1))),
    (5, ((5, 3, 3), (4, -3, 2), (3, 1, 1))),
)


def gen_kernel_calculus(rng):
    ops = [
        {"workload": "kernel-calculus", "kind": kind, "dim": dim}
        for kind, dim in KERNEL_SLOTS
    ]
    for dim, terms in KELVIN_SLOTS:
        ops.append(
            {
                "workload": "kernel-calculus",
                "kind": "kelvin",
                "dim": dim,
                "terms": [(_coeff(rng), _composition(rng, dim, d), h) for d, h in terms],
            }
        )
    for dim, terms in KELVIN_H_SLOTS:
        data = [
            (_coeff(rng), _composition(rng, dim - 1, d - last) + (last,))
            for d, last in terms
        ]
        ops.append(
            {"workload": "kernel-calculus", "kind": "kelvin_h", "dim": dim, "data": data}
        )
    for dim, terms in LAPLACIAN_SLOTS:
        ops.append(
            {
                "workload": "kernel-calculus",
                "kind": "laplacian2",
                "dim": dim,
                "terms": [
                    (_coeff(rng), _composition(rng, dim, d), h, j) for d, h, j in terms
                ],
            }
        )
    return ops


def _norm_power_expr(ctx, terms):
    total = Expr.zero(ctx)
    for t in terms:
        c, exps, h = t[:3]
        j = t[3] if len(t) > 3 else 0
        poly = poly_of([(c, exps)], ctx.coords)
        total = total + Expr.make(ctx, poly, [(ctx.norm_base, h, j)])
    return total


def _half_space_context(n):
    return Context(
        n,
        coords=_names(n - 1) + ("y",),
        extra=_names(n - 1, "t") + ("u",),
    )


def _prepare_kernel(op):
    kind, n = op["kind"], op["dim"]
    if kind in ("poisson", "bergman"):
        ctx = Context(n, extra=_names(n, "y"))

        def call():
            fn = kernels.poisson_kernel if kind == "poisson" else kernels.bergman_kernel
            k = fn(ctx, ctx.extra)
            return k, calculus.laplacian_of(k, 1, ctx).is_zero()

    elif kind in ("poisson_h", "bergman_h"):
        ctx = _half_space_context(n)

        def call():
            fn = kernels.poisson_kernel_h if kind == "poisson_h" else kernels.bergman_kernel_h
            k = fn(ctx, ctx.extra[:-1], ctx.extra[-1])
            return k, calculus.laplacian_of(k, 1, ctx).is_zero()

    elif kind in ("kelvin", "kelvin_h"):
        ctx = Context(n)
        if kind == "kelvin":
            e = _norm_power_expr(ctx, op["terms"])
        else:
            e = Expr.from_poly(ctx, poly_of(op["data"], ctx.coords))

        def call():
            fn = transforms.kelvin if kind == "kelvin" else transforms.kelvin_h
            k = fn(e, ctx)
            return k, fn(k, ctx)

        def check(result):
            if not (result[1] - e).is_zero():
                return "the transform applied twice does not return the input"

        return Prepared(call, check, lambda r: _render_pair(r, ctx))
    else:
        ctx = Context(n)
        e = _norm_power_expr(ctx, op["terms"])

        def call():
            return calculus.laplacian_of(e, 2, ctx)

        def check(result):
            twice = calculus.laplacian_of(calculus.laplacian_of(e, 1, ctx), 1, ctx)
            if not (result - twice).is_zero():
                return "iterated Laplacian disagrees with two single Laplacians"

        return Prepared(call, check, lambda r: render_value(r, "text", ctx))

    def check(result):
        if result[1] is not True:
            return "the kernel Laplacian is not exactly zero"

    return Prepared(call, check, lambda r: _render_pair(r, ctx))


def _render_pair(pair, ctx):
    return "\n".join(
        render_value(v, "text", ctx) if not isinstance(v, bool) else str(v)
        for v in pair
    )


# ---------------------------------------------------------------------------
# cli-batch
#
# Why: isolates per-command overhead (`run_command` rebuilds the whole
# argparse tree on every call) and irrational `Scalar` arithmetic from
# many tiny polynomials with sqrt/pi coefficients (`basis-h`).  It uses
# `expr` and `scalar` differently from kernel-calculus, so a rational-only
# fast path that slows irrational coefficients shows up here.  One line is
# one operation, run in-process exactly as `harmcalc batch` runs it.

# (verb, dim, data degrees per polynomial argument, extra template, expected
# exit code); the format rotates text/json/latex over the line list.
CLI_SLOTS = (
    ("dirichlet", 5, ((6, 2),), "", 0),
    ("dirichlet-exterior", 4, ((5, 3),), "--region exterior-sphere", 0),
    ("dirichlet-annulus", 5, ((3,), (2,)), "--region annulus:{r},{s}", 0),
    ("dirichlet-rhs", 3, ((5, 2), (3,)), "", 0),
    ("neumann", 3, ((7, 3),), "", 0),
    ("exterior-neumann", 4, ((5, 2),), "", 0),
    ("bi-dirichlet", 3, ((6, 2),), "", 0),
    ("decompose", 4, ((8, 4),), "", 0),
    ("anti-laplacian", 5, ((7, 3),), "--multiple norm2", 0),
    ("integrate-sphere", 5, ((8, 6),), "", 0),
    ("integrate-ball", 7, ((6, 4),), '--weight "r^{a}*log(r)^{k}"', 0),
    ("integrate-ball", 7, ((6, 2),), '--weight "1/({c0} + {c1}*r)"', 0),
    ("integrate-ellipsoid-volume", 3, ((6, 2),), "--b {b}", 0),
    ("integrate-ellipsoid-area", 3, ((6, 4),), "--b {b}", 0),
    # The two basis-h lines in dim 4 are the costliest, unseeded lines; the
    # tail percentile (p95) falls inside the degree-5 cluster, not between
    # clusters, so it does not jump from run to run.
    ("basis-h", 3, (), "--degree 4 --ip sphere", 0),
    ("basis-h", 4, (), "--degree 5 --ip ball", 0),
    ("basis-h", 4, (), "--degree 6 --ip sphere", 0),
    ("zonal", 3, (), "--degree 5", 0),
    ("reflect", 4, (), "--point={point}", 0),
    ("kelvin", 4, ((4, 2),), "", 0),
    ("approx", 3, ((2,),), "--at={point} --digits 12", 0),
    ("eval", 3, ((3,),), "--at={point}", 0),
    ("laplacian", 4, ((3,),), "", 0),
    ("partial", 3, ((3,),), "--by x{i}:2 --by x{j}", 0),
    ("parse-error", 3, ((4,),), "", 2),
    ("unknown-region", 3, ((4,),), "--region torus:{r}", 3),
    ("nonzero-mean-neumann", 3, ((4,),), "", 4),
)
CLI_REPEATS = 2
# A fresh `harmcalc integrate-ball` process starts with an empty memo of
# 1/(c0 + c1 r) radial integrals; each line empties it before its timed call
# so that call does not reuse what the warm-up or an earlier line computed.
_LINEAR_DENOMINATOR_MEMO = integrate.linear_denominator_integral_01.__defaults__[0]
_ERROR_TYPES = {2: "ParseError", 3: "UnsupportedInputError", 4: "SolvabilityViolation"}


def _cli_line(rng, slot, fmt):
    verb, dim, degrees, extra, code = slot
    names = _names(dim)
    if verb == "nonzero-mean-neumann":
        # an even monomial with a positive coefficient has nonzero sphere mean
        specs = [[(Fraction(rng.randint(1, 9)), _even_composition(rng, dim, d))] for (d,) in degrees]
    else:
        make = _composition
        if verb == "neumann":
            make = _odd_composition
        elif verb.startswith("integrate"):
            make = _even_composition
        specs = [_poly_spec(rng, dim, degs, make) for degs in degrees]
        # argparse would read a leading "-" as an option
        specs = [[(abs(s[0][0]), s[0][1])] + s[1:] for s in specs]
    texts = [poly_text(s, names) for s in specs]
    fill = {
        "r": rng.randint(1, 3),
        "a": rng.randint(0, 3),
        "k": rng.randint(1, 2),
        "c0": rng.randint(1, 3),
        "c1": rng.randint(1, 3),
        "b": ",".join(str(rng.randint(1, 6)) for _ in range(dim)),
        "point": ",".join(str(rng.randint(-5, 5) or 1) for _ in range(dim)),
        "i": rng.randint(1, dim),
        "j": rng.randint(1, dim),
    }
    fill["s"] = fill["r"] + rng.randint(1, 3)
    args = []
    if verb.startswith("dirichlet"):
        args = ["dirichlet", texts[0]]
        if verb == "dirichlet-annulus":
            args.append(texts[1])
        if verb == "dirichlet-rhs":
            args += ["--rhs", texts[1]]
    elif verb == "kelvin":
        args = ["kelvin", "(%s)*norm(x)^%d" % (texts[0], rng.choice((-3, -1, 1, 3)))]
    elif verb == "approx":
        args = ["approx", "(%s)*norm(x)^3 + log(norm(x))" % texts[0]]
    elif verb == "eval":
        args = ["eval", "(%s)*norm(x)^3*log(norm(x))" % texts[0]]
    elif verb == "laplacian":
        args = ["laplacian", "(%s)*norm(x)^%d*log(norm(x))^2" % (texts[0], rng.choice((-1, 1, 3)))]
    elif verb == "partial":
        args = ["partial", "(%s)*norm(x)^-3*log(norm(x))" % texts[0]]
    elif verb == "parse-error":
        args = ["dirichlet", texts[0] + " *"]
    elif verb == "unknown-region":
        args = ["dirichlet", texts[0]]
    elif verb == "nonzero-mean-neumann":
        args = ["neumann", texts[0]]
    else:
        args = [verb] + texts
    argv = args + ["--dim", str(dim)]
    if extra:
        argv += shlex.split(extra.format(**fill))
    argv += ["--format", fmt]
    return {
        "workload": "cli-batch",
        "kind": verb,
        "dim": dim,
        "format": fmt,
        "expect": code,
        "argv": argv,
        "data": specs,
    }


def gen_cli_batch(rng):
    ops = []
    for _ in range(CLI_REPEATS):
        for slot in CLI_SLOTS:
            ops.append(_cli_line(rng, slot, FORMATS[len(ops) % len(FORMATS)]))
    return ops


def _reparse(payload, fmt, ctx):
    """The Expr a text or json payload denotes, or None for latex."""
    if fmt == "text":
        return parse_expression(payload, ctx)
    if fmt == "json":
        total = Expr.zero(ctx)
        for term in payload["terms"]:
            poly = parse_polynomial(term["poly"], ctx) if term["poly"] else Polynomial.const(1)
            factors = []
            for f in term["factors"]:
                if f["base"] != ctx.base_name(ctx.norm_base):
                    raise ValueError("unexpected base %r" % f["base"])
                factors.append((ctx.norm_base, f["halfExp"], f["logPow"]))
            total = total + Expr.make(ctx, poly, factors)
        return total
    return None


_BVP_VERBS = (
    "dirichlet",
    "dirichlet-exterior",
    "dirichlet-annulus",
    "dirichlet-rhs",
    "neumann",
    "exterior-neumann",
    "bi-dirichlet",
    "anti-laplacian",
)


def _cli_bvp_check(op, payload):
    """Exact boundary-value check of a text or json BVP answer."""
    if op["kind"] not in _BVP_VERBS:
        return None
    ctx = Context(op["dim"])
    u = _reparse(payload, op["format"], ctx)
    if u is None:
        return None
    data = [Expr.from_poly(ctx, poly_of(s, ctx.coords)) for s in op["data"]]
    lap = calculus.laplacian_of
    on_sphere = lambda e, r=1: restrict_to_sphere(e, ctx, r).is_zero()  # noqa: E731
    kind = op["kind"]
    if kind in ("dirichlet", "dirichlet-exterior"):
        ok = lap(u, 1, ctx).is_zero() and on_sphere(u - data[0])
    elif kind == "dirichlet-annulus":
        r, s = (Fraction(v) for v in op["argv"][op["argv"].index("--region") + 1][8:].split(","))
        ok = (
            lap(u, 1, ctx).is_zero()
            and on_sphere(u - data[0], r)
            and on_sphere(u - data[1], s)
        )
    elif kind == "dirichlet-rhs":
        ok = (lap(u, 1, ctx) - data[1]).is_zero() and on_sphere(u - data[0])
    elif kind == "neumann":
        ok = (
            lap(u, 1, ctx).is_zero()
            and on_sphere(calculus.normal_d_sphere(u, ctx) - data[0])
            and u.as_polynomial().constant_term().is_zero()
        )
    elif kind == "exterior-neumann":
        ok = lap(u, 1, ctx).is_zero() and on_sphere(calculus.normal_d_sphere(u, ctx) + data[0])
    elif kind == "bi-dirichlet":
        ok = (
            lap(u, 2, ctx).is_zero()
            and on_sphere(u - data[0])
            and calculus.normal_d_sphere(u, ctx).is_zero()
        )
    else:
        ok = (lap(u, 1, ctx) - data[0]).is_zero() and _divides(
            ctx.norm_sq_poly(), u.as_polynomial(), ctx.var_rank
        )
    return None if ok else "%s answer fails its boundary-value identities" % kind


def _prepare_cli(op):
    argv = op["argv"]
    _LINEAR_DENOMINATOR_MEMO.clear()

    def call():
        return cli.run_command(argv)

    def check(result):
        payload, code = result
        if code != op["expect"]:
            return "exit code %d, expected %d" % (code, op["expect"])
        if code:
            if payload.get("type") != _ERROR_TYPES[code]:
                return "error type %r, expected %s" % (payload.get("type"), _ERROR_TYPES[code])
            return None
        return _cli_bvp_check(op, payload)

    return Prepared(call, check, lambda r: json.dumps([r[1], r[0]], sort_keys=True))


# ---------------------------------------------------------------------------
# registry


class Workload:
    def __init__(self, name, generate, prepare, min_passes):
        self.name = name
        self.generate = generate
        self.prepare = prepare
        self.min_passes = min_passes

    def ops(self, seed):
        return self.generate(random.Random("%s:%d" % (self.name, seed)))


# The reason for each workload is in the comment above its slots.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("quadric-solve", gen_quadric_solve, _prepare_quadric, 2),
        Workload("kernel-calculus", gen_kernel_calculus, _prepare_kernel, 2),
        Workload("cli-batch", gen_cli_batch, _prepare_cli, 4),
    )
}


def shape(op):
    """What the seed must not change: dims, degrees, term counts, verb, format."""
    def degs(spec):
        return tuple(sum(exps) for _, exps in spec) if spec else None

    out = [op["workload"], op["kind"], op["dim"]]
    if "quadric" in op:
        b, c, _ = op["q"]
        out += [op["quadric"], len(b), sum(1 for v in c if v), sum(1 for v in b if v < 0)]
    for key in ("data", "rhs"):
        spec = op.get(key)
        if spec and isinstance(spec[0], list):
            out.append(tuple(degs(s) for s in spec))
        elif spec is not None:
            out.append(degs(spec))
            if op["kind"] == "kelvin_h":
                out.append(tuple(exps[-1] for _, exps in spec))
    if "terms" in op:
        out.append(tuple((sum(t[1]),) + tuple(t[2:]) for t in op["terms"]))
    for key in ("format", "expect"):
        if key in op:
            out.append(op[key])
    if "argv" in op:
        out.append(tuple(a.split("=")[0] for a in op["argv"] if a.startswith("--")))
    return tuple(out)
