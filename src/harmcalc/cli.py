"""Command-line front end.

One verb per operation.  Each verb declares the flags and the number of
expressions it reads, so `harmcalc <verb> --help` lists only those, and
anything else is a usage error (exit 2).  `--dim` is required wherever it
is read (`reflect` reads it only without `--point`); there is no ambient
dimension state.  Vectors and regions are checked against `--dim`.
Output is deterministic text, JSON or LaTeX.  A batch mode reads one
command line per file line and emits a JSON array of results; a bad line
records its error and the rest still run.  A line that names a verb is
parsed by that verb's parser alone, built once per process.  Expressions
and `--weight` radial weights are read by `parser`; this module reads no
DSL tokens itself.

Exit codes: 0 success, 2 parse or usage error, 3 unsupported input class,
4 solvability violation, 5 degree cap or infeasible system, 6 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import shlex
import sys
import time
from fractions import Fraction

from . import bvp, calculus, harmonic, integrate, kernels, transforms
from .approx import approx_scalar
from .arith import read_int
from .errors import DimensionMismatch, HarmcalcError, ParseError, UnsupportedInputError
from .expr import Context, eval_expr, make_context
from .parser import is_name, parse_expression, parse_polynomial, parse_radial
from .render import render_value

# ---------------------------------------------------------------------------
# flag values: argparse turns a ValueError or TypeError raised here into a
# usage error that names the function, so these names read as value kinds


def rational(text):
    """N or N/D."""
    num, sep, den = text.partition("/")
    den = read_int(den) if sep else 1
    if not den:
        raise ValueError("zero denominator")
    return Fraction(read_int(num), den)


def rationals(text):
    """Comma-separated rationals; an empty text has none, and an empty entry is refused."""
    return tuple(rational(t) for t in text.split(",")) if text else ()


def name(text):
    """One identifier, as an expression reads it, other than pi, which
    the text output could not tell from the constant."""
    if not is_name(text) or text == "pi":
        raise argparse.ArgumentTypeError("%r is not a name" % text)
    return text


def names(text):
    """Comma-separated names; an empty text has none."""
    return tuple(name(t) for t in text.split(",")) if text else ()


def int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return integer


def var_times(text):
    """VAR or VAR:TIMES as (VAR, TIMES)."""
    var, sep, times = text.partition(":")
    return var, int_at_least(0)(times) if sep else 1


def about_point(text):
    """Rationals, or symbols that join the context."""
    tokens = (t.strip() for t in text.split(","))
    return [name(t) if t[:1].isalpha() or t[:1] == "_" else rational(t) for t in tokens]


def _quadric(text):
    """b;c;d of b.x^2 + c.x + d after `kind:`; c defaults to 0 and d to -1."""
    blocks = text.partition(":")[2].split(";")
    b, c, d = blocks + [""] * (3 - len(blocks))
    return rationals(b), rationals(c), rational(d) if d else Fraction(-1)


def region(text):
    if text == "sphere":
        return bvp.Sphere()
    if text == "exterior-sphere":
        return bvp.ExteriorSphere()
    if text.startswith("annulus:"):
        r, s = text[len("annulus:") :].split(",")
        return bvp.Annulus(rational(r), rational(s))
    if text.startswith("quadratic:"):
        return bvp.Quadratic(*_quadric(text))
    raise UnsupportedInputError("unknown region %r" % text)


def multiple(text):
    if not text:
        return bvp.Plain()
    if text == "norm2":
        return bvp.NormSquaredMultiple()
    if text.startswith("quadratic:"):
        return bvp.Quadratic(*_quadric(text))
    raise UnsupportedInputError("unknown multiple option %r" % text)


def mirror(text):
    if text in ("unit", "unit-sphere"):
        return transforms.UnitSphere()
    if text.startswith("sphere:"):
        c, r = text[len("sphere:") :].split(";")
        return transforms.SphereMirror(rationals(c), rational(r))
    if text.startswith("hyperplane:"):
        b, t = text[len("hyperplane:") :].split(";")
        return transforms.HyperplaneMirror(rationals(b), rational(t))
    raise UnsupportedInputError("unknown mirror %r" % text)


# ---------------------------------------------------------------------------
# flags and verbs

# every flag a verb can declare, as add_argument keywords
FLAGS = {
    "dim": dict(type=int_at_least(1), help="dimension n"),
    "vars": dict(type=names, help="comma-separated coordinate names (default x1..xn)"),
    "second-vec": dict(type=name, help="label y of a second point y1..yn"),
    "power": dict(type=int_at_least(0), default=1, help="how many times to apply the Laplacian"),
    "by": dict(type=var_times, action="append", help="differentiate by VAR[:TIMES]"),
    "surface": dict(help="level surface q(x) = 0 (default: the unit sphere)"),
    "degree": dict(type=int_at_least(0), default=0, help="degree"),
    "about": dict(type=about_point, help="expansion point: rationals or symbols"),
    "weight": dict(type=parse_radial, help="radial weight in r (default 1)"),
    "b": dict(type=rationals, help="quadric b.x^2 + c.x + d (the ellipsoid q < 0): comma-separated b"),
    "c": dict(type=rationals, default="", help="comma-separated c (default 0)"),
    "d": dict(type=rational, default="-1", help="rational d (default -1)"),
    "m": dict(type=int_at_least(0), help="degree m"),
    "n": dict(type=int_at_least(1), help="dimension n"),
    "ip": dict(help="inner product: sphere, ball or none"),
    "region": dict(
        type=region, default="sphere", help="sphere, exterior-sphere, annulus:R,S or quadratic:B;C;D"
    ),
    "rhs": dict(help="prescribed Laplacian"),
    "multiple": dict(type=multiple, help="norm2 or quadratic:B;C;D (default: none)"),
    "boundary": dict(action="store_true", help="confine the second point to the unit sphere"),
    "mirror": dict(type=mirror, default="unit", help="unit, sphere:C;R or hyperplane:B;T"),
    "point": dict(type=rationals, help="comma-separated rational point"),
    "at": dict(type=rationals, help="comma-separated rational values of every variable"),
    "digits": dict(type=int_at_least(1), default=6, help="significant digits"),
}

VERBS = {}


def verb(name, nargs=0, flags=""):
    """Register a verb that reads `nargs` expressions and the named FLAGS.

    nargs is 0, 1, 2 (one or two) or "+" (one or more); a flag name ending
    in "!" is required.
    """

    def wrap(fn):
        VERBS[name] = (fn, nargs, flags.split())
        return fn

    return wrap


class HelpRequested(ParseError):
    """`--help`: `main` prints the help; inside a batch it is a usage error."""

    def __init__(self, parser):
        super().__init__("%s: --help works only as a whole command line" % parser.prog)
        self.parser = parser


class _Help(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        raise HelpRequested(parser)


class _Parser(argparse.ArgumentParser):
    """Usage errors and --help raise ParseError instead of exiting the process."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, **kwargs)
        self.add_argument("-h", "--help", action=_Help, nargs=0, default=argparse.SUPPRESS,
                          help="show this help message and exit")
        # a token that starts with one '-', such as -x1^2 or -1,2, is a value
        # (argparse reads one as an option unless it looks like a number):
        # -h is the only short option, and argparse matches it first
        self._negative_number_matcher = re.compile(r"^-[^-]")

    def error(self, message):
        raise ParseError("%s: %s" % (self.prog, message))


class _OneOrTwo(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        if len(values) > 2:
            parser.error("takes one or two expressions, got %d" % len(values))
        setattr(namespace, self.dest, values)


def _add_arguments(p, name):
    """Add the arguments of verb `name` (or `batch`) to the parser p; returns p."""
    if name == "batch":
        p.add_argument("file")
        p.add_argument("--out", default=None)
        return p
    _, nargs, flags = VERBS[name]
    if nargs == 2:
        p.add_argument("expr", nargs="+", action=_OneOrTwo, help="one or two expressions")
    elif nargs:
        p.add_argument("expr", nargs=nargs, help="expression")
    for flag in flags:
        key = flag.rstrip("!")
        p.add_argument("--" + key, required=flag.endswith("!"), **FLAGS[key])
    p.add_argument("--format", default="text", choices=("text", "json", "latex"))
    p.add_argument("--out", default=None, help="write the result to this file")
    p.add_argument("--timing", action="store_true", help="elapsed time on stderr")
    return p


def build_parser():
    """The whole tree: one subparser per verb, then `batch`."""
    names = sorted(VERBS) + ["batch"]
    # the usage as Python 3.10-3.12 wrap it (3.13 moves the "..." up a line)
    indent = "\n" + " " * len("usage: harmcalc ")
    ap = _Parser(
        prog="harmcalc",
        usage="%(prog)s [-h]" + indent + "{" + ",".join(names) + "}" + indent + "...",
        description="Exact computer algebra for harmonic function theory.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for name in names:
        _add_arguments(sub.add_parser(name), name)
    return ap


@functools.cache
def verb_parser(name):
    """The parser of one verb (or `batch`), the same as its subparser in
    `build_parser`; built once per process and reused."""
    return _add_arguments(_Parser(prog="harmcalc " + name), name)


def parse_command(argv):
    """Parse one command line.

    A line that starts with a verb is parsed by that verb's parser alone.
    Any other line (top-level --help, an unknown verb, an empty line, an
    option before the verb) goes to the whole tree, which reports it.
    """
    name = argv[0] if argv else None
    if name != "batch" and name not in VERBS:
        return build_parser().parse_args(argv)
    args, extra = verb_parser(name).parse_known_args(argv[1:])
    if extra:
        # the whole tree reports what the verb's parser leaves over
        raise ParseError("harmcalc: unrecognized arguments: %s" % " ".join(extra))
    args.verb = name
    return args


def _ctx(args, label=None, extra=()):
    """Context from --dim and --vars, plus a block label1..labeln if given."""
    coords = args.vars or None
    vecs = (label,) if label else ()
    return make_context(args.dim, extra_vecs=vecs, extra=extra, coords=coords)


def _half_space_context(args):
    """Coordinates x1..x_(n-1), y; second point t1..t_(n-1), u."""
    n = args.dim
    if n < 2:
        raise UnsupportedInputError("half-space verbs need --dim >= 2")
    coords = tuple("x%d" % (i + 1) for i in range(n - 1)) + ("y",)
    extra = tuple("t%d" % (i + 1) for i in range(n - 1)) + ("u",)
    return Context(n, coords=coords, extra=extra)


def _parsed(args, parse=parse_expression):
    """The one expression and its context; with --second-vec Y (where the
    verb declares it) the expression may use the vector Y = (Y1..Yn)."""
    label = getattr(args, "second_vec", None)
    ctx = _ctx(args, label)
    return parse(args.expr[0], ctx, {label: ctx.extra} if label else None), ctx


def _point(args, ctx):
    """--at as values of every coordinate and symbol of ctx, in order."""
    names = ctx.coords + ctx.extra
    if len(args.at) != len(names):
        raise DimensionMismatch("--at needs %d values, got %d" % (len(names), len(args.at)))
    return dict(zip(names, args.at))


@verb("volume", 0, "dim!")
def _v_volume(args):
    return integrate.unit_ball_volume(args.dim), None


@verb("surface-area", 0, "dim!")
def _v_area(args):
    return integrate.unit_sphere_area(args.dim), None


@verb("dim-harmonic", 0, "m! n!")
def _v_dim_h(args):
    return harmonic.dim_harmonic(args.m, args.n), None


@verb("laplacian", 1, "dim! vars second-vec power")
def _v_lap(args):
    e, ctx = _parsed(args)
    return calculus.laplacian_of(e, args.power, ctx), ctx


@verb("gradient", 1, "dim! vars second-vec")
def _v_grad(args):
    e, ctx = _parsed(args)
    return calculus.gradient_of(e, ctx), ctx


@verb("partial", 1, "dim! vars second-vec by")
def _v_partial(args):
    e, ctx = _parsed(args)
    return calculus.partial_d(e, args.by or [], ctx), ctx


@verb("normal-d", 1, "dim! vars surface")
def _v_normal(args):
    e, ctx = _parsed(args)
    if args.surface:
        q = parse_polynomial(args.surface, ctx)
        return calculus.normal_d_surface(e, q, ctx), ctx
    return calculus.normal_d_sphere(e, ctx), ctx


@verb("divergence", "+", "dim! vars")
@verb("jacobian", "+", "dim! vars")
def _v_field(args):
    ctx = _ctx(args)
    comps = tuple(parse_expression(s, ctx) for s in args.expr)
    if args.verb == "divergence":
        return calculus.divergence_of(comps, ctx), ctx
    return calculus.jacobian_of(comps, ctx), ctx


@verb("homogeneous", 1, "dim! vars degree about")
@verb("taylor", 1, "dim! vars degree about")
def _v_expand(args):
    about = args.about
    if about and len(about) != args.dim:
        raise DimensionMismatch("--about needs %d values, got %d" % (args.dim, len(about)))
    ctx = _ctx(args, extra=tuple(t for t in about or () if isinstance(t, str)))
    p = parse_polynomial(args.expr[0], ctx)
    if args.verb == "homogeneous":
        return calculus.homogeneous_part(p, args.degree, ctx, about), ctx
    return calculus.taylor_poly(p, args.degree, ctx, about), ctx


@verb("harmonic-conjugate", 1, "dim! vars")
def _v_conj(args):
    p, ctx = _parsed(args, parse_polynomial)
    return calculus.harmonic_conjugate(p, ctx), ctx


@verb("integrate-sphere", 1, "dim! vars second-vec")
def _v_isphere(args):
    p, ctx = _parsed(args, parse_polynomial)
    return integrate.integrate_sphere(p, ctx), ctx


@verb("integrate-ball", 1, "dim! vars second-vec weight")
def _v_iball(args):
    p, ctx = _parsed(args, parse_polynomial)
    radial = args.weight or integrate.RadialFunction.one()
    return integrate.integrate_ball(p, radial, ctx), ctx


@verb("integrate-ellipsoid-volume", 1, "dim! vars second-vec b! c d")
@verb("integrate-ellipsoid-area", 1, "dim! vars second-vec b! c d")
def _v_ellipsoid(args):
    p, ctx = _parsed(args, parse_polynomial)
    q = integrate.Quadratic(args.b, args.c, args.d)
    if args.verb == "integrate-ellipsoid-volume":
        return integrate.integrate_ellipsoid_volume(p, q, ctx), ctx
    return integrate.integrate_ellipsoid_area(p, q, ctx), ctx


@verb("decompose", 1, "dim! vars")
def _v_decomp(args):
    p, ctx = _parsed(args, parse_polynomial)
    pairs = harmonic.harmonic_decompose(p, ctx)
    return tuple((h, Fraction(e)) for h, e in pairs), ctx


@verb("basis-h", 0, "dim! vars degree ip")
def _v_basis(args):
    ctx = _ctx(args)
    ip = None
    if args.ip == "sphere":
        ip = harmonic.sphere_inner_product()
    elif args.ip == "ball":
        ip = harmonic.ball_inner_product()
    elif args.ip not in (None, "", "none"):
        raise UnsupportedInputError("unknown inner product %r" % args.ip)
    return tuple(harmonic.basis_harmonic(args.degree, ctx, ip)), ctx


@verb("zonal", 0, "dim! vars degree second-vec")
def _v_zonal(args):
    ctx = _ctx(args, args.second_vec or "y")
    return harmonic.zonal_harmonic(args.degree, ctx, ctx.extra), ctx


@verb("dirichlet", 2, "dim! vars region rhs")
def _v_dirichlet(args):
    ctx = _ctx(args)
    polys = [parse_polynomial(s, ctx) for s in args.expr]
    data = polys[0] if len(polys) == 1 else tuple(polys)
    rhs = parse_polynomial(args.rhs, ctx) if args.rhs else None
    return bvp.dirichlet(data, args.region, ctx, rhs=rhs), ctx


@verb("anti-laplacian", 1, "dim! vars multiple")
def _v_antilap(args):
    e, ctx = _parsed(args)
    mode = args.multiple or bvp.Plain()
    if not isinstance(mode, bvp.Plain):
        e = e.as_polynomial()
    return bvp.anti_laplacian(e, mode, ctx), ctx


@verb("neumann", 2, "dim! vars region")
def _v_neumann(args):
    ctx = _ctx(args)
    f, g = [parse_polynomial(s, ctx) for s in args.expr] + [None] * (2 - len(args.expr))
    return bvp.neumann(f, g, args.region, ctx), ctx


@verb("exterior-neumann", 1, "dim! vars")
def _v_ext_neumann(args):
    p, ctx = _parsed(args, parse_polynomial)
    return bvp.exterior_neumann(p, ctx), ctx


@verb("bi-dirichlet", 1, "dim! vars")
def _v_bidir(args):
    p, ctx = _parsed(args, parse_polynomial)
    return bvp.bi_dirichlet(p, ctx), ctx


@verb("poisson-kernel", 0, "dim! vars second-vec boundary")
def _v_poisson(args):
    ctx = _ctx(args, args.second_vec or "y")
    return kernels.poisson_kernel(ctx, ctx.extra, on_boundary=args.boundary), ctx


@verb("bergman-kernel", 0, "dim! vars second-vec")
def _v_bergman(args):
    ctx = _ctx(args, args.second_vec or "y")
    return kernels.bergman_kernel(ctx, ctx.extra), ctx


@verb("poisson-kernel-h", 0, "dim!")
@verb("bergman-kernel-h", 0, "dim!")
def _v_half_space_kernel(args):
    ctx = _half_space_context(args)
    t, u = ctx.extra[:-1], ctx.extra[-1]
    if args.verb == "poisson-kernel-h":
        return kernels.poisson_kernel_h(ctx, t, u), ctx
    return kernels.bergman_kernel_h(ctx, t, u), ctx


@verb("bergman-projection", 1, "dim! vars")
def _v_projection(args):
    p, ctx = _parsed(args, parse_polynomial)
    return kernels.bergman_projection(p, ctx), ctx


@verb("kelvin", 1, "dim! vars second-vec")
def _v_kelvin(args):
    e, ctx = _parsed(args)
    return transforms.kelvin(e, ctx), ctx


@verb("kelvin-h", 1, "dim! vars")
def _v_kelvin_h(args):
    e, ctx = _parsed(args)
    return transforms.kelvin_h(e, ctx), ctx


@verb("reflect", 0, "dim vars mirror point")
def _v_reflect(args):
    """--dim is needed only without --point; with both, they must agree."""
    if args.point:
        if args.dim not in (None, len(args.point)):
            raise DimensionMismatch("--point needs %d values, got %d" % (args.dim, len(args.point)))
        return transforms.reflect_point(args.point, args.mirror), None
    if args.dim is None:
        raise ParseError("harmcalc reflect: --dim is required without --point")
    ctx = _ctx(args)
    return transforms.reflect_map(args.mirror, ctx), ctx


@verb("phi", 0, "dim! vars")
def _v_phi(args):
    ctx = _ctx(args)
    return transforms.phi_map(ctx), ctx


@verb("eval", 1, "dim! vars second-vec at!")
def _v_eval(args):
    e, ctx = _parsed(args)
    return eval_expr(e, _point(args, ctx), ctx), ctx


@verb("approx", 1, "dim! vars second-vec at digits")
def _v_approx(args):
    e, ctx = _parsed(args)
    if args.at:
        value = eval_expr(e, _point(args, ctx), ctx)
    else:
        p = e.as_polynomial()
        if not p.is_constant():
            raise UnsupportedInputError("approx needs --at unless the expression is constant")
        value = p.constant_term()
    return approx_scalar(value, args.digits), ctx


# ---------------------------------------------------------------------------
# running


def _error(exc):
    """Payload and exit code of a failure.  An exception that is not a
    HarmcalcError is an internal invariant failure (exit 6), told in one line."""
    if isinstance(exc, HarmcalcError):
        return {"error": str(exc), "type": type(exc).__name__}, exc.exit_code
    return {"error": " ".join(str(exc).split()), "type": type(exc).__name__}, 6


def run_command(argv):
    """Execute one command line; returns (payload, exit_code).

    The payload is returned, never written, so `--out` is a usage error
    here, like `--help`.
    """
    try:
        args = parse_command(argv)
        if args.out:
            raise ParseError("batch: --out works only as a whole command line")
        return execute(args)
    except Exception as exc:
        return _error(exc)


def execute(args):
    """Run a parsed command line; returns (payload, exit_code)."""
    if args.verb == "batch":
        try:
            with open(args.file, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return _error(ParseError("batch: cannot read %s: %s" % (args.file, exc.strerror)))
        results = []
        for line, undecodable in _batch_lines(data):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if undecodable is not None:
                    raise undecodable
                argv = _split_line(line)
                if argv[:1] == ["batch"]:  # the parser takes no option before the verb
                    raise ValueError("a batch line cannot run batch")
                payload, code = run_command(argv)
            except ValueError as exc:  # not UTF-8, an unbalanced quote, or a nested batch
                payload, code = _error(ParseError("batch: %s" % exc))
            results.append({"command": line, "exit": code, "result": payload})
        return results, 0
    fn = VERBS[args.verb][0]
    started = time.monotonic()
    try:
        value, ctx = fn(args)
        if args.timing:
            # timing goes to stderr so stdout stays byte-identical across runs
            print("elapsed-ms: %.1f" % (1000.0 * (time.monotonic() - started)), file=sys.stderr)
        fmt = args.format
        if isinstance(value, tuple):
            rendered = [render_value(v, fmt, ctx) for v in value]
            payload = rendered if fmt == "json" else "\n".join(str(r) for r in rendered)
        else:
            payload = render_value(value, fmt, ctx)
    except Exception as exc:
        return _error(exc)
    return payload, 0


# a piece of a batch line as shlex.split reads it: a run of blanks, which
# ends a word, or a part of a word: plain characters, an escaped character,
# a single-quoted string, or a double-quoted one, in which only \" and \\
# are escapes; the last alternative meets an unclosed quote or a trailing
# backslash
_PIECE = re.compile(r"""([ \t\r\n]+)|([^ \t\r\n'"\\]+)|\\(.)|'([^']*)'|"([^"\\]*(?:\\.[^"\\]*)*)"|.""", re.S)
_IN_DOUBLE = re.compile(r'\\([\\"])')


def _split_line(line):
    """The words of `shlex.split(line)`, in time linear in the line's length."""
    parts = []  # the parts of the words, None between two words
    for m in _PIECE.finditer(line):
        kind = m.lastindex
        if kind is None:  # malformed: shlex.split raises its error
            return shlex.split(line)
        parts.append(None if kind == 1 else _IN_DOUBLE.sub(r"\1", m[5]) if kind == 5 else m[kind])
    return ["".join(word) for blank, word in itertools.groupby(parts, lambda p: p is None) if not blank]


def _batch_lines(data):
    """(line, UnicodeDecodeError or None) for each line of a batch file.

    Each line is decoded as UTF-8 on its own, whatever the locale, so a
    line that does not decode is that line's error and the rest still run.
    """
    for chunk in data.split(b"\n"):
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            yield chunk.decode("utf-8", "backslashreplace"), exc
            continue
        for line in text.splitlines():
            yield line, None


def main(argv=None):
    try:
        args = parse_command(sys.argv[1:] if argv is None else argv)
        payload, code = execute(args)
        if not code:
            _write(payload, args.out)
    except HelpRequested as exc:
        exc.parser.print_help()
        exc.parser.exit()
    except Exception as exc:
        payload, code = _error(exc)
    if code:
        print("%s: %s" % (payload["type"], payload["error"]), file=sys.stderr)
    return code


def _write(payload, out):
    if isinstance(payload, (dict, list)):
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = str(payload)
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        if not out:
            # the interpreter flushes stdout again at exit: point it at
            # devnull so that flush fails on nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ParseError("cannot write %s: %s" % (out or "stdout", exc.strerror)) from None


if __name__ == "__main__":
    sys.exit(main())
