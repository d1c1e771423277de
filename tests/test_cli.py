import hashlib
import itertools
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import harmcalc
from harmcalc import cli
from harmcalc.cli import VERBS, main, parse_radial, run_command
from harmcalc.errors import HarmcalcError
from harmcalc.integrate import RadialFunction
from harmcalc.render import render_value
from harmcalc.scalar import Scalar


def run(argv):
    return run_command(list(argv))


def test_volume_and_area():
    out, code = run(["volume", "--dim", "4"])
    assert code == 0 and out == "pi^2/2"
    out, code = run(["surface-area", "--dim", "3"])
    assert code == 0 and out == "4*pi"


def test_dim_harmonic_verb():
    out, code = run(["dim-harmonic", "--m", "12", "--n", "100"])
    assert code == 0 and out == "3901030682812965"


def test_dirichlet_verb_matches_library():
    out, code = run(["dirichlet", "x1^4*x2^2", "--dim", "5"])
    assert code == 0
    from conftest import E
    from harmcalc.expr import Context
    from harmcalc.parser import parse_expression

    ctx = Context(5)
    back = parse_expression(out, ctx)
    fix = E(
        "1/15015*(143 - 273*||x||^2 + 165*||x||^4 - 35*||x||^6 + 910*x1^2"
        " - 1540*||x||^2*x1^2 + 630*||x||^4*x1^2 + 1155*x1^4 - 1155*||x||^2*x1^4"
        " + 455*x2^2 - 770*||x||^2*x2^2 + 315*||x||^4*x2^2 + 6930*x1^2*x2^2"
        " - 6930*||x||^2*x1^2*x2^2 + 15015*x1^4*x2^2)",
        ctx,
    )
    assert (back - fix).is_zero()


def test_exit_code_solvability():
    payload, code = run(["neumann", "x1^2", "--dim", "3"])
    assert code == 4
    assert payload["type"] == "SolvabilityViolation"


def test_exit_code_unsupported():
    payload, code = run(["integrate-ball", "x1^2", "--dim", "3", "--weight", "r^-5"])
    assert code == 3
    assert payload["type"] == "DivergentRadialIntegral"


def test_parse_error_exit_code():
    payload, code = run(["laplacian", "x1^4*x2^2 + (1/2", "--dim", "3"])
    assert code == 2
    assert payload["type"] == "ParseError"


def test_degree_cap_exit_code():
    # an infeasible quadratic Dirichlet cannot be provoked with valid
    # ellipsoids at small degree; exercise the error class mapping directly
    from harmcalc.errors import InfeasibleSystem

    assert InfeasibleSystem("x").exit_code == 5


def test_radial_weight_parser():
    r = parse_radial("1 - r^2")
    assert r.lin_den is None
    assert r.terms == (
        (Scalar.from_fraction(1), 0, 0),
        (Scalar.from_fraction(-1), 2, 0),
    )
    r2 = parse_radial("1/(1 + r)")
    assert r2.lin_den == (1, 1)
    r3 = parse_radial("r^2*log(r)^3")
    assert r3.terms == ((Scalar.from_fraction(1), 2, 3),)
    r4 = parse_radial("1/(2 + 3*r)")
    assert r4.lin_den == (2, 3)


# the weight grammar: accepted weights with their values, and malformed ones
# with their exact error type, message and location
WEIGHTS = [
    ("1 - r^2", RadialFunction(((Scalar.from_fraction(1), 0, 0), (Scalar.from_fraction(-1), 2, 0)))),
    ("r^-5", RadialFunction.power(-5)),
    ("2/3*r^2*log(r)^3", RadialFunction.power(2, 3, Fraction(2, 3))),
    ("1/(2 + 3*r)", RadialFunction.linear_reciprocal(2, 3)),
    # a leading minus signs the first product
    ("-r^2 + 1", RadialFunction(((Scalar.from_fraction(-1), 2, 0), (Scalar.from_fraction(1), 0, 0)))),
]

BAD_WEIGHTS = [
    ("(1+r)", "ParseError", "unexpected ( at line 1, column 1 (expected r, log, number)", 1, 1),
    ("log(x)", "ParseError", "log(r) only at line 1, column 5 (expected r)", 1, 5),
    ("r/(1+x)", "ParseError", "linear denominator must be in r at line 1, column 6 (expected r)", 1, 6),
    ("r r", "ParseError", "unexpected r at line 1, column 3 (expected end of input)", 1, 3),
    ("r^", "ParseError", "unexpected end of input at line 1, column 3 (expected integer exponent)", 1, 3),
    ("2*", "ParseError", "unexpected end of input at line 1, column 3 (expected r, log, number)", 1, 3),
    ("", "ParseError", "unexpected end of input at line 1, column 1 (expected r, log, number)", 1, 1),
    # a log power takes no sign: log(r)^-1 is outside the weight class
    ("log(r)^-1", "ParseError", "unexpected - at line 1, column 8 (expected nonnegative integer exponent)", 1, 8),
    ("r^2*log(r)^-2", "ParseError", "unexpected - at line 1, column 12 (expected nonnegative integer exponent)", 1, 12),
]


@pytest.mark.parametrize("src, want", WEIGHTS)
def test_weight_values(src, want):
    assert parse_radial(src) == want


@pytest.mark.parametrize("src, error, message, line, column", BAD_WEIGHTS)
def test_malformed_weight(src, error, message, line, column):
    with pytest.raises(HarmcalcError) as info:
        parse_radial(src)
    exc = info.value
    assert (type(exc).__name__, str(exc), exc.line, exc.column) == (error, message, line, column)


def test_negative_log_power_is_a_usage_error(capsys):
    assert main(["integrate-ball", "1", "--dim", "3", "--weight", "log(r)^-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "ParseError: unexpected - at line 1, column 8 (expected nonnegative integer exponent)"
    ]


def test_weight_with_a_leading_minus():
    out, code = run(["integrate-ball", "1", "--dim", "3", "--weight=-r^2"])
    assert (out, code) == ("-4*pi/5", 0)


# a value or an expression may start with "-": one line per kind of value.
# The parsers set argparse's private negative-number pattern, so a Python
# whose argparse stops reading it fails here.
LEADING_MINUS = [
    ('laplacian "-x1^2" --dim 3', "-2"),
    ("eval x1 --dim 2 --at -1,2", "-1"),
    ("reflect --point -1,2", "-1/5\n2/5"),
    ("homogeneous x1^2 --dim 2 --about -1,a --degree 1", "-2 - 2*x1"),
    ("integrate-ellipsoid-volume 1 --dim 2 --b 1,1 --c -1,0 --d -3/2", "7*pi/4"),
    ("integrate-ball 1 --dim 3 --weight -r^2+1", "8*pi/15"),
]


@pytest.mark.parametrize("line, want", LEADING_MINUS, ids=[r[0].split()[0] for r in LEADING_MINUS])
def test_values_may_start_with_minus(line, want, tmp_path, capsys):
    assert main(shlex.split(line)) == 0
    assert capsys.readouterr().out == want + "\n"
    script = tmp_path / "commands.txt"
    script.write_text(line + "\n")
    assert run(["batch", str(script)]) == ([{"command": line, "exit": 0, "result": want}], 0)


def test_expression_starting_with_h_needs_double_dash():
    # argparse reads -h... as -h with an argument, whatever the pattern
    line = ["laplacian", "--dim", "2", "--vars", "h,k"]
    assert run(line + ["-h^2"])[1] == 2
    assert run(line + ["--", "-h^2"]) == ("-2", 0)


def test_weight_long_literal_is_exact():
    # past Python's 4300-digit limit on int(str)
    digits = "1" + "0" * 4999 + "1"
    assert parse_radial(digits + "*r") == RadialFunction.power(1, 0, 10**5000 + 1)


def test_weight_with_deep_linear_denominator_answers():
    # the moment of r^q/(c0 + c1 r) at a q past the interpreter's recursion limit
    out, code = run(["integrate-ball", "1", "--dim", "3", "--weight", "r^3000/(1 + r)"])
    assert code == 0 and out.endswith(" + 4*pi*log(2)")


def test_integrate_ball_verb():
    out, code = run(["integrate-ball", "x1^2*x2^4", "--dim", "7", "--weight", "1/(1 + r)"])
    assert code == 0
    assert "log(2)" in out and "pi^3" in out


def test_formats_and_determinism():
    args = ["laplacian", "x1^2*x2", "--dim", "3", "--format", "json"]
    out1, _ = run(args)
    out2, _ = run(args)
    assert out1 == out2
    assert out1 == {"terms": [{"poly": "2*x2", "factors": []}]}
    latex, _ = run(["volume", "--dim", "3", "--format", "latex"])
    assert "\\pi" in latex


def test_render_scalar_text():
    out, _ = run(["integrate-sphere", "x1^2*x2^4*x3^6", "--dim", "3"])
    assert out == "1/3003"


def test_reflect_point_verb():
    out, code = run(["reflect", "--point", "1,-2,5,11"])
    assert code == 0
    assert out.split("\n") == ["1/151", "-2/151", "5/151", "11/151"]


def test_normal_d_plane_is_exact():
    # grad q . grad q is the constant 2 on a plane: the answer is 1/sqrt(2)
    assert run(["normal-d", "x1", "--dim", "2", "--surface", "x1 + x2"]) == ("(sqrt(2)/2)", 0)
    payload, code = run(["normal-d", "x1", "--dim", "2", "--surface", "x1 + x2", "--format", "json"])
    assert code == 0
    assert payload == {"terms": [{"factors": [], "poly": "(sqrt(2)/2)"}]}


def test_eval_and_approx():
    out, code = run(["eval", "norm(x)", "--dim", "2", "--at", "3,4"])
    assert code == 0 and out == "5"
    out, code = run(["approx", "norm(x)^2", "--dim", "2", "--at", "1,1", "--digits", "3"])
    assert code == 0 and out == "2.00"


def test_batch_mode(tmp_path):
    script = tmp_path / "commands.txt"
    script.write_text(
        "volume --dim 4\n"
        "# a comment line\n"
        "dim-harmonic --m 1 --n 7\n"
        "neumann x1^2 --dim 3\n"
    )
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [0, 0, 4]
    assert results[0]["result"] == "pi^2/2"
    assert results[1]["result"] == "7"


def test_main_entrypoint(capsys):
    code = main(["volume", "--dim", "4"])
    out = capsys.readouterr().out.strip()
    assert code == 0 and out == "pi^2/2"


def test_main_error_path(capsys):
    code = main(["neumann", "x1^2", "--dim", "3"])
    err = capsys.readouterr().err
    assert code == 4
    assert "SolvabilityViolation" in err


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code = main(["volume", "--dim", "4", "--out", str(target)])
    assert code == 0
    assert target.read_text().strip() == "pi^2/2"


def test_console_script_runs():
    # the child imports the same harmcalc as this process, also when the
    # source tree is on sys.path only through pytest's `pythonpath`
    src = os.path.dirname(os.path.dirname(harmcalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "harmcalc.cli", "dim-harmonic", "--m", "2", "--n", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_stdout_that_cannot_be_written_is_a_usage_error(unbuffered):
    # one stderr line and exit 2, as for --out; the interpreter's own flush
    # of stdout at exit adds nothing
    src = os.path.dirname(os.path.dirname(harmcalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
    cmd = [sys.executable, "-m", "harmcalc.cli"]
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(cmd + ["volume", "--dim", "3"], stdout=full, stderr=subprocess.PIPE, env=env)
        assert (proc.returncode, proc.stderr) == (2, b"ParseError: cannot write stdout: No space left on device\n")
    # 77,501 bytes, more than a pipe holds: the write meets the closed pipe
    proc = subprocess.Popen(
        cmd + ["basis-h", "--dim", "3", "--degree", "30"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert len(os.read(proc.stdout.fileno(), 1)) == 1
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, b"ParseError: cannot write stdout: Broken pipe\n")


def test_infeasible_system_exit_code():
    # constants are unreachable over the harmonic surface x1^2 - x2^2 = 0,
    # so the degree schedule runs out
    payload, code = run(["dirichlet", "x1^2", "--dim", "2", "--region", "quadratic:1,-1;;0"])
    assert code == 5
    assert payload["type"] == "InfeasibleSystem"


def test_unknown_variable_exit_code():
    payload, code = run(["laplacian", "x9", "--dim", "3"])
    assert code == 3
    assert payload["type"] == "UnknownVariable"


# ---------------------------------------------------------------------------
# per-verb table: one or more lines per verb; together a verb's lines use
# every flag it declares.  The outputs are pinned byte for byte, so the
# argument layer cannot change an answer.

CLI_TABLE = [
    (
        'volume --dim 3 --format latex',
        '\\frac{4}{3}\\pi',
    ),
    (
        'surface-area --dim 4 --format json',
        {'terms': [{'coeff': '2', 'logFactors': [], 'piHalfExp': 4, 'radicand': 1}]},
    ),
    (
        'dim-harmonic --m 3 --n 4 --timing --format json',
        16,
    ),
    (
        'laplacian "dot(x,y)*norm(x)^4 + a^3" --dim 3 --vars a,b,c --second-vec y --power 2 --format json',
        {'terms': [{'factors': [], 'poly': '280*c*y3 + 280*b*y2 + 280*a*y1'}]},
    ),
    (
        'gradient "p*y2*norm(x)" --dim 2 --vars p,q --second-vec y --format latex',
        ('\\left(q^{2} y2 + 2 p^{2} y2\\right) \\lVert x \\rVert^{-1}\n'
         'p q y2 \\lVert x \\rVert^{-1}'),
    ),
    (
        'partial "s^3*t^2*y1" --dim 2 --vars s,t --second-vec y --by s:2 --by t --by y1',
        '12*s*t',
    ),
    (
        'normal-d "u^2*v" --dim 2 --vars u,v --surface "u^2 + 2*v^2" --format latex',
        '4 u^{2} v (4 v^{2} + u^{2})^{-1/2}',
    ),
    (
        'normal-d "x1^2*x2*norm(x)" --dim 3 --format json',
        {'terms': [{'factors': [], 'poly': '4*x1^2*x2'}]},
    ),
    (
        'divergence "a^2" "a*b" --dim 2 --vars a,b --format json',
        {'terms': [{'factors': [], 'poly': '3*a'}]},
    ),
    (
        'jacobian "s*t" "t^2" "w" --dim 3 --vars s,t,w --format latex',
        '(t, s, 0)\n(0, 2 t, 0)\n(0, 0, 1)',
    ),
    (
        'homogeneous "x1^3 + x1*x2" --dim 2 --degree 2 --about 1,a',
        '3 + a - x2 - 6*x1 - a*x1 + x1*x2 + 3*x1^2',
    ),
    (
        'taylor "s^3*t" --dim 2 --vars s,t --degree 2 --about 1/2,2 --format json',
        {'poly': '3/4 - 1/4*t - 3*s + 3/4*s*t + 3*s^2'},
    ),
    (
        'harmonic-conjugate "u^3 - 3*u*v^2" --dim 2 --vars u,v --format latex',
        '-v^{3} + 3 u^{2} v',
    ),
    (
        'integrate-sphere "a^2*b^2*y1^2" --dim 3 --vars a,b,c --second-vec y',
        '1/15*y1^2',
    ),
    (
        'integrate-ball "a^2*y2" --dim 3 --vars a,b,c --second-vec y --weight "1 - r^2" --format json',
        {'poly': '(8*pi/105)*y2'},
    ),
    (
        'integrate-ellipsoid-volume "a^2*y1" --dim 3 --vars a,b,c --second-vec y --b 1,2,3 --c 1,0,0 --d=-2 --format latex',
        '\\left(\\frac{21}{40}\\pi \\sqrt{6}\\right) y1',
    ),
    (
        'integrate-ellipsoid-area "x1^2" --dim 3 --b 1,1,1 --c 0,2,0 --d 0',
        '2*pi/3',
    ),
    (
        'decompose "a^4" --dim 3 --vars a,b,c --format json',
        [[{'poly': '3/35*c^4 + 6/35*b^2*c^2 + 3/35*b^4 - 24/35*a^2*c^2 - 24/35*a^2*b^2 '
                   '+ 8/35*a^4'},
          '0'],
         [{'poly': '-2/7*c^2 - 2/7*b^2 + 4/7*a^2'}, '2'],
         [{'poly': '1/5'}, '4']],
    ),
    (
        'basis-h --dim 3 --vars a,b,c --degree 2 --ip sphere --format latex',
        ('\\left(-\\frac{1}{2}\\sqrt{15}\\right) c^{2} + '
         '\\left(\\frac{1}{2}\\sqrt{15}\\right) a^{2}\n'
         '\\left(\\sqrt{15}\\right) b c\n'
         '\\left(\\frac{1}{2}\\sqrt{5}\\right) c^{2} + \\left(-\\sqrt{5}\\right) b^{2} '
         '+ \\left(\\frac{1}{2}\\sqrt{5}\\right) a^{2}\n'
         '\\left(\\sqrt{15}\\right) a c\n'
         '\\left(\\sqrt{15}\\right) a b'),
    ),
    (
        'basis-h --dim 2 --degree 3 --ip ball',
        ('(-2*pi^(-1/2)*sqrt(2))*x2^3 + (6*pi^(-1/2)*sqrt(2))*x1^2*x2\n'
         '(-6*pi^(-1/2)*sqrt(2))*x1*x2^2 + (2*pi^(-1/2)*sqrt(2))*x1^3'),
    ),
    (
        'basis-h --dim 3 --degree 2 --format json',
        [{'poly': '-x3^2 + x1^2'},
         {'poly': 'x2*x3'},
         {'poly': '-x2^2 + x1^2'},
         {'poly': 'x1*x3'},
         {'poly': 'x1*x2'}],
    ),
    (
        'zonal --dim 3 --vars a,b,c --degree 2 --second-vec z',
        ('5*c^2*z3^2 - 5/2*c^2*z2^2 - 5/2*c^2*z1^2 + 15*b*c*z2*z3 - 5/2*b^2*z3^2 + '
         '5*b^2*z2^2 - 5/2*b^2*z1^2 + 15*a*c*z1*z3 + 15*a*b*z1*z2 - 5/2*a^2*z3^2 - '
         '5/2*a^2*z2^2 + 5*a^2*z1^2'),
    ),
    (
        'dirichlet "x1^2" --dim 3 --region sphere --format json',
        {'terms': [{'factors': [], 'poly': '1/3 - 1/3*x3^2 - 1/3*x2^2 + 2/3*x1^2'}]},
    ),
    (
        'dirichlet "a" "b" --dim 3 --vars a,b,c --region annulus:1,2 --format latex',
        ('\\frac{8}{7} b - \\frac{1}{7} a + \\left(-\\frac{8}{7} b + \\frac{8}{7} '
         'a\\right) \\lVert x \\rVert^{-3}'),
    ),
    (
        'dirichlet "x1^2" --dim 3 --region exterior-sphere',
        ('(-1/3*x3^2 - 1/3*x2^2 + 2/3*x1^2 + 1/3*x3^4 + 2/3*x2^2*x3^2 + 1/3*x2^4 + '
         '2/3*x1^2*x3^2 + 2/3*x1^2*x2^2 + 1/3*x1^4)*||x||^-5'),
    ),
    (
        'dirichlet "x1^2" --dim 3 --region "quadratic:1,2,3;0,1,0;-1" --rhs "x2" --format json',
        {'terms': [{'factors': [],
                    'poly': '7/40 - 9/40*x2 - 21/40*x3^2 - 3/10*x2^2 + 33/40*x1^2 + '
                            '3/20*x2*x3^2 + 1/10*x2^3 + 1/20*x1^2*x2'}]},
    ),
    (
        'anti-laplacian "x1^2*norm(x)" --dim 3 --format latex',
        ('\\left(-\\frac{1}{360} x3^{2} - \\frac{1}{360} x2^{2} + \\frac{7}{180} '
         'x1^{2}\\right) \\lVert x \\rVert^{3}'),
    ),
    (
        'anti-laplacian "a^2" --dim 3 --vars a,b,c --multiple norm2',
        ('-1/140*c^4 - 1/70*b^2*c^2 - 1/140*b^4 + 2/35*a^2*c^2 + 2/35*a^2*b^2 + '
         '9/140*a^4'),
    ),
    (
        'anti-laplacian "x1" --dim 3 --multiple "quadratic:1,2,3;;-1" --format json',
        {'terms': [{'factors': [],
                    'poly': '-1/16*x1 + 3/16*x1*x3^2 + 1/8*x1*x2^2 + 1/16*x1^3'}]},
    ),
    (
        'neumann "x1" --dim 3 --format latex',
        'x1',
    ),
    (
        'neumann "x1*x2" "x3" --dim 3 --vars x1,x2,x3',
        '-3/10*x3 + 1/2*x1*x2 + 1/10*x3^3 + 1/10*x2^2*x3 + 1/10*x1^2*x3',
    ),
    (
        'neumann "x1*x2" --dim 3 --region "quadratic:1,2,3;;-1" --format json',
        {'terms': [{'factors': [], 'poly': '1/6*x1*x2'}]},
    ),
    (
        'exterior-neumann "a*b" --dim 3 --vars a,b,c --format latex',
        '\\frac{1}{3} a b \\lVert x \\rVert^{-5}',
    ),
    (
        'bi-dirichlet "a^2" --dim 3 --vars a,b,c',
        ('1/3 - 2/3*c^2 - 2/3*b^2 + 4/3*a^2 + 1/3*c^4 + 2/3*b^2*c^2 + 1/3*b^4 - '
         '1/3*a^2*c^2 - 1/3*a^2*b^2 - 2/3*a^4'),
    ),
    (
        'poisson-kernel --dim 2 --vars a,b --second-vec z --boundary --format json',
        {'terms': [{'factors': [{'base': '1 - 2*b*z2 + b^2 - 2*a*z1 + a^2',
                                 'halfExp': -2,
                                 'logPow': 0}],
                    'poly': '1 - b^2 - a^2'}]},
    ),
    (
        'poisson-kernel --dim 2 --format latex',
        ('\\left(1 - x2^{2} y2^{2} - x2^{2} y1^{2} - x1^{2} y2^{2} - x1^{2} '
         'y1^{2}\\right) (1 - 2 x2 y2 - 2 x1 y1 + x2^{2} y2^{2} + x2^{2} y1^{2} + '
         'x1^{2} y2^{2} + x1^{2} y1^{2})^{-1}'),
    ),
    (
        'poisson-kernel-h --dim 2',
        '((pi^(-1))*u + (pi^(-1))*y)*(u^2 + t1^2 + 2*u*y + y^2 - 2*t1*x1 + x1^2)^-1',
    ),
    (
        'bergman-kernel --dim 2 --vars a,b --second-vec w --format json',
        {'terms': [{'factors': [{'base': '1 - 2*b*w2 - 2*a*w1 + b^2*w2^2 + b^2*w1^2 + '
                                         'a^2*w2^2 + a^2*w1^2',
                                 'halfExp': -4,
                                 'logPow': 0}],
                    'poly': '(pi^(-1)) + (-4*pi^(-1))*b^2*w2^2 + (-4*pi^(-1))*b^2*w1^2 '
                            '+ (-4*pi^(-1))*a^2*w2^2 + (-4*pi^(-1))*a^2*w1^2 + '
                            '(4*pi^(-1))*b^3*w2^3 + (4*pi^(-1))*b^3*w1^2*w2 + '
                            '(4*pi^(-1))*a*b^2*w1*w2^2 + (4*pi^(-1))*a*b^2*w1^3 + '
                            '(4*pi^(-1))*a^2*b*w2^3 + (4*pi^(-1))*a^2*b*w1^2*w2 + '
                            '(4*pi^(-1))*a^3*w1*w2^2 + (4*pi^(-1))*a^3*w1^3 + '
                            '(-pi^(-1))*b^4*w2^4 + (-2*pi^(-1))*b^4*w1^2*w2^2 + '
                            '(-pi^(-1))*b^4*w1^4 + (-2*pi^(-1))*a^2*b^2*w2^4 + '
                            '(-4*pi^(-1))*a^2*b^2*w1^2*w2^2 + '
                            '(-2*pi^(-1))*a^2*b^2*w1^4 + (-pi^(-1))*a^4*w2^4 + '
                            '(-2*pi^(-1))*a^4*w1^2*w2^2 + (-pi^(-1))*a^4*w1^4'}]},
    ),
    (
        'bergman-kernel-h --dim 2 --format latex',
        ('\\left(\\left(2\\pi^{-1}\\right) u^{2} + \\left(-2\\pi^{-1}\\right) t1^{2} + '
         '\\left(4\\pi^{-1}\\right) u y + \\left(2\\pi^{-1}\\right) y^{2} + '
         '\\left(4\\pi^{-1}\\right) t1 x1 + \\left(-2\\pi^{-1}\\right) x1^{2}\\right) '
         '(u^{2} + t1^{2} + 2 u y + y^{2} - 2 t1 x1 + x1^{2})^{-2}'),
    ),
    (
        'bergman-projection "a^2*b" --dim 2 --vars a,b',
        '1/6*b - 1/4*b^3 + 3/4*a^2*b',
    ),
    (
        'kelvin "a*norm(x)^-1*y1" --dim 3 --vars a,b,c --second-vec y --format json',
        {'terms': [{'factors': [{'base': 'normSq(x)', 'halfExp': -2, 'logPow': 0}],
                    'poly': 'a*y1'}]},
    ),
    (
        'kelvin-h "a*c" --dim 3 --vars a,b,c --format latex',
        ('\\left(\\left(2\\sqrt{2}\\right) a + \\left(-2\\sqrt{2}\\right) a c^{2} + '
         '\\left(-2\\sqrt{2}\\right) a b^{2} + \\left(-2\\sqrt{2}\\right) '
         'a^{3}\\right) (1 + 2 c + c^{2} + b^{2} + a^{2})^{-5/2}'),
    ),
    (
        'reflect --point 1,2 --mirror "sphere:0,1;2"',
        '2\n3',
    ),
    (
        'reflect --dim 2 --vars a,b --mirror "hyperplane:1,1;1" --format json',
        [{'terms': [{'factors': [], 'poly': '1 - b'}]},
         {'terms': [{'factors': [], 'poly': '1 - a'}]}],
    ),
    (
        'reflect --dim 2 --format latex',
        'x1 \\lVert x \\rVert^{-2}\nx2 \\lVert x \\rVert^{-2}',
    ),
    (
        'reflect --point 1/2,3 --mirror unit --format json',
        ['2/37', '12/37'],
    ),
    (
        'phi --dim 3 --vars a,b,c',
        ('2*a*(1 + 2*c + c^2 + b^2 + a^2)^-1\n'
         '2*b*(1 + 2*c + c^2 + b^2 + a^2)^-1\n'
         '(1 - c^2 - b^2 - a^2)*(1 + 2*c + c^2 + b^2 + a^2)^-1'),
    ),
    (
        'eval "a*y2 + norm(x)" --dim 2 --vars a,b --second-vec y --at 3,4,1,2 --format json',
        {'terms': [{'coeff': '11', 'logFactors': [], 'piHalfExp': 0, 'radicand': 1}]},
    ),
    (
        'approx "norm(x)*y1" --dim 2 --vars a,b --second-vec y --at 1,1,3,0 --digits 12 --format latex',
        '4.24264068712',
    ),
    (
        'approx "log(2)" --dim 1',
        '0.693147',
    ),
]


def _table_id(row):
    return shlex.split(row[0])[0]


@pytest.mark.parametrize("line, expected", CLI_TABLE, ids=[_table_id(r) for r in CLI_TABLE])
def test_verb_table(line, expected, capsys):
    payload, code = run(shlex.split(line))
    assert code == 0
    assert payload == expected
    if "--timing" in line:
        assert capsys.readouterr().err.startswith("elapsed-ms: ")


def test_verb_table_covers_every_verb():
    assert {_table_id(r) for r in CLI_TABLE} == set(VERBS)


# a flag that some other verb reads
FOREIGN_FLAG = {"dirichlet": ["--mirror", "unit"], "neumann": ["--mirror", "unit"]}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_rejects_foreign_flag(verb):
    line = next(r[0] for r in CLI_TABLE if _table_id(r) == verb)
    argv = shlex.split(line) + FOREIGN_FLAG.get(verb, ["--region", "sphere"])
    payload, code = run(argv)
    assert code == 2
    assert payload["type"] == "ParseError"


@pytest.mark.parametrize(
    "line",
    [
        "volume --dim 3 --region annulus:4,1",
        "anti-laplacian x1 --dim 3 --singularity 0",
        "neumann x1 x2 x3 --dim 3",
        "laplacian --dim 3",
        "volume",
        "volume --dim 0",
        "laplacian x1 --dim -2",
        "dim-harmonic",
        "dim-harmonic --m 2",
        "reflect",
        "eval x1 --dim 2",
        "integrate-ellipsoid-volume 1 --dim 3",
        "volume --dim 4 --bogus 1",
        "approx 1 --dim 2 --digits 0",
        "zonal --dim 3 --degree -1",
        "dirichlet x1 --dim 3 --region annulus:4",
        "dirichlet x1 --dim 3 --region quadratic:1;2;3;4",
        # superscript and circled digits are not numbers
        'laplacian "x1^\u00b2" --dim 2',
        'laplacian "\u2460" --dim 2',
        'integrate-ball 1 --dim 3 --weight "r^\u00b2"',
        "reflect --dim 2 --mirror sphere:1,2",
        "eval x1 --dim 2 --at 1,x",
        "eval x1 --dim 2 --at 1/0,1",
        "partial x1 --dim 2 --by x1:a",
        "partial x1 --dim 2 --by x1:-1",
        "laplacian x1^2 --dim 2 --power -1",
    ],
)
def test_usage_errors_exit_2(line):
    payload, code = run(shlex.split(line))
    assert code == 2
    assert payload["type"] == "ParseError"


def test_usage_error_prints_one_line(capsys):
    assert main(["volume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "--dim" in captured.err and "line 0" not in captured.err


def test_main_out_equals_form(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code = main(["volume", "--dim", "4", "--out=%s" % target])
    assert code == 0
    assert target.read_text() == "pi^2/2\n"
    assert capsys.readouterr().out == ""


def test_batch_survives_usage_error(tmp_path):
    script = tmp_path / "commands.txt"
    script.write_text("volume --dim 4 --bogus 1\nvolume --dim 4\n")
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [2, 0]
    assert results[0]["result"]["type"] == "ParseError"
    assert results[1]["result"] == "pi^2/2"


def test_batch_survives_digits_that_are_not_decimal(tmp_path):
    script = tmp_path / "commands.txt"
    script.write_text(
        'laplacian "x1^\u00b2" --dim 2\n'
        'laplacian "\u2460" --dim 2\n'
        'integrate-ball 1 --dim 3 --weight "r^\u00b2"\n'
        'laplacian "x1^\u0663" --dim 2\n',
        encoding="utf-8",
    )
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [2, 2, 2, 0]
    assert [r["result"]["type"] for r in results[:3]] == ["ParseError"] * 3
    assert results[3]["result"] == "6*x1"


def test_batch_reads_utf8_under_the_c_locale(tmp_path):
    # a line that is not UTF-8 is that line's usage error, and the lines
    # around it still run, whatever the locale's encoding
    script = tmp_path / "commands.txt"
    script.write_bytes(
        'laplacian "x1^²" --dim 2\n'.encode("utf-8")
        + b"volume --dim \xff3\r\n"
        + b"# caf\xc3\xa9\n"
        + b"volume --dim 3\n"
    )
    src = os.path.dirname(os.path.dirname(harmcalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "harmcalc.cli", "batch", str(script)],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert [r["command"] for r in results] == [
        'laplacian "x1^²" --dim 2',
        "volume --dim \\xff3",
        "volume --dim 3",
    ]
    assert [r["exit"] for r in results] == [2, 2, 0]
    assert results[0]["result"]["type"] == "ParseError"
    assert results[1]["result"] == {
        "error": "batch: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte",
        "type": "ParseError",
    }
    assert results[2]["result"] == "4*pi/3"


def test_batch_line_that_is_not_utf8_is_that_lines_usage_error(tmp_path):
    script = tmp_path / "commands.txt"
    script.write_bytes(b"volume --dim \xff3\nvolume --dim 3\n")
    results, code = run(["batch", str(script)])
    assert code == 0
    assert results == [
        {
            "command": "volume --dim \\xff3",
            "exit": 2,
            "result": {
                "error": "batch: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte",
                "type": "ParseError",
            },
        },
        {"command": "volume --dim 3", "exit": 0, "result": "4*pi/3"},
    ]


def test_batch_survives_deep_nesting(tmp_path):
    deep = "(" * 3000 + "x1" + ")" * 3000
    script = tmp_path / "commands.txt"
    script.write_text('eval "%s" --dim 1 --at 1\nvolume --dim 3\n' % deep)
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [2, 0]
    assert results[0]["result"] == {
        "error": "expression nested too deeply",
        "type": "ParseError",
    }
    assert results[1]["result"] == "4*pi/3"


def test_long_integers_render_exactly(tmp_path, capsys):
    # 3^10000 has 4772 digits, past the default limit of str(int)
    digits = str(Decimal(3**10000))
    argv = ["eval", "x1^10000", "--dim", "1"]
    assert run(argv + ["--at", "3"]) == (digits, 0)
    assert run(argv + ["--at", "3", "--format", "latex"]) == (digits, 0)
    assert run(argv + ["--at", "1/3"]) == ("1/" + digits, 0)
    assert run(argv + ["--at=-1/3", "--format", "latex"]) == ("\\frac{1}{%s}" % digits, 0)
    assert run(["eval", "x1^10000*x2", "--dim", "2", "--at", "1/3,1", "--format", "latex"]) == (
        "\\frac{1}{%s}" % digits, 0)
    payload, code = run(argv + ["--at", "3", "--format", "json"])
    assert code == 0 and payload["terms"][0]["coeff"] == digits
    big = harmcalc.harmonic.dim_harmonic(8000, 8000)
    assert run(["dim-harmonic", "--m", "8000", "--n", "8000"]) == (str(Decimal(big)), 0)
    script = tmp_path / "commands.txt"
    script.write_text(
        "eval x1^10000 --dim 1 --at 3\n"
        "dim-harmonic --m 8000 --n 8000 --format json\n"
        "volume --dim 3\n"
    )
    results, code = run(["batch", str(script)])
    assert [r["exit"] for r in results] == [0, 0, 0]
    assert results[0]["result"] == digits
    assert results[1]["result"] == str(Decimal(big))
    assert results[2]["result"] == "4*pi/3"
    assert main(["batch", str(script)]) == 0
    assert json.loads(capsys.readouterr().out)[0]["result"] == digits


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _ellipsoid_past_the_limit():
    """--b of three products of the primes below 10^4, each under 1442
    digits, whose product, the radicand of the volume, has 4306."""
    b = [1, 1, 1]
    for i, p in enumerate(_primes_below(10**4)):
        b[i % 3] *= p
    b[0] *= 10007 * 10009
    return ",".join(str(Decimal(v)) for v in b), b[0] * b[1] * b[2]


def test_radicand_past_the_limit_answers_in_every_format(tmp_path, capsys):
    bs, rad = _ellipsoid_past_the_limit()
    assert len(str(Decimal(rad))) == 4306
    coeff = Fraction(4, 3 * rad)  # 4 pi / (3 sqrt(rad)) = 4 pi sqrt(rad) / (3 rad)
    num, den, radicand = (str(Decimal(v)) for v in (coeff.numerator, coeff.denominator, rad))
    argv = ["integrate-ellipsoid-volume", "1", "--dim", "3", "--b", bs]
    assert run(argv) == ("%s*pi*sqrt(%s)/%s" % (num, radicand, den), 0)
    assert run(argv + ["--format", "latex"]) == ("\\frac{%s}{%s}\\pi \\sqrt{%s}" % (num, den, radicand), 0)
    want = {"terms": [{"coeff": "%s/%s" % (num, den), "radicand": radicand, "piHalfExp": 2, "logFactors": []}]}
    assert run(argv + ["--format", "json"]) == (want, 0)
    # one such line does not take its batch down
    script = tmp_path / "commands.txt"
    script.write_text("volume --dim 3\n%s --format json\nvolume --dim 2\n" % " ".join(argv))
    assert main(["batch", str(script)]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [(r["exit"], r["result"]) for r in records] == [(0, "4*pi/3"), (0, want), (0, "pi")]


def test_log_prime_past_the_limit_answers(digit_limit):
    digit_limit(640)
    prime = str(Decimal(10**700 + 7))  # the least prime above 10^700
    argv = ["laplacian", "log(%s)*x1^2" % prime, "--dim", "1"]
    assert run(argv) == ("(2*log(%s))" % prime, 0)
    assert run(argv + ["--format", "latex"]) == ("\\left(2\\log %s\\right)" % prime, 0)
    assert run(argv + ["--format", "json"]) == ({"terms": [{"poly": "(2*log(%s))" % prime, "factors": []}]}, 0)
    payload, code = run(["eval", "log(%s)" % prime, "--dim", "1", "--at", "0", "--format", "json"])
    assert code == 0 and payload["terms"][0]["logFactors"] == [[prime, 1]]


def test_exponent_past_the_limit_answers(digit_limit):
    digit_limit(4300)
    e = "9" * 4300
    argv = ["laplacian", "x1^%s*x1^%s" % (e, e), "--dim", "1", "--power", "0"]
    twice = "1" + "9" * 4299 + "8"
    assert run(argv) == ("x1^" + twice, 0)
    assert run(argv + ["--format", "latex"]) == ("x1^{%s}" % twice, 0)
    assert run(argv + ["--format", "json"]) == ({"terms": [{"poly": "x1^" + twice, "factors": []}]}, 0)


def test_value_flags_read_ints_past_the_limit(digit_limit):
    digit_limit(4300)
    n = "7" * 5000
    assert run(["eval", "x1", "--dim", "1", "--at", n]) == (n, 0)
    assert run(["eval", "x1", "--dim", "1", "--at=-%s/3" % n]) == ("-%s/3" % n, 0)
    assert run(["eval", "%s*x1" % n, "--dim", "1", "--at", "1"]) == (n, 0)
    # the reflection of (N, 0) in the line x1 = N/3 is (-N/3, 0)
    assert run(["reflect", "--point", "%s,0" % n, "--mirror", "hyperplane:1,0;%s/3" % n]) == ("-%s/3\n0" % n, 0)
    # a value that int() refuses is a usage error, and so is a size past the limit
    assert run(["eval", "x1", "--dim", "1", "--at", "1e5"])[1] == 2
    payload, code = run(["volume", "--dim", "1" * 4301])
    assert code == 2 and payload["type"] == "ParseError"


@pytest.mark.parametrize("limit", [4300, 640, 0])
def test_json_ints_are_numbers_below_the_limit(limit, digit_limit):
    digit_limit(limit)
    for n in (10**638, -(10**637), 10**4298, -(10**4297), 10**639, -(10**638), 10**4299, -(10**4298)):
        digit_limit(0)
        text = str(n)
        digit_limit(limit)
        number = not limit or len(text) < limit
        assert render_value(n, "json") == (n if number else text)
        assert render_value(n, "text") == text


def test_non_rational_polynomial_error_names_its_text():
    payload, code = run(["neumann", "log(2)*x1^2", "--dim", "3", "--region", "quadratic:1,2,3"])
    assert code == 3
    assert payload == {"error": "not a rational polynomial: (log(2))*x1^2", "type": "NonRationalValue"}


def test_unexpected_exception_is_exit_6(monkeypatch, tmp_path, capsys):
    def broken(args):
        raise RuntimeError("lost\nits  way")

    monkeypatch.setitem(VERBS, "volume", (broken,) + VERBS["volume"][1:])
    failure = {"error": "lost its way", "type": "RuntimeError"}
    assert run(["volume", "--dim", "3"]) == (failure, 6)
    assert main(["volume", "--dim", "3"]) == 6
    assert capsys.readouterr().err == "RuntimeError: lost its way\n"
    script = tmp_path / "commands.txt"
    script.write_text('volume --dim 3\nsurface-area --dim 3\nvolume --dim "3\n')
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [6, 0, 2]
    assert results[0]["result"] == failure
    assert results[1]["result"] == "4*pi"
    assert results[2]["result"] == {"error": "batch: No closing quotation", "type": "ParseError"}
    # an --out path that cannot be written is a usage error
    assert main(["surface-area", "--dim", "3", "--out", str(tmp_path / "no" / "out.txt")]) == 2
    assert capsys.readouterr().err.startswith("ParseError: cannot write ")


def test_batch_help_line_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "commands.txt"
    script.write_text("volume --help\nvolume --dim 3\n")
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [2, 0]
    assert results[0]["result"]["type"] == "HelpRequested"
    assert results[1]["result"] == "4*pi/3"
    assert capsys.readouterr().out == ""


def test_batch_line_runs_one_verb(tmp_path):
    # a line naming a batch file (here its own) or --out is a usage error
    script = tmp_path / "commands.txt"
    target = tmp_path / "out.txt"
    script.write_text("batch %s\nvolume --dim 3 --out %s\nvolume --dim 3\n" % (script, target))
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [2, 2, 0]
    assert results[0]["result"] == {"error": "batch: a batch line cannot run batch", "type": "ParseError"}
    assert results[1]["result"] == {
        "error": "batch: --out works only as a whole command line",
        "type": "ParseError",
    }
    assert results[2]["result"] == "4*pi/3"
    assert not target.exists()


def _words_or_error(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return str(exc)


def test_batch_lines_split_as_shlex_splits_them():
    # every line of up to six characters over an alphabet with each kind
    # of piece: plain characters, blanks, both quotes and the escape
    alphabet = "ab \t'\"\\"
    count = 0
    for size in range(7):
        for chars in itertools.product(alphabet, repeat=size):
            line = "".join(chars)
            assert _words_or_error(cli._split_line, line) == _words_or_error(shlex.split, line), line
            count += 1
    assert count == 137257


def test_a_long_batch_line_splits_in_linear_time(tmp_path):
    # shlex.split builds each word one character at a time: on this line
    # it took about 3.4 s of a 3.8 s run, where the whole run now takes
    # about 0.2 s
    n = "7" * 300000
    line = "eval x1 --dim 1 --at %s" % n
    script = tmp_path / "commands.txt"
    script.write_text(line + "\n")
    started = time.perf_counter()
    results, code = run(["batch", str(script)])
    elapsed = time.perf_counter() - started
    assert (results, code) == ([{"command": line, "exit": 0, "result": n}], 0)
    assert elapsed < 2, elapsed


def test_batch_missing_file_is_a_usage_error(tmp_path, capsys):
    payload, code = run(["batch", str(tmp_path / "missing.txt")])
    assert code == 2 and payload["type"] == "ParseError"
    assert main(["batch", str(tmp_path / "missing.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, error",
    [
        ("integrate-ellipsoid-volume 1 --dim 3 --b 4,1,1,9", "DimensionMismatch"),
        ("integrate-ellipsoid-area 1 --dim 3 --b 4,1,1,9", "DimensionMismatch"),
        ("integrate-ellipsoid-volume 1 --dim 3 --b 1,1,1 --c 1,1", "DimensionMismatch"),
        ("integrate-ellipsoid-volume 1 --dim 3 --b 1,0,3", "NonPositiveAxis"),
        ("integrate-ellipsoid-area 1 --dim 2 --b 1,1 --d 1", "EmptyInterior"),
        ("neumann x1 --dim 3 --region quadratic:1,-1,1", "NonPositiveAxis"),
        ('neumann x1 --dim 3 --region "quadratic:1,1,1;;1"', "EmptyInterior"),
        # the axis check comes before the dimension check
        ("neumann x1 --dim 3 --region quadratic:1,-1", "NonPositiveAxis"),
        ('neumann x1 --dim 3 --region "quadratic:1,2,3;1,0"', "DimensionMismatch"),
        ("dirichlet x1 --dim 3 --region quadratic:1,2", "DimensionMismatch"),
        ("anti-laplacian x1 --dim 3 --multiple quadratic:1,2,3,4", "DimensionMismatch"),
        ('anti-laplacian x2 --dim 2 --multiple "quadratic:0,0;0,0;0"', "UnsupportedInputError"),
        # Laplacian(q v) = 1 has no solution on the harmonic q = x1^2 - x2^2
        ('anti-laplacian 1 --dim 2 --multiple "quadratic:1,-1;0,0;0"', "InfeasibleSystem"),
        # a constant quadric (zero or not) bounds no region
        ('dirichlet x1^2 --dim 2 --region "quadratic:0,0;0,0;0"', "UnsupportedInputError"),
        ('dirichlet x1^2 --dim 2 --region "quadratic:0,0;0,0;3"', "UnsupportedInputError"),
        ("dirichlet x1 --dim 3 --region annulus:4,1", "EmptyInterior"),
        # q > 0 everywhere, q = 0 at the origin only, and q < 0 everywhere
        ('dirichlet x1 --dim 2 --region "quadratic:1,1;0,0;1"', "EmptyInterior"),
        ('dirichlet x1 --dim 2 --region "quadratic:1,1;0,0;0"', "EmptyInterior"),
        ('dirichlet x1 --dim 2 --region "quadratic:-1,-1;0,0;-1"', "EmptyInterior"),
        # x2 is free and x1^2 + 1 > 0
        ('dirichlet x1 --dim 2 --region "quadratic:1,0;0,0;1"', "EmptyInterior"),
        ("eval x1 --dim 2 --at 1,2,3", "DimensionMismatch"),
        ("eval x1 --dim 2 --at 1", "DimensionMismatch"),
        ("reflect --point 1,2 --mirror hyperplane:1,0,0;0", "DimensionMismatch"),
        ("reflect --point 1,2 --mirror sphere:0,0,0;1", "DimensionMismatch"),
        ("reflect --dim 2 --mirror hyperplane:1,0,0;0", "DimensionMismatch"),
        ("reflect --point 1,2 --dim 3", "DimensionMismatch"),
        ("taylor x1 --dim 2 --about 1,2,3", "DimensionMismatch"),
        ("homogeneous x1^2 --dim 2 --about 1 --degree 1", "DimensionMismatch"),
        ("laplacian x1 --dim 3 --vars a,b", "DimensionMismatch"),
        ("laplacian x1 --dim 2 --vars a,a", "UnsupportedInputError"),
        ("laplacian x1 --dim 2 --vars y1,y2 --second-vec y", "UnsupportedInputError"),
        ("approx x1 --dim 2", "UnsupportedInputError"),
        ("surface-area --dim 1", "UnsupportedDimension"),
        ("basis-h --dim 1", "UnsupportedDimension"),
        ("reflect --point 1,2 --mirror hyperplane:0,0;1", "ZeroGradientField"),
        ("reflect --dim 2 --mirror hyperplane:0,0;1", "ZeroGradientField"),
        # radius 0 would send every point to the center, and -1 would act as 1
        ('reflect --point 1,0 --mirror "sphere:0,0;0"', "EmptyInterior"),
        ('reflect --point 1,0 --mirror "sphere:0,0;-1"', "EmptyInterior"),
        ('reflect --dim 2 --mirror "sphere:0,0;0"', "EmptyInterior"),
        ("neumann x1 --dim 3 --region exterior-sphere", "UnsupportedInputError"),
        ("dirichlet x1 x2 --dim 3", "UnsupportedInputError"),
        ("dirichlet x1 x2 --dim 3 --region quadratic:1,2,3", "UnsupportedInputError"),
        ("zonal --dim 1 --degree 2", "UnsupportedDimension"),
        ("zonal --dim 1 --degree 3", "UnsupportedDimension"),
        ("partial x1 --dim 2 --by zz", "UnknownVariable"),
        # unknown kinds keep their plain type
        ("dirichlet x1 --dim 3 --region torus:1", "UnsupportedInputError"),
        ("reflect --dim 2 --mirror cube", "UnsupportedInputError"),
        # a rational power past MAX_POWER_BITS is refused before it is computed
        ('laplacian "2^%s" --dim 2' % ("9" * 40), "UnsupportedInputError"),
        ('laplacian "log(norm(x))^%s" --dim 2' % ("9" * 40), "UnsupportedInputError"),
        # a power whose result would pass MAX_POWER_SIZE is refused before it is computed
        ('laplacian "norm(x)^20000" --dim 2', "UnsupportedInputError"),
        # so is a radial anti-Laplacian whose coefficients would pass MAX_POWER_SIZE << 4 bits
        ('anti-laplacian "log(norm(x))^20000" --dim 3', "UnsupportedInputError"),
        # and one whose answer, every Fischer piece times every coefficient, would
        ('anti-laplacian "x1^10*log(norm(x))^1500" --dim 3', "UnsupportedInputError"),
        # a radial integral past MAX_POWER_BITS is refused before it is computed
        ("integrate-ball 1 --dim 3 --weight log(r)^200000", "UnsupportedInputError"),
        ("integrate-ball 1 --dim 3 --weight log(r)^600000", "UnsupportedInputError"),
        # a zero denominator in a weight reads as it does in an expression
        ("integrate-ball 1 --dim 3 --weight 1/0", "ParseError"),
        ('integrate-ball 1 --dim 3 --weight "r/(1/0 + r)"', "ParseError"),
        # an empty vector entry is refused, not skipped
        ("reflect --point 3,,4", "ParseError"),
        ("eval x1 --dim 2 --at 1,,2", "ParseError"),
        ("integrate-ellipsoid-volume 1 --dim 2 --b 1,,2", "ParseError"),
        # a name the output could not show is refused
        ("basis-h --dim 2 --degree 2 --vars 2,b", "ParseError"),
        ('homogeneous "x1^2+x2" --dim 2 --about a-1,0 --degree 1', "ParseError"),
        ('zonal --dim 2 --degree 1 --second-vec "y z"', "ParseError"),
        ('laplacian "pi^3" --dim 2 --vars pi,b', "ParseError"),
        ("neumann 1 1 --dim 3", "SolvabilityViolation"),
        ("neumann 1 1 --dim 3 --region quadratic:1,2,3", "SolvabilityViolation"),
        # the quadric solve takes only rational data, compatible or not
        ('neumann "log(2)*x1^2" --dim 3 --region quadratic:1,2,3', "NonRationalValue"),
        ('neumann "log(2)*x1" --dim 3 --region quadratic:1,2,3', "NonRationalValue"),
        ("exterior-neumann x1 --dim 1", "UnsupportedDimension"),
        ("harmonic-conjugate x1 --dim 3", "UnsupportedDimension"),
        ("normal-d x1 --dim 2 --surface 3", "ZeroGradientField"),
        ("poisson-kernel-h --dim 1", "UnsupportedInputError"),
        ("basis-h --dim 3 --degree 2 --ip torus", "UnsupportedInputError"),
        ("anti-laplacian x1 --dim 3 --multiple torus", "UnsupportedInputError"),
        # the modified Kelvin transform reads powers of |x - S|^2, not of ||x||^2
        ('kelvin-h "x1*norm(x)" --dim 3', "UnsupportedBase"),
        ('kelvin "log(norm(x))" --dim 3', "UnsupportedBase"),
        # the norm-squared multiple takes a polynomial
        ('anti-laplacian "norm(x)" --dim 3 --multiple norm2', "UnsupportedBase"),
        # near 0, r^-5/(1 + r) times the ball's r^2 is about r^-3: no finite moment
        ('integrate-ball 1 --dim 3 --weight "r^-5/(1 + r)"', "DivergentRadialIntegral"),
        ("phi --dim 1", "UnsupportedDimension"),
    ],
)
def test_bad_input_is_a_typed_error(line, error):
    payload, code = run(shlex.split(line))
    assert code == {"ParseError": 2, "SolvabilityViolation": 4, "InfeasibleSystem": 5}.get(error, 3)
    assert payload["type"] == error


def test_anti_laplacian_of_the_inverse_square_is_a_log():
    # the q = -1 case of the radial antiderivative: ||x||^-2 in dimension 3
    from harmcalc.bvp import Plain, anti_laplacian
    from harmcalc.calculus import laplacian_of
    from harmcalc.expr import Context, Expr

    out, code = run(["anti-laplacian", "norm(x)^-2", "--dim", "3"])
    assert code == 0 and out == "1/2*log(||x||^2)"
    ctx = Context(3)
    f = Expr.norm_power(ctx, -2)
    u = anti_laplacian(f, Plain(), ctx)
    assert (u - Expr.norm_power(ctx, 0, log_pow=1).scale(Fraction(1, 2))).is_zero()
    assert (laplacian_of(u, 1, ctx) - f).is_zero()


def test_eval_of_the_norm_at_the_origin():
    out, code = run(["eval", "norm(x)", "--dim", "2", "--at", "0,0"])
    assert code == 0 and out == "0"


def test_annulus_dirichlet_with_a_prescribed_laplacian():
    from conftest import E, P
    from harmcalc.calculus import laplacian_of
    from harmcalc.expr import Context, reduce_poly_on_sphere, restrict_to_sphere

    out, code = run(["dirichlet", "x1", "x2^2", "--dim", "3", "--region", "annulus:1,2", "--rhs", "x3"])
    assert code == 0
    ctx = Context(3)
    u = E(out, ctx)
    assert (laplacian_of(u, 1, ctx) - E("x3", ctx)).is_zero()
    assert restrict_to_sphere(u, ctx, radius=1) == P("x1", ctx)
    assert restrict_to_sphere(u, ctx, radius=2) == reduce_poly_on_sphere(P("x2^2", ctx), ctx.coords, 4)


def test_huge_power_of_a_variable_answers():
    # its coefficient stays 1, so the power bound does not apply
    nines = "9" * 40
    out, code = run(["laplacian", "x1^" + nines, "--dim", "2"])
    assert code == 0
    assert out == "%s*x1^%d" % (int(nines) * (int(nines) - 1), int(nines) - 2)


def test_approx_constant_without_point():
    out, code = run(["approx", "log(2)", "--dim", "2", "--digits", "3"])
    assert code == 0 and out == "0.693"


def _approximation_150(value):
    """The best rational approximation with a denominator of at most 10^150
    to a Decimal computed at 400 digits."""
    with localcontext() as c:
        c.prec = 400
        return Fraction(value()).limit_denominator(10**150)


# approx stops once two guard precisions agree, so a difference far below
# its guard digits prints as zero
@pytest.mark.parametrize(
    "expr, value, want",
    [
        pytest.param(
            "norm(x)",
            lambda: Decimal(2).sqrt(),
            "3.889164545E-301",
            marks=pytest.mark.xfail(
                strict=True, reason="prints 0.0000000000; the true value of sqrt(2) - r is 3.889e-301"
            ),
            id="sqrt2",
        ),
        pytest.param(
            "log(2)",
            lambda: Decimal(2).ln(),
            "-7.622740508E-301",
            marks=pytest.mark.xfail(
                strict=True, reason="prints 0.0000000000; the true value of log(2) - r is -7.62e-301"
            ),
            id="log2",
        ),
    ],
)
def test_approx_of_a_difference_below_the_guard_digits(expr, value, want):
    r = _approximation_150(value)
    out, code = run(["approx", "%s - %s" % (expr, r), "--dim", "2", "--at", "1,1", "--digits", "10"])
    assert code == 0
    assert Decimal(out) == Decimal(want)


def test_verb_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["volume", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "--dim" in out and "--format" in out
    assert "--region" not in out and "--vars" not in out


def test_parse_error_location_is_optional():
    from harmcalc.errors import ParseError

    assert str(ParseError("bad flag")) == "bad flag"
    assert str(ParseError("bad", 1, 4, ("r",))) == "bad at line 1, column 4 (expected r)"


# ---------------------------------------------------------------------------
# the parser contract: help texts at 80 columns and usage-error messages,
# pinned byte for byte in cli_goldens.json
GOLDENS = json.loads(Path(__file__).with_name("cli_goldens.json").read_text())


def test_help_goldens_cover_every_verb():
    assert set(GOLDENS["help"]) == {"--help"} | {"%s --help" % v for v in [*VERBS, "batch"]}


@pytest.mark.parametrize("line", sorted(GOLDENS["help"]))
def test_help_text_is_pinned(line, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(shlex.split(line))
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.split("\n") == GOLDENS["help"][line]


@pytest.mark.parametrize("line", sorted(GOLDENS["errors"]))
def test_usage_error_text_is_pinned(line, capsys):
    message = GOLDENS["errors"][line]
    assert run(shlex.split(line)) == ({"error": message, "type": "ParseError"}, 2)
    assert main(shlex.split(line)) == 2
    assert capsys.readouterr().err == "ParseError: %s\n" % message


PIN_SECONDS = 20


def _out_of_time(signum, frame):
    # pytest's Failed is no Exception, so `main` cannot turn it into exit 6
    pytest.fail("no answer within %d s" % PIN_SECONDS)


# known answers: each row pins a command line's exit code, its stdout
# (exact text, or the sha256 of its UTF-8 bytes) and its stderr line count
@pytest.mark.parametrize("line", list(GOLDENS["pins"]))
def test_pinned_answer(line, capsys):
    pin = GOLDENS["pins"][line]
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(PIN_SECONDS)
    try:
        code = main(shlex.split(line))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert code == pin["exit"], err
    assert len(err.splitlines()) == pin["stderr_lines"]
    if "stdout" in pin:
        assert out == pin["stdout"] + "\n"
    if "sha256" in pin:
        assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]


# one verb run line after line in one process: no appended list, default or
# required-flag state may carry over from one line to the next
REUSE_LINES = [
    ("partial x1^2*x2^3 --dim 2 --by x1", "2*x1*x2^3"),
    ("partial x1^2*x2^3 --dim 2 --by x2", "3*x1^2*x2^2"),
    ("partial x1^2*x2^3 --dim 2", "x1^2*x2^3"),
    ("partial x1^2*x2^3 --dim 2 --by x1 --by x2:2 --format json",
     {"terms": [{"poly": "12*x1*x2", "factors": []}]}),
    ("partial x1^2*x2^3 --by x1", {
        "error": "harmcalc partial: the following arguments are required: --dim",
        "type": "ParseError",
    }),
    ("partial x1^2*x2^3 --dim 2", "x1^2*x2^3"),
    ("laplacian x1^4 --dim 2 --power 2", "24"),
    ("laplacian x1^4 --dim 2", "12*x1^2"),
]


def test_parser_reuse_keeps_no_state(tmp_path):
    for line, expected in REUSE_LINES:
        assert run(shlex.split(line))[0] == expected, line
    script = tmp_path / "commands.txt"
    script.write_text("".join(line + "\n" for line, _ in REUSE_LINES))
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["result"] for r in results] == [expected for _, expected in REUSE_LINES]


def test_verb_lines_do_not_build_the_whole_tree(monkeypatch, tmp_path):
    def whole_tree():
        raise AssertionError("the whole parser tree was built")

    monkeypatch.setattr(cli, "build_parser", whole_tree)
    script = tmp_path / "commands.txt"
    script.write_text("volume --dim 3\nvolume --dim 3 --region sphere\nvolume --help\n")
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [0, 2, 2]
    assert run(["volume", "--dim", "3"]) == ("4*pi/3", 0)
    assert cli.verb_parser("volume") is cli.verb_parser("volume")


# sha256 of each line's output as `harmcalc` prints it (JSON with indent=2,
# sorted keys); the digests were recorded before the Gram entries of radial
# inner products came from the coefficients, and must not move.
BASIS_DIGESTS = {
    "basis-h --dim 4 --degree 6 --ip sphere": {
        "text": "fe2cd204a2309b13fce38c0b66eb8988a93c7a2c93bf245e5d3524df4ce8e967",
        "json": "6fbd25e14e2deec60c7ffddfcace3e1ccd14eb2d8c72310171f23272e8ecd1d2",
        "latex": "f3d157f0366747437206b0bae352cbb546c171e8641d6fec6181fb17eb62512b",
    },
    "basis-h --dim 4 --degree 5 --ip ball": {
        "text": "cff8bb153124b4ea742b5d68437ac58e547639019fb33421760a0de433b56e0e",
        "json": "bde46a31fb5c073e99b8f5991d3c17efff5a86f4ce482c9d32338c1911c0146d",
        "latex": "28f7a14b4ed4bb5616d08be1a83eb8770c57a9025b849ae6a3e948e1a760684a",
    },
    "basis-h --dim 5 --degree 4 --ip sphere": {
        "text": "5848c54d8fb550db96c613072365b913a94c12b1fde4185644ff09af7a5bcca4",
        "json": "9ffc5c59d0132d102a7b4ac9947e663854d242e9e2e01ce45d534a98b8e37077",
        "latex": "527d1d14bb54251d2c1b4dcf2f53d27a13f0ffebb5342a3174187e6e5a8b8f5e",
    },
    "basis-h --dim 2 --degree 7 --ip ball": {
        "text": "7c83e4816027c30520aadac8e603f107c0180b12c0a0da69a110e552653471cc",
        "json": "15387faacffc423ca1b012c7b7348870c5f1c5cf708155bf3395c10d4089517f",
        "latex": "4e74ce8cfd6d4d4d64ac8cbeff23867c6a14c0fe3b8f16562edef3f31da30eb1",
    },
}


@pytest.mark.parametrize("line", sorted(BASIS_DIGESTS))
def test_orthonormal_basis_bytes_are_pinned(line):
    for fmt, want in BASIS_DIGESTS[line].items():
        payload, code = run(shlex.split(line) + ["--format", fmt])
        assert code == 0
        text = json.dumps(payload, indent=2, sort_keys=True) if fmt == "json" else payload
        assert hashlib.sha256(text.encode()).hexdigest() == want, (line, fmt)


# sha256 of the text answer of a heavy quadric Neumann solve (a 4425 x 4199
# sparse system), recorded before the solve moved to integer rows
HEAVY_NEUMANN = 'neumann "x1^9*x2^2*x3^2" --dim 4 --region "quadratic:1,2,3,4;0,0,0,0;-1"'
HEAVY_NEUMANN_DIGEST = "41aa615c2301cb8a85509d8c25ddaf1b1138fb72e6f183792ab36cf42055ea80"


def test_heavy_quadric_neumann_bytes_are_pinned():
    text, code = run(shlex.split(HEAVY_NEUMANN))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == HEAVY_NEUMANN_DIGEST


def _readme_cli_lines():
    """The command lines of the README's CLI block, without `harmcalc`."""
    text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("harmcalc ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_cli_lines_answer(tmp_path, capsys):
    lines = _readme_cli_lines()
    assert len(lines) == 15 and ["batch", "commands.txt"] in lines
    commands = tmp_path / "commands.txt"
    commands.write_text("volume --dim 3\n")
    for argv in lines:
        if argv[0] == "batch":
            argv = ["batch", str(commands)]
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""
