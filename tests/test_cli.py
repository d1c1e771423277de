import os
import shlex
import subprocess
import sys

import pytest

import harmcalc
from harmcalc.cli import VERBS, main, parse_radial, run_command
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


def test_batch_help_line_is_a_usage_error(tmp_path, capsys):
    script = tmp_path / "commands.txt"
    script.write_text("volume --help\nvolume --dim 3\n")
    results, code = run(["batch", str(script)])
    assert code == 0
    assert [r["exit"] for r in results] == [2, 0]
    assert results[0]["result"]["type"] == "HelpRequested"
    assert results[1]["result"] == "4*pi/3"
    assert capsys.readouterr().out == ""


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
        ("dirichlet x1 --dim 3 --region annulus:4,1", "EmptyInterior"),
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
        ("neumann x1 --dim 3 --region exterior-sphere", "UnsupportedInputError"),
        ("dirichlet x1 x2 --dim 3", "UnsupportedInputError"),
        ("dirichlet x1 x2 --dim 3 --region quadratic:1,2,3", "UnsupportedInputError"),
        ("zonal --dim 1 --degree 2", "UnsupportedDimension"),
        ("zonal --dim 1 --degree 3", "UnsupportedDimension"),
        ("partial x1 --dim 2 --by zz", "UnknownVariable"),
        # unknown kinds keep their plain type
        ("dirichlet x1 --dim 3 --region torus:1", "UnsupportedInputError"),
        ("reflect --dim 2 --mirror cube", "UnsupportedInputError"),
    ],
)
def test_bad_input_is_a_typed_error(line, error):
    payload, code = run(shlex.split(line))
    assert code == 3
    assert payload["type"] == error


def test_approx_constant_without_point():
    out, code = run(["approx", "log(2)", "--dim", "2", "--digits", "3"])
    assert code == 0 and out == "0.693"


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
