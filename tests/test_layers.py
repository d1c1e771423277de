"""The package's layers, read from the module-level imports of its source.

`arith` holds the integer code (the decimal codec, factorization, product
trees) on `errors` and the standard library alone; `scalar` holds the
exact constants on `arith`; `approx`, the decimal evaluator, sits on
`scalar` and is read only by the CLI and the package's public names.
`poly` holds the packed polynomials and sits on `errors` and `scalar`
alone; `expr` builds the expression algebra on top of it.  An import made
inside a function, such as `Polynomial.__repr__` reaching `render`, is
left out: it runs only once every module is loaded.

A cold start of the CLI pays for every module the package imports, so the
import path keeps out `dataclasses` (which loads `inspect`, `ast`, `dis`
and `tokenize`) and `typing`.

The benchmark's tracer (`bench/tracer.py`) wraps library functions by
name, so a renamed one must fail here, not only in a traced bench run.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import harmcalc

SOURCE = Path(harmcalc.__file__).parent


def _module_imports():
    """{module: the package modules its module-level `from .x import` lines name}."""
    graph = {}
    for path in SOURCE.glob("*.py"):
        names = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # `from . import a, b` names modules; `from .x import y` names x
                names.update([node.module] if node.module else [a.name for a in node.names])
        graph[path.stem] = names
    return graph


def test_poly_imports_only_errors_and_scalar():
    assert _module_imports()["poly"] == {"errors", "scalar"}


def test_integers_sit_below_scalar_and_approx_above_it():
    graph = _module_imports()
    assert graph["arith"] == {"errors"}
    tree = ast.parse((SOURCE / "arith.py").read_text())
    absolute = {a.name for n in tree.body if isinstance(n, ast.Import) for a in n.names}
    absolute |= {n.module for n in tree.body if isinstance(n, ast.ImportFrom) and not n.level}
    assert {m.split(".")[0] for m in absolute} <= sys.stdlib_module_names
    assert graph["scalar"] == {"errors", "arith"}
    assert graph["approx"] == {"errors", "scalar"}
    assert {m for m, names in graph.items() if "approx" in names} == {"cli", "__init__"}


def test_no_module_imports_a_private_name_of_arith_or_approx():
    private = [
        (path.stem, a.name)
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("arith", "approx")
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == []


def test_only_power_and_horner_check_a_power():
    callers = {
        (path.stem, fn.name)
        for path in SOURCE.glob("*.py")
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_power"
    }
    assert callers == {("scalar", "power"), ("poly", "horner")}


def test_expr_imports_no_module_that_imports_expr():
    graph = _module_imports()
    assert "poly" in graph["expr"]
    assert not [m for m in graph["expr"] if "expr" in graph[m]]


def test_module_imports_have_no_cycle():
    graph = _module_imports()
    assert set().union(*graph.values()) <= set(graph)
    done, path = set(), []

    def visit(m):
        assert m not in path, "import cycle: %s" % " -> ".join(path[path.index(m):] + [m])
        if m in done:
            return
        path.append(m)
        for n in sorted(graph[m]):
            visit(n)
        path.pop()
        done.add(m)

    for m in sorted(graph):
        visit(m)


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site hooks out; some installations preload typing there
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import harmcalc, harmcalc.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SOURCE.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_name_the_benchmark_traces_is_found():
    # the tracer looks for each function in every loaded harmcalc module,
    # and render_value and run_command are bound only once the CLI is loaded
    import harmcalc.cli  # noqa: F401

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [name for _, _, name, _ in tracer.ENTRY_POINTS]
    assert len(names) == len(set(names)) == 36
    assert {name for *_, name in tracer.Tracer().sites()} == set(names)
