"""The sparse `linalg.solve` against the dense reference elimination.

Both must return the same canonical solution (leftmost pivots, free
variables zero) or both must report the system inconsistent.
"""

import random
from fractions import Fraction as F

import pytest

import dense_linalg
from conftest import P

from harmcalc import bvp, linalg
from harmcalc.bvp import Quadratic, QuadraticMultiple, anti_laplacian, dirichlet, neumann
from harmcalc.expr import Context


def _random_system(rng, rows, cols, density, rank=None):
    """Random sparse rows; with `rank`, rows are combinations of `rank` of them."""
    def row():
        return [F(rng.randrange(-5, 6), rng.randrange(1, 4)) if rng.random() < density else F(0)
                for _ in range(cols)]

    if rank is None:
        return [row() for _ in range(rows)]
    base = [row() for _ in range(rank)]
    out = []
    for _ in range(rows):
        ks = [F(rng.randrange(-2, 3)) for _ in base]
        out.append([sum((k * b[c] for k, b in zip(ks, base)), F(0)) for c in range(cols)])
    return out


def _check(a, b):
    expected = dense_linalg.solve(a, b)
    assert linalg.solve(a, b) == expected
    return expected


def test_solve_matches_dense_reference_on_random_systems():
    rng = random.Random(20040101)
    kinds = {"solved": 0, "inconsistent": 0}
    for trial in range(600):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        rank = None if trial % 3 == 0 else rng.randrange(0, min(rows, cols) + 1)
        a = _random_system(rng, rows, cols, rng.choice((0.15, 0.4, 0.9)), rank)
        if trial % 2:
            # consistent by construction: b = A x for a random x
            x = [F(rng.randrange(-3, 4)) for _ in range(cols)]
            b = [sum((v * xi for v, xi in zip(row, x)), F(0)) for row in a]
        else:
            b = [F(rng.randrange(-3, 4)) for _ in range(rows)]
        expected = _check(a, b)
        kinds["solved" if expected is not None else "inconsistent"] += 1
        # dict rows that name the last column give the same vector
        dict_rows = [{c: v for c, v in enumerate(row) if v} for row in a]
        dict_rows[0][cols - 1] = a[0][cols - 1]
        assert linalg.solve(dict_rows, b) == expected
    assert min(kinds.values()) > 100, kinds


@pytest.mark.parametrize(
    "a, b",
    [
        ([], []),
        ([[], []], [0, 0]),
        ([[], []], [0, 1]),
        ([[F(0), F(0)], [F(0), F(0)]], [0, 0]),
        ([[F(0), F(0)], [F(0), F(0)]], [0, 3]),
        ([[F(0), F(2), F(0)], [F(0), F(0), F(0)], [F(0), F(4), F(0)]], [1, 0, 2]),
        ([[F(0), F(2), F(0)], [F(0), F(4), F(0)]], [1, 3]),
        ([[F(1), F(1), F(1)]], [F(5, 2)]),
    ],
)
def test_solve_edge_cases_match_dense_reference(a, b):
    _check(a, b)


def test_dict_rows_are_as_wide_as_their_largest_key():
    assert linalg.solve([{0: F(2)}, {1: F(3), 4: F(0)}], [2, 6]) == [1, 2, 0, 0, 0]
    assert linalg.solve([{}, {2: F(1)}], [0, 7]) == [0, 0, 7]
    assert linalg.solve([{}], [1]) is None


def _recording(monkeypatch):
    systems = []
    solve = linalg.solve

    def record(a, b):
        systems.append(([dict(row) for row in a], list(b)))
        return solve(a, b)

    monkeypatch.setattr(bvp.linalg, "solve", record)
    return systems


@pytest.mark.parametrize("dim", [3, 4])
def test_solve_matches_dense_reference_on_quadric_ansatz_systems(dim, monkeypatch):
    ctx = Context(dim)
    systems = _recording(monkeypatch)
    b = (2, 3, 5, 7)[:dim]
    c = (1, 0, -2, 0)[:dim]
    dirichlet(P("x1^3*x2^2", ctx), Quadratic(b, c, F(-2)), ctx)
    # on x1^2 - x2^2 = 1 the q-multiple ansatz is rank-deficient, and the
    # first two degrees tried are inconsistent
    dirichlet(P("x3^4", ctx), Quadratic((1, -1) + (0,) * (dim - 2)), ctx)
    neumann(P("x1^2*x2 - x2^3", ctx), region=Quadratic(b), ctx=ctx)
    anti_laplacian(P("x1^2*x2*x3", ctx), QuadraticMultiple(b, c, F(-3)), ctx)
    monkeypatch.undo()
    outcomes = []
    for rows, rhs in systems:
        cols = 1 + max(c for row in rows for c in row)
        dense = [[row.get(c, F(0)) for c in range(cols)] for row in rows]
        expected = dense_linalg.solve(dense, rhs)
        assert linalg.solve(rows, rhs) == expected
        assert linalg.solve(dense, rhs) == expected
        outcomes.append(expected is not None)
    assert outcomes == [True, False, False, True, True, True]
