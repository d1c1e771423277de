"""The sparse `linalg.solve` against the dense reference elimination.

Both must return the same canonical solution (leftmost pivots, free
variables zero) or both must report the system inconsistent.  `_solve`
writes Fraction rows in the primitive integer format `linalg.solve`
takes and reads its answer back as Fractions.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

import dense_linalg
import poly_oracle
from conftest import P

from harmcalc import linalg
from harmcalc.bvp import Quadratic, QuadraticMultiple, anti_laplacian, dirichlet, neumann
from harmcalc.expr import Context
from harmcalc.poly import Polynomial, _join, _layout, _stride, gradient_weight, laplace_weight, monomials


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


def _fractions(sol):
    """`linalg.solve`'s (den, nums) as a Fraction vector; den must be positive."""
    if sol is None:
        return None
    den, nums = sol
    assert den > 0 and all(type(n) is int for n in nums)
    return [F(n, den) for n in nums]


def _solve(a, b):
    """`linalg.solve` on dense or dict rows a of ints and Fractions, right sides b."""
    a = [row if isinstance(row, dict) else dict(enumerate(row)) for row in a]
    cols = max((max(row, default=-1) + 1 for row in a), default=0)
    rows = []
    for row, v in zip(a, b, strict=True):
        row = {c: F(x) for c, x in {**row, cols: v}.items() if x}
        scale = lcm(*(x.denominator for x in row.values()))
        rows.append(linalg._primitive({c: (x * scale).numerator for c, x in row.items()}))
    return _fractions(linalg.solve(rows, cols))


def _check(a, b):
    expected = dense_linalg.solve(a, b)
    assert _solve(a, b) == expected
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
        assert _solve(dict_rows, b) == expected
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
    assert _solve([{0: F(2)}, {1: F(3), 4: F(0)}], [2, 6]) == [1, 2, 0, 0, 0]
    assert _solve([{}, {2: F(1)}], [0, 7]) == [0, 0, 7]
    assert _solve([{}], [1]) is None


def _integer_system(rng, rows, cols, rank):
    """Rows mixing ints up to about 10^12, Fractions and small ints; with
    `rank`, rows are integer combinations of `rank` of them, and some rows
    are multiplied by a common factor so their content exceeds 1."""
    big = 10**12

    def entry():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randrange(-big, big + 1)
        if kind == 1:
            return F(rng.randrange(-big, big + 1), rng.randrange(1, 10**6))
        return rng.randrange(-5, 6)

    def row():
        density = rng.choice((0.3, 0.7, 1.0))
        out = [entry() if rng.random() < density else 0 for _ in range(cols)]
        if rng.random() < 0.5:
            # an all-int row with a common factor
            k = rng.randrange(2, 10**6)
            out = [k * v.numerator for v in out]
        return out

    if rank is None:
        return [row() for _ in range(rows)]
    base = [row() for _ in range(rank)]
    out = []
    for _ in range(rows):
        ks = [rng.randrange(-3, 4) for _ in base]
        out.append([sum((k * b[c] for k, b in zip(ks, base)), 0) for c in range(cols)])
    return out


def test_solve_matches_dense_reference_on_large_integer_and_mixed_rows():
    rng = random.Random(19680701)
    kinds = {"solved": 0, "inconsistent": 0}
    for trial in range(300):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        rank = None if trial % 3 == 0 else rng.randrange(0, min(rows, cols) + 1)
        a = _integer_system(rng, rows, cols, rank)
        if trial % 2:
            x = [rng.randrange(-10**6, 10**6) for _ in range(cols)]
            b = [sum((v * xi for v, xi in zip(row, x)), 0) for row in a]
        else:
            b = [rng.choice((rng.randrange(-10**12, 10**12), F(rng.randrange(-99, 99), 7)))
                 for _ in range(rows)]
        expected = _check(a, b)
        kinds["solved" if expected is not None else "inconsistent"] += 1
        dict_rows = [{c: v for c, v in enumerate(row) if v} for row in a]
        dict_rows[0][cols - 1] = a[0][cols - 1]
        assert _solve(dict_rows, b) == expected
    assert min(kinds.values()) > 50, kinds


@pytest.mark.parametrize(
    "a, b, expected",
    [
        # the left sides are proportional; only the right sides disagree
        ([[2, 4, 6], [3, 6, 9]], [2, 4], None),
        ([[2, 4, 6], [3, 6, 9]], [2, 3], [1, 0, 0]),
        ([[F(1, 2), 1], [1, 2], [0, 5]], [1, 3, 5], None),
        ([[F(1, 2), 1], [1, 2], [0, 5]], [1, 2, 5], [0, 1]),
        ([[10**12, 2 * 10**12], [3 * 10**12, 6 * 10**12]], [10**12, 3 * 10**12 + 1], None),
    ],
)
def test_inconsistency_through_the_right_side_alone(a, b, expected):
    assert _check(a, b) == expected


def test_solve_returns_integers_over_one_denominator():
    # 2 x0 = 4 and 3 x1 = 1: x = (6, 1, 0) / 3
    assert linalg.solve([{0: 1, 3: 2}, {1: 3, 3: 1}], 3) == (3, [6, 1, 0])
    # 6/5 x1 = 12/5, written as the primitive row x1 = 2
    assert linalg.solve([{1: 1, 2: 2}], 2) == (1, [0, 2])
    assert linalg.solve([], 0) == (1, [])
    assert linalg.solve([{1: 1}], 1) is None


@pytest.mark.parametrize(
    "rows, cols, expected",
    [
        # -2 x0 = 1
        ([{0: -2, 1: 1}], 1, (2, [-1])),
        # -2 x1 = 1, then -3 x0 + x1 = 1
        ([{0: -3, 1: 1, 2: 1}, {1: -2, 2: 1}], 2, (2, [-1, -1])),
        # negative pivots whose denominators widen den twice
        ([{0: -5, 1: 1, 2: 2}, {1: -3, 2: 1}], 2, (15, [-7, -5])),
    ],
)
def test_negative_pivots_leave_the_denominator_positive(rows, cols, expected):
    assert linalg.solve(rows, cols) == expected
    dense = [[row.get(c, 0) for c in range(cols)] for row in rows]
    assert _fractions(expected) == dense_linalg.solve(dense, [row.get(cols, 0) for row in rows])


def _recording(monkeypatch):
    systems = []
    solve = linalg.solve

    def record(rows, cols):
        systems.append(([dict(row) for row in rows], cols))
        return solve(rows, cols)

    monkeypatch.setattr(linalg, "solve", record)
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
    for rows, cols in systems:
        dense = [[row.get(c, 0) for c in range(cols)] for row in rows]
        rhs = [row.get(cols, 0) for row in rows]
        expected = dense_linalg.solve(dense, rhs)
        assert _fractions(linalg.solve(rows, cols)) == expected
        assert _solve(dense, rhs) == expected
        outcomes.append(expected is not None)
    assert outcomes == [True, False, False, True, True, True]


def _with_order(rows):
    """The rows as lists of their entries, in the order each row holds them."""
    return [list(row.items()) for row in rows]


def test_solve_leaves_its_rows_unchanged(monkeypatch):
    # elimination updates rows in place, on its own copies: the caller's
    # rows keep their entries and their order, on quadric ansatz systems
    # (consistent and not) and on integer rows with large entries
    ctx = Context(3)
    systems = _recording(monkeypatch)
    dirichlet(P("x1^3*x2^2", ctx), Quadratic((2, 3, 5), (1, 0, -2), F(-2)), ctx)
    dirichlet(P("x3^4", ctx), Quadratic((1, -1, 0)), ctx)
    neumann(P("x1^2*x2 - x2^3", ctx), region=Quadratic((2, 3, 5)), ctx=ctx)
    monkeypatch.undo()
    rng = random.Random(1968)
    for rows, cols, rank in ((8, 6, 3), (6, 5, None), (4, 7, None)):
        system = []
        for row in _integer_system(rng, rows, cols, rank):
            row = {c: F(x) for c, x in enumerate(row + [rng.randrange(-9, 10)]) if x}
            scale = lcm(*(x.denominator for x in row.values()))
            system.append(linalg._primitive({c: (x * scale).numerator for c, x in row.items()}))
        systems.append((system, cols))
    for rows, cols in systems:
        before = _with_order(rows)
        linalg.solve(rows, cols)
        assert _with_order(rows) == before


def _block_of_the_constants(rows, cols):
    """The rows joined to a right side through the unknowns they share, in
    their order: union-find over the rows, the right side's column cols
    counted as one more shared column."""
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = {}
    for i, row in enumerate(rows):
        for c in row:
            parent[find(i)] = find(first.setdefault(c, i))
    roots = {find(i) for i, row in enumerate(rows) if cols in row}
    return [row for i, row in enumerate(rows) if find(i) in roots]


def _ansatz_layout(groups, constants, names):
    """The layout `solve_ansatz` would take, and its columns."""
    top = max(d for degrees, _ in groups for d in degrees)
    lay = _layout(tuple(sorted(names)), _stride(top))
    for p in (*(q for _, uses in groups for _, q, _ in uses), *constants):
        lay = _join(lay, p.layout, p.total_degree() + top)
    return lay, [(monomials(lay, names, degrees), uses) for degrees, uses in groups]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_paired_rows_match_the_second_order_oracle(dim):
    # the rows of whole blocks that hold the right side's block, their
    # order and the order of their entries, against rows written one
    # `second_order` image at a time: the quadric Dirichlet and Neumann
    # groups on ellipsoids, indefinite quadrics, quadrics with a zero b_i
    # and linear q, a group whose degrees start above 0 with a quartic q
    # beside a gradient use in one constraint, and the Dirichlet group on
    # the same quadric centered, whose parity classes split; the rows left
    # out are homogeneous, so both systems have one canonical solution
    rng = random.Random(2004 + dim)
    ctx = Context(dim)
    one = Polynomial.const(1)
    dropped = 0
    for _ in range(10):
        b = tuple(F(rng.randrange(-3, 4), rng.randrange(1, 3)) if rng.random() < 0.7 else F(0) for _ in range(dim))
        c = tuple(F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(dim))
        d = F(rng.randrange(-3, 3), rng.randrange(1, 3))
        q = Quadratic(b, c, d).poly(ctx)
        monos = [tuple((v, rng.randrange(1, 4)) for v in rng.sample(ctx.coords, rng.randrange(dim + 1))) for _ in range(4)]
        f = Polynomial.from_raw((m, rng.randrange(1, 9)) for m in monos[: rng.randrange(1, 5)])
        deg = rng.randrange(4)
        for groups, constants in (
            ([(range(deg + 1), [(0, q, laplace_weight)])], [f]),
            (
                [
                    (range(1, deg + 1), [(0, one, laplace_weight), (1, q, gradient_weight)]),
                    (range(max(deg, 1)), [(1, -q, None)]),
                ],
                [Polynomial(), f],
            ),
            ([(range(deg, deg + 2), [(0, q * q, laplace_weight), (0, q, gradient_weight)])], [f]),
            ([(range(deg + 1), [(0, Quadratic(b, (), d).poly(ctx), laplace_weight)])], [f]),
        ):
            lay, columns = _ansatz_layout(groups, constants, ctx.coords)
            rows, cols = linalg.paired_rows(lay, columns, constants, ctx.coords)
            want_rows, want_cols = poly_oracle.paired_rows_by_terms(lay, columns, constants, ctx.coords)
            assert cols == want_cols
            # the rows written are the oracle's, in its order and with its
            # entries; the rows left out share no column with them, so
            # they are whole blocks, and they hold the constants' block
            order = _with_order(want_rows)
            picked = []
            for row in _with_order(rows):
                picked.append(order.index(row, picked[-1] + 1 if picked else 0))
            written = {c for row in rows for c in row}
            assert all(written.isdisjoint(row) for i, row in enumerate(want_rows) if i not in picked)
            assert all(row in rows for row in _block_of_the_constants(want_rows, want_cols))
            assert linalg.solve(rows, cols) == linalg.solve(want_rows, want_cols)
            dropped += len(want_rows) - len(rows)
    # the classes of the data leave out some rows of these systems
    assert dropped > 0


def test_paired_rows_on_a_homogeneous_quadric_keep_to_one_degree():
    # q has no linear or constant term, so the Laplacian of q x^a has the
    # degree of x^a: data of degree 6 and exponent parities (odd, odd,
    # even) reach the 6 unknowns of that degree and parity, one block,
    # and not the 4 of degrees 2 and 4 with the same parities
    ctx = Context(3)
    q = Quadratic((1, 2, 3), (0, 0, 0), F(0)).poly(ctx)
    f = P("x1^3*x2^3 + x1*x2*x3^4", ctx)
    groups = [(range(7), [(0, q, laplace_weight)])]
    lay, columns = _ansatz_layout(groups, [f], ctx.coords)
    keys = columns[0][0]
    rows, cols = linalg.paired_rows(lay, columns, [f], ctx.coords)
    want_rows, _ = poly_oracle.paired_rows_by_terms(lay, columns, [f], ctx.coords)
    block = {c for row in _block_of_the_constants(want_rows, cols) for c in row} - {cols}
    assert {c for row in rows for c in row} - {cols} == block
    assert sorted(sum(e for _, e in lay.unpack(keys[j])) for j in block) == [6] * 6
    assert linalg.solve(rows, cols) == linalg.solve(want_rows, cols)


def test_images_of_two_uses_in_one_constraint_add_up():
    # x1 enters the one constraint as 1 x1 and as 2 x1, so 3 x1 = 6 x1
    # and the answer is 2 x1
    x1 = Polynomial.var("x1")
    uses = [(0, Polynomial.const(1), None), (0, Polynomial.const(2), None)]
    assert linalg.solve_ansatz([(range(2), uses)], [6 * x1], ("x1",)) == [2 * x1]


def test_paired_rows_of_zero_constants_are_empty():
    # no right side reaches a row: no rows, and the zero solution
    ctx = Context(3)
    q = Quadratic((1, 2, 3), (1, 0, -1), F(-2)).poly(ctx)
    groups = [
        (range(1, 4), [(0, Polynomial.const(1), laplace_weight), (1, q, gradient_weight)]),
        (range(3), [(1, -q, None)]),
    ]
    for constants in ([Polynomial(), Polynomial()], [Polynomial.const(0), P("x1 - x1", ctx)]):
        lay, columns = _ansatz_layout(groups, constants, ctx.coords)
        rows, cols = linalg.paired_rows(lay, columns, constants, ctx.coords)
        assert (rows, cols) == ([], 29)
        assert linalg.solve(rows, cols) == (1, [0] * 29)


def test_paired_rows_keep_to_the_parity_class_of_the_data():
    # on a centered ellipsoid, the Laplacian of q x^a keeps the parity of
    # every exponent, so Dirichlet data x1^4 x2^2, whose Laplacian is the
    # right side, reaches only the unknowns whose exponents are all even,
    # and only their rows are written
    ctx = Context(3)
    q = Quadratic((1, 2, 3)).poly(ctx)
    f = P("2*x1^4 + 12*x1^2*x2^2", ctx)
    groups = [(range(5), [(0, q, laplace_weight)])]
    lay, columns = _ansatz_layout(groups, [f], ctx.coords)
    keys = columns[0][0]
    rows, cols = linalg.paired_rows(lay, columns, [f], ctx.coords)
    want_rows, _ = poly_oracle.paired_rows_by_terms(lay, columns, [f], ctx.coords)
    even = [j for j, ka in enumerate(keys) if all(e % 2 == 0 for _, e in lay.unpack(ka))]
    assert cols == len(keys) == 35 and len(even) == 10
    assert {c for row in rows for c in row} == {*even, cols}
    assert len(rows) == 10 < len(want_rows)
    den, nums = linalg.solve(rows, cols)
    assert {j for j, n in enumerate(nums) if n} <= set(even)
    assert linalg.solve(want_rows, cols) == (den, nums)
