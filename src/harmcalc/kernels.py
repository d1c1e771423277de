"""Reproducing kernels: Poisson and Bergman, for the ball and half-space.

Ball kernels are expressions in a primary coordinate block x and a second
block y; half-space kernels use the split form (x, y) vs (t, u) where the
last coordinate is singled out.  The Bergman projection of a polynomial is
computed through the harmonic decomposition: each piece ||x||^(2j) h_m
projects to (n + 2m)/(n + m + k) h_m where k = m + 2j, which is exactly
the orthonormal-basis expansion evaluated in closed form.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch
from .expr import Expr
from .harmonic import fischer_sums
from .integrate import n_ball_volume
from .poly import Polynomial, dot_poly, poly_sum, require_polynomial


def poisson_base(ctx, y_names, on_boundary=False):
    """1 - 2 x.y + ||x||^2 ||y||^2, or with ||y|| set to 1 on the boundary."""
    dot = dot_poly(ctx.coords, y_names)
    nx = ctx.norm_sq_poly()
    tail = nx * ctx.norm_sq_poly(y_names) if not on_boundary else nx
    return Polynomial.const(1) - dot.scale(2) + tail


def poisson_kernel(ctx, y_names, on_boundary=False):
    """Extended Poisson kernel for the unit ball.

    (1 - ||x||^2 ||y||^2) (1 - 2 x.y + ||x||^2 ||y||^2)^(-n/2); with
    on_boundary the second argument is confined to the unit sphere
    (||y|| replaced by 1).
    """
    y_names = tuple(y_names)
    nx = ctx.norm_sq_poly()
    ny2 = ctx.norm_sq_poly(y_names) if not on_boundary else Polynomial.const(1)
    numer = Polynomial.const(1) - nx * ny2
    base = poisson_base(ctx, y_names, on_boundary)
    return Expr.from_poly(ctx, numer) * Expr.base_power(ctx, base, -ctx.dim)


def _over_n_volume(ctx, numer, base, half):
    """numer * base^(half/2) / (n V(B)), V(B) the volume of the unit ball."""
    nv = n_ball_volume(ctx.dim)
    return (Expr.from_poly(ctx, numer) * Expr.base_power(ctx, base, half)).scale(nv.inverse())


def half_space_base(ctx, t_names, u_name):
    """(u + y)^2 + ||x - t||^2 over the split coordinates.

    ctx.coords is the half-space block (x_1..x_(n-1), y); t, u name the
    second point.  A t of other than n - 1 names is a DimensionMismatch.
    """
    x_names = ctx.coords[:-1]
    t_names = tuple(t_names)
    if len(t_names) != len(x_names):
        raise DimensionMismatch("t needs %d coordinates, got %d" % (len(x_names), len(t_names)))
    y = ctx.coords[-1]
    uy = Polynomial.var(u_name) + Polynomial.var(y)
    parts = [uy * uy]
    for a, b in zip(x_names, t_names):
        d = Polynomial.var(a) - Polynomial.var(b)
        parts.append(d * d)
    return poly_sum(parts)


def poisson_kernel_h(ctx, t_names, u_name):
    """Extended Poisson kernel for the upper half-space, split form.

    2 (u + y) ((u + y)^2 + ||x - t||^2)^(-n/2) / (n volume(n)).
    """
    n = ctx.dim
    y = ctx.coords[-1]
    numer = (Polynomial.var(u_name) + Polynomial.var(y)).scale(2)
    base = half_space_base(ctx, t_names, u_name)
    return _over_n_volume(ctx, numer, base, -n)


def bergman_kernel(ctx, y_names):
    """Reproducing kernel of the harmonic Bergman space of the unit ball.

    ((n-4)||x||^4||y||^4 + (8 x.y - 2n - 4)||x||^2||y||^2 + n)
      / (n volume(n) (1 - 2 x.y + ||x||^2||y||^2)^(1 + n/2)).
    """
    n = ctx.dim
    y_names = tuple(y_names)
    dot = dot_poly(ctx.coords, y_names)
    w = ctx.norm_sq_poly() * ctx.norm_sq_poly(y_names)
    numer = (
        (w * w).scale(n - 4)
        + w * (dot.scale(8) - Polynomial.const(2 * n + 4))
        + Polynomial.const(n)
    )
    base = poisson_base(ctx, y_names)
    return _over_n_volume(ctx, numer, base, -(n + 2))


def bergman_kernel_h(ctx, t_names, u_name):
    """Reproducing kernel of the harmonic Bergman space of the half-space.

    4 ((n-1)(u+y)^2 - ||x-t||^2) ((u+y)^2 + ||x-t||^2)^(-1-n/2) / (n volume(n)).
    """
    n = ctx.dim
    uy = Polynomial.var(u_name) + Polynomial.var(ctx.coords[-1])
    base = half_space_base(ctx, t_names, u_name)
    # (n - 1)(u + y)^2 - ||x - t||^2 = n (u + y)^2 - base
    numer = ((uy * uy).scale(n) - base).scale(4)
    return _over_n_volume(ctx, numer, base, -(n + 2))


def bergman_projection(u, ctx):
    """Orthogonal projection of a polynomial onto the ball Bergman space.

    A decomposition piece ||x||^(2j) h with h harmonic homogeneous of
    degree m sits inside the degree k = m + 2j component; expanding it in
    any orthonormal harmonic basis leaves (n + 2m)/(n + m + k) h, so the
    projection is one weighted sum of the pieces.
    """
    require_polynomial(u, "Bergman projection input")
    n = ctx.dim
    sums = fischer_sums(u, ctx, lambda m, j: 0, lambda m, j: Fraction(n + 2 * m, n + 2 * m + 2 * j))
    return sums.get(0, Polynomial())
