"""Exact computer algebra for harmonic function theory.

Calculus of norm-power expressions, integration over spheres, balls and
ellipsoids, harmonic decomposition, boundary-value solvers (Dirichlet,
Neumann, exterior, biharmonic), Kelvin transforms, and Poisson/Bergman
reproducing kernels, all in exact rational arithmetic extended by
half-integer powers of pi, integer square roots, and prime logarithms.
"""

from .bvp import (
    Annulus,
    ExteriorSphere,
    NormSquaredMultiple,
    Plain,
    Quadratic,
    QuadraticMultiple,
    Sphere,
    anti_laplacian,
    bi_dirichlet,
    dirichlet,
    exterior_neumann,
    neumann,
)
from .calculus import (
    divergence_of,
    gradient_of,
    harmonic_conjugate,
    homogeneous_part,
    jacobian_of,
    laplacian_of,
    normal_d_sphere,
    normal_d_surface,
    partial_d,
    taylor_poly,
)
from .expr import (
    Context,
    Expr,
    eval_expr,
    make_context,
    restrict_to_sphere,
    substitute_norm_radius,
)
from .harmonic import (
    InnerProduct,
    ball_inner_product,
    basis_harmonic,
    dim_harmonic,
    harmonic_decompose,
    sphere_inner_product,
    zonal_harmonic,
)
from .integrate import (
    RadialFunction,
    integrate_ball,
    integrate_ellipsoid_area,
    integrate_ellipsoid_volume,
    integrate_sphere,
    unit_ball_volume,
    unit_sphere_area,
)
from .kernels import (
    bergman_kernel,
    bergman_kernel_h,
    bergman_projection,
    poisson_kernel,
    poisson_kernel_h,
)
from .parser import parse_expression, parse_polynomial
from .poly import Polynomial
from .scalar import Scalar, approx_scalar, scalar_sqrt
from .transforms import (
    HyperplaneMirror,
    SphereMirror,
    UnitSphere,
    kelvin,
    kelvin_h,
    phi_map,
    reflect_map,
    reflect_point,
)

__version__ = "0.1.0"
