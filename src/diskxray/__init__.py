"""Geodesic X-ray transform on constant-curvature disks.

Library layout:

- ``geometry``: metric, isometries, geodesics, scattering relation and
  the scattering signature, footpoint map; boundary points are
  (beta, alpha) angle arrays.
- ``basis``: Zernike-type disk families, boundary families, norms.
- ``xray``: forward transform, adjoint, grids, inner products, analysis /
  synthesis, exact singular values and truncated-SVD inversion.
- ``boundary``: the boundary operators P- and C- (extension across the
  scattering relation and the fiberwise Hilbert transform, on a fiber
  circle uniform in s = sig(alpha), where the scattering relation maps
  nodes to nodes), range projection and moments.
- ``cli``: command-line front end with reproducible file I/O.
"""

from .basis import (
    CoeffTable,
    cheb_w,
    norms,
    psi_kappa,
    psi_kappa_hat,
    psi_over_mu,
    w_kappa,
    zernike,
    zernike_kappa,
    zernike_kappa_hat,
)
from .boundary import (
    c_minus,
    moment_residuals,
    p_minus,
    project_to_range,
)
from .geometry import (
    CurvatureParam,
    MoebiusMap,
    conformal_factor,
    exit_time,
    fiber_change,
    geodesic_point,
    isometry_from_tangent,
    sig,
    sig_inverse,
    sig_prime,
)
from .xray import (
    BoundaryGrid,
    DiskGrid,
    adjoint_sharp,
    analyze,
    boundary_grid,
    disk_grid,
    forward,
    inner,
    invert,
    singular_value,
    sinogram,
    synthesize,
)

__all__ = [
    "BoundaryGrid",
    "CoeffTable",
    "CurvatureParam",
    "DiskGrid",
    "MoebiusMap",
    "adjoint_sharp",
    "analyze",
    "boundary_grid",
    "c_minus",
    "cheb_w",
    "conformal_factor",
    "disk_grid",
    "exit_time",
    "fiber_change",
    "forward",
    "geodesic_point",
    "inner",
    "invert",
    "isometry_from_tangent",
    "moment_residuals",
    "norms",
    "p_minus",
    "project_to_range",
    "psi_kappa",
    "psi_kappa_hat",
    "psi_over_mu",
    "sig",
    "sig_inverse",
    "sig_prime",
    "singular_value",
    "sinogram",
    "synthesize",
    "w_kappa",
    "zernike",
    "zernike_kappa",
    "zernike_kappa_hat",
]

__version__ = "0.1.0"
