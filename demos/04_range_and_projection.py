#!/usr/bin/env python3
# Range characterization: which boundary functions are X-ray transforms?
#
# Three equivalent answers, all computable here:
#   1. the boundary operator C- annihilates the function;
#   2. all moments against psi_{n,k} with k outside [0, n] vanish;
#   3. the projector id + C-^2 leaves the function unchanged.

import numpy as np

from diskxray import basis, boundary, xray
from diskxray.geometry import CurvatureParam

kappa = 0.3
cp = CurvatureParam(kappa)
# the grid carries kappa: the range tools below read it from tpl, no cp
tpl = xray.boundary_grid(cp, 48, 64)
bb, aa = tpl.mesh()

# A genuine sinogram: transform of a random band-limited function.
rng = np.random.default_rng(7)
tab = basis.CoeffTable(nmax=5)
for n in range(6):
    for k in range(n + 1):
        tab[(n, k)] = complex(rng.normal(), rng.normal())


def f(z):
    return basis.w_kappa(z, cp) * basis.zernike_kappa_series(tab, z, cp)


sino = xray.sinogram(f, tpl)
print("candidate 1: a quadratured sinogram")
cu = boundary.c_minus(sino, tpl, 128, 256)
print(f"  ||C- u|| / ||u||          = {cu.norm() / sino.norm():.2e}")
rep = boundary.moment_residuals(sino, 8, 3)
print(f"  worst normalized moment   = {rep.max_normalized:.2e}")
proj = boundary.project_to_range(sino)
print(f"  projection relative change = {proj.relative_change:.2e}")
print(f"  range verdict: {rep.in_range}")

# A co-kernel mode: psi_{n,k} with k outside [0, n] is orthogonal to every
# sinogram.  The projector removes it entirely.
print("\ncandidate 2: the co-kernel mode psi_{2,-1}")
u = tpl.with_values(basis.psi_kappa_hat(2, -1, bb, aa, cp))
cu = boundary.c_minus(u, tpl, 128, 256)
print(f"  ||C- u|| / ||u||          = {cu.norm() / u.norm():.2e}   (eigenfunction: stays order 1)")
rep = boundary.moment_residuals(u, 4, 2)
print(f"  worst normalized moment   = {rep.max_normalized:.2e}")
proj = boundary.project_to_range(u)
print(f"  norm after projection     = {proj.projected.norm():.2e}")
print(f"  range verdict: {rep.in_range}")

# Mixed data: sinogram plus a co-kernel contamination.  The projector
# recovers the sinogram part exactly.
print("\ncandidate 3: sinogram + 0.3 * psi_{2,-1}")
mixed = tpl.with_values(sino.values + 0.3 * basis.psi_kappa_hat(2, -1, bb, aa, cp))
proj = boundary.project_to_range(mixed)
resid = tpl.with_values(proj.projected.values - sino.values)
print(f"  contamination removed: residual vs clean sinogram = {resid.norm() / sino.norm():.2e}")

# The operators behind the scenes act diagonally on an explicit family:
# C- u'_{p,q} = (-i/2)(sign(2q+1) + sign(2p-2q-1)) u'_{p,q}.  A few samples:
print("\nC- eigenvalue chart (rows p, cols q):")
qs = range(-3, 4)
print("       " + "   ".join(f"q={q:+d}" for q in qs))
for p in range(-3, 4):
    row = []
    for q in qs:
        lam = boundary.c_minus_rule(p, q)
        row.append(" 0 " if lam == 0 else ("-i " if lam.imag < 0 else "+i "))
    print(f"  p={p:+d}  " + "   ".join(row))
