#!/usr/bin/env python3
# The exact singular value decomposition of the X-ray transform, and
# using it to invert sinograms, with and without noise.

import numpy as np

from diskxray import basis, xray
from diskxray.geometry import CurvatureParam

kappa = 0.4
cp = CurvatureParam(kappa)

# Singular values depend only on the degree n:
#   sigma_n = 2 sqrt(pi) / (sqrt(1 - kappa) sqrt(n + 1)).
# The transform is only mildly ill-posed (algebraic decay).
print("singular values:")
for n in range(7):
    print(f"  n = {n}:  sigma = {xray.singular_value(n, cp):.6f}")

# The diagonal identity: the transform of w_kappa * Zhat_{n,k} is exactly
# sigma_n * psihat_{n,k}.  Check one mode by raw quadrature.  A grid
# carries its kappa, so sinogram and invert read it from tpl and take no cp.
tpl = xray.boundary_grid(cp, 48, 64)
bb, aa = tpl.mesh()
n, k = 3, 1
f = lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(n, k, z, cp)
sino = xray.sinogram(f, tpl)
want = xray.singular_value(n, cp) * basis.psi_kappa_hat(n, k, bb, aa, cp)
print(f"\nforward of mode ({n},{k}): pointwise deviation from sigma * psi_hat:"
      f" {np.max(np.abs(sino.values - want)):.2e}")

# Build a phantom out of a handful of modes, simulate its sinogram by
# geodesic quadrature, and invert by dividing out the singular values.
tab = basis.CoeffTable(nmax=6)
tab[(1, 0)] = 0.7
tab[(3, 2)] = 0.2j
tab[(6, 3)] = -0.4 + 0.1j


def phantom(z):
    return basis.w_kappa(z, cp) * basis.zernike_kappa_series(tab, z, cp)


sino = xray.sinogram(phantom, tpl)
dg = xray.disk_grid(cp, 96, 64)
res = xray.invert(sino, 6, disk_template=dg)
truth = dg.with_values(phantom(dg.points()))
err = dg.with_values(res.recon.values - truth.values).norm() / truth.norm()
print("\nclean round trip:")
print(f"  relative reconstruction error: {err:.2e}")
print(f"  data-space residual:           {res.residual:.2e}")
print("  recovered coefficients:")
for (nn, kk), c in res.coeffs.items():
    if abs(c) > 1e-8:
        print(f"    ({nn},{kk}): {c:+.6f}")

# Noise amplification.  Dividing by sigma_n multiplies in-band noise by
# at most 1/sigma_nmax; the inversion report carries that bound.
rng = np.random.default_rng(1)
rms = np.sqrt(np.mean(np.abs(sino.values) ** 2))
noisy = sino.with_values(
    sino.values + 0.01 * rms * (rng.normal(size=sino.shape) + 1j * rng.normal(size=sino.shape))
)
res_noisy = xray.invert(noisy, 6, disk_template=dg)
err_noisy = dg.with_values(res_noisy.recon.values - truth.values).norm() / truth.norm()
print("\nwith 1% complex Gaussian noise per sample:")
print(f"  relative reconstruction error: {err_noisy:.2e}")
print(f"  amplification bound 1/sigma_min: {res_noisy.noise_amplification_bound:.3f}")

# Truncating harder trades resolution for stability: compare nmax.
for nmax in (2, 4, 6):
    r = xray.invert(noisy, nmax, disk_template=dg)
    e = dg.with_values(r.recon.values - truth.values).norm() / truth.norm()
    print(f"  nmax = {nmax}: error {e:.3e}, bound {r.noise_amplification_bound:.3f}")
