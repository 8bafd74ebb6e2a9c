#!/usr/bin/env python3
# The two singular families: deformed Zernike functions on the disk and
# the weighted exponential family on the inward boundary bundle.

import numpy as np

from diskxray import basis, xray
from diskxray.geometry import CurvatureParam

# Disk side.  The plain Zernike polynomials (kappa = 0 case) follow the
# complex convention Z_{n,0} = z^n with boundary values (-1)^k e^{i(n-2k)w}.
print("plain Zernike radial profiles R_{n,k}(rho):")
rho = np.linspace(0, 1, 6)
for (n, k) in [(0, 0), (1, 0), (2, 1), (4, 2)]:
    vals = basis.zernike_radial(n, k, rho)
    print(f"  R_{n},{k}: " + "  ".join(f"{v:+.4f}" for v in vals))

# For curved disks the same family is composed with a rational radial map
# and multiplied by a curvature weight; the functions stop being
# polynomials but keep closed-form norms.
for kappa in (-0.5, 0.5):
    cp = CurvatureParam(kappa)
    vals = basis.zernike_kappa(2, 1, rho + 0j, cp)
    print(f"  kappa={kappa:+.1f} deformed R_2,1: " + "  ".join(f"{v.real:+.4f}" for v in vals))

# Orthogonality check by quadrature, disk side.  The weight w_kappa and
# the curved volume form together make the family orthogonal with norm
# pi / ((1 - kappa^2)(n + 1)).
kappa = 0.5
cp = CurvatureParam(kappa)
grid = xray.disk_grid(cp, 96, 48, measure="weighted")
pts = grid.points()
f31 = grid.with_values(basis.zernike_kappa(3, 1, pts, cp))
f32 = grid.with_values(basis.zernike_kappa(3, 2, pts, cp))
print("\ndisk-side Gram entries at kappa = 0.5:")
print(f"  <Z_31, Z_31> = {xray.inner(f31, f31).real:.12f}"
      f"   (closed form {np.pi / ((1 - kappa**2) * 4):.12f})")
print(f"  <Z_31, Z_32> = {abs(xray.inner(f31, f32)):.2e}")

# Boundary side.  psi_{n,k} combines a beta-harmonic, the scattering
# signature, and the sqrt(sig') weight; all members share one norm.
bg = xray.boundary_grid(cp, 32, 48)
bb, aa = bg.mesh()
p21 = bg.with_values(basis.psi_kappa(2, 1, bb, aa, cp))
p64 = bg.with_values(basis.psi_kappa(6, 4, bb, aa, cp))
print("\nboundary-side Gram entries:")
print(f"  <psi_21, psi_21> = {xray.inner(p21, p21).real:.12f}"
      f"   (closed form {1 / (4 * (1 + kappa)):.12f})")
print(f"  <psi_21, psi_64> = {abs(xray.inner(p21, p64)):.2e}")

# The boundary family diagonalizes the fiberwise Hilbert transform: each
# sqrt(sig')-weighted exponential is an eigenfunction with eigenvalue
# -i sign(2q + 1).  Verified through the fiber FFT:
nf = 512
afull = np.arange(nf) * 2 * np.pi / nf
m = np.fft.fftfreq(nf, 1.0 / nf).astype(int)
for q in (-3, 0, 2):
    vals = basis.phi_prime(1, q, 0.0, afull, cp)
    hv = np.fft.ifft(np.fft.fft(vals) * (-1j * np.sign(m)))
    resid = np.max(np.abs(hv + 1j * np.sign(2 * q + 1) * vals))
    print(f"  Hilbert eigenrelation, q = {q:+d}: residual {resid:.2e}")

# Index bookkeeping between the two labelings: the boundary pair
# (p, q) = (n - 2k, n - k) and back.
print("\nindex map (n,k) <-> (p,q):")
for (n, k) in [(3, 0), (3, 3), (5, 2)]:
    p, q = basis.nk_to_pq(n, k)
    print(f"  (n,k) = ({n},{k})  ->  (p,q) = ({p},{q})  ->  {basis.pq_to_nk(p, q)}")
