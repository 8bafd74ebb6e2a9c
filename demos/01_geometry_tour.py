#!/usr/bin/env python3
# Tour of the constant-curvature disk geometry.
#
# The disk carries the metric (1 + kappa |z|^2)^{-2} |dz|^2 of curvature
# 4*kappa.  This script walks through the geodesics, the scattering
# relation, and the closed-form identities that make the X-ray transform
# of this family explicitly diagonalizable.

import numpy as np

from diskxray.geometry import (
    CurvatureParam,
    exit_time,
    footpoint_angles,
    geodesic_point,
    scattering_angles,
    sig,
    sig_prime,
)

kappa = 0.5
cp = CurvatureParam(kappa)
print(f"curvature 4*kappa = {4 * kappa}, lambda = {cp.lam:.4f}\n")

# A geodesic is determined by its entry point e^{i beta} and the fan-beam
# angle alpha against the inward normal.  Chord lengths shrink as the
# curvature grows:
print("exit times tau(alpha):")
for alpha in (0.0, 0.4, 1.0, np.pi / 2):
    row = "  alpha = %5.2f:" % alpha
    for k in (-0.5, 0.0, 0.5):
        row += "  tau_%+4.1f = %.4f" % (k, exit_time(alpha, CurvatureParam(k)))
    print(row)

# Sample a geodesic.  It starts and ends on the unit circle, and the end
# point is predicted by the scattering relation without integrating.
beta, alpha = 0.3, 0.55
tau = exit_time(alpha, cp)
t = np.linspace(0.0, tau, 7)
pts = geodesic_point(beta, alpha, t, cp)
print("\ngeodesic from (beta, alpha) = (0.3, 0.55):")
for ti, zi in zip(t, pts):
    print(f"  t = {ti:.3f}   z = {zi.real:+.4f} {zi.imag:+.4f}i   |z| = {abs(zi):.6f}")
end_beta, end_alpha = scattering_angles(beta, alpha, cp)
print(f"scattering predicts exit at beta' = {end_beta:.6f}")
print(f"geodesic actually exits at       {np.angle(pts[-1]) % (2 * np.pi):.6f}")

# The whole boundary behavior is governed by one scalar function, the
# scattering signature sig(alpha) = arctan(lambda tan alpha).  Flat disks
# have sig = id; curvature spreads or focuses the exit points.
a = np.linspace(-np.pi / 2, np.pi / 2, 5)
print("\nscattering signature sig(alpha) and its derivative:")
for ai in a:
    print(f"  alpha = {ai:+.3f}   sig = {sig(ai, cp):+.4f}   sig' = {sig_prime(ai, cp):.4f}")

# Two identities that everything downstream relies on:
# (1) e^{2i sig} (1 + kappa e^{2i alpha}) = e^{2i alpha} + kappa
# (2) e^{i alpha}(e^{-i sig} - kappa e^{i sig}) is real and positive,
#     and equals sqrt((1 - kappa^2) sig')
rng = np.random.default_rng(0)
aa = rng.uniform(-np.pi, np.pi, 1000)
ss = sig(aa, cp)
lhs = np.exp(2j * ss) * (1 + kappa * np.exp(2j * aa))
print("\nlinear-fractional identity residual: %.2e" % np.max(np.abs(lhs - np.exp(2j * aa) - kappa)))
f = np.exp(1j * aa) * (np.exp(-1j * ss) - kappa * np.exp(1j * ss))
print("sqrt-jacobian imaginary part:        %.2e" % np.max(np.abs(f.imag)))

# The footpoint map inverts the geodesic flow: given an interior point
# and a direction, it returns the entry coordinates of the geodesic
# through it, in closed form (no shooting).
rho, omega, theta = 0.6, 1.1, 2.0
bm, am = footpoint_angles(rho, omega, theta, cp)
print(f"\nfootpoint of (rho e^(i omega), theta) = ({rho}, {omega}, {theta}):")
print(f"  entry (beta_-, alpha_-) = ({bm:.6f}, {am:.6f})")
# verify: walk the geodesic and find the closest approach to the point
target = rho * np.exp(1j * omega)
tgrid = np.linspace(0, exit_time(am, cp), 4001)
dist = np.abs(geodesic_point(bm, am, tgrid, cp) - target)
i = int(np.argmin(dist))
fine = np.linspace(tgrid[max(i - 1, 0)], tgrid[min(i + 1, len(tgrid) - 1)], 20001)
dist = np.abs(geodesic_point(bm, am, fine, cp) - target)
print(f"  closest approach of that geodesic to the point: {dist.min():.2e}")
