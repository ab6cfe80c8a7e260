"""Two-excitation error-prevention protocol, end to end.

A pair of excitations in |2,0> is rotated by theta, optionally passed
through the non-unitary operation that dumps the |1,1> component into the
vacuum, and counted with a lossy detector.  The script prints the Fisher
information with and without the operation and the resulting enhancement.
"""

import numpy as np

from rydsense.error_prevention import (
    enhancement_curve,
    expectation_curves,
    fi_with_prevention,
    fi_without_prevention,
    optimality_bound,
)

eta = 0.02  # detection efficiency of the experiment

print(f"detection efficiency eta = {eta}")
print(f"FI without the operation (any angle):   {fi_without_prevention(eta, 1.0):.6f}"
      f"  (= 2 eta = {2 * eta})")
peak = fi_with_prevention(eta, np.pi / 2)
print(f"FI with the operation at theta = pi/2:  {peak:.6f}"
      f"  (= 2 eta (2 - eta) = {2 * eta * (2 - eta)})")
print(f"enhancement factor: {peak / (2 * eta):.4f}  (approaches 2 as eta -> 0)")
print(f"optimality bound eta(2 - eta) F_Q:      {optimality_bound(eta):.6f}")
print()

grid = np.linspace(0.2, np.pi - 0.2, 9)
fi_bare, fi_op = enhancement_curve(eta, grid)
nd_with, nd_without = expectation_curves(eta, grid)
bound = optimality_bound(eta)

print(f"{'theta':>8} {'FI bare':>10} {'FI with op':>11} {'bound':>9} "
      f"{'<n_d> with':>11} {'<n_d> bare':>11}")
for theta, a, b, nd_w, nd_wo in zip(grid, fi_bare, fi_op, nd_with, nd_without):
    print(f"{theta:8.3f} {a:10.6f} {b:11.6f} {bound:9.6f} {nd_w:11.6f} {nd_wo:11.6f}")

print()
print("The bare FI is angle independent; the operation trades mean photon")
print("number for a near doubling of information at the peak, and never")
print("breaks the optimality bound.")
