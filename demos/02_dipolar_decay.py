"""Dipolar excluded volume and the interaction-induced decay rate.

Evaluates the complex excluded-volume integral A(t) in closed form, shows
the linear growth of its real part at the closed-form volumetric rate Q,
and converts Q into the per-control-excitation decay rate gamma for the
experimental cloud.  A Monte-Carlo evaluation of the read-out suppression
cross-checks the exponential decay law for several control excitations.
"""

import numpy as np

from rydsense.dipolar import (
    CloudGeometry,
    DipolarParams,
    decay_rate_gamma,
    excluded_volume_integral,
    pair_potential,
    readout_expectation_mc,
    volumetric_rate_q,
)

box = CloudGeometry("box", (80.0, 80.0, 4000.0))
params = DipolarParams.from_tabulated(3.709, box)  # C3/(2 pi hbar) in GHz um^3

print("pair potential at r = 5 um:")
for vartheta in (0.0, np.pi / 4, np.pi / 2):
    v = pair_potential(5.0, vartheta, params)
    print(f"  vartheta = {vartheta:5.3f} rad -> V/hbar = {v / (2 * np.pi):+.4g} Hz * 2pi")

q = volumetric_rate_q(params)
print(f"\nclosed-form volumetric rate Q = {q:.4g} um^3/s")
print("excluded volume A(t): real part grows linearly, Re A = Q t")
for t in (0.1, 1.0, 10.0):
    a = excluded_volume_integral(t, params)
    print(f"  t = {t:5.2f} us: Re A = {a.real:12.1f} um^3   Im A = {a.imag:12.1f} um^3"
          f"   Re A / t = {a.real / t * 1e6:.5g} um^3/s")

gamma = decay_rate_gamma(params)
print(f"\ndecay rate gamma = 2Q/V = {gamma:.4g} 1/s for the 80 x 80 x 4000 um^3 box")
print(f"(reading C3/hbar without the 2 pi would give {gamma / (2 * np.pi):.4g} 1/s;")
print(" the published estimate of 1.9 kHz sits between the two conventions)")

cloud = CloudGeometry("gaussian", (60.0, 60.0, 3000.0))
mc_params = DipolarParams.from_tabulated(3.709, cloud)
gamma_us = decay_rate_gamma(mc_params) * 1e-6
t = 0.3
print(f"\nMonte-Carlo read-out for a gaussian cloud, t = {t} us:")
for n_p in (1, 5, 10):
    r = readout_expectation_mc(t, n_p, mc_params, samples=50_000, seed=n_p)
    print(f"  n_p = {n_p:2d}: <d'd>/exc = {r.value:.6f} +- {r.stderr:.1e}"
          f"   exp(-n_p gamma t) = {np.exp(-n_p * gamma_us * t):.6f}")
