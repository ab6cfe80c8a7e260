"""Reference values computed apart from the package under test.

Nothing here imports ``rydsense``.  The checks in ``workloads.py`` compare
the program's outputs against these values or against properties the
method must have; none of them compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import gammaln, xlogy

LOSS_AFTER = "after_interaction"
LOSS_BEFORE = "before_interaction"

# CODATA-2018: h and e are exact; hbar = h / 2 pi is rounded to the 12
# significant digits the package documents for its embedded constants, so
# that a 1e-12 relative check tests the arithmetic, not the rounding.
PLANCK = 6.62607015e-34  # J s
HBAR = float(f"{PLANCK / (2.0 * math.pi):.11e}")  # J s
ELEMENTARY_CHARGE = 1.602176634e-19  # C
BOHR_RADIUS = 5.29177210903e-11  # m


def poisson_pmf(counts: np.ndarray, mean) -> np.ndarray:
    """Poisson(counts; mean), broadcasting; mean 0 gives the point mass at 0."""
    mean = np.asarray(mean, dtype=float)
    return np.exp(xlogy(counts, mean) - mean - gammaln(counts + 1.0))


def _window(mean: float) -> int:
    # far beyond any tail the package keeps: Poisson mass above it < 1e-30
    return int(math.ceil(mean + 12.0 * math.sqrt(mean) + 30.0))


def mixture_pmf_and_grad(n0, eta, gamma_tau, theta, loss_order=LOSS_AFTER, mode="d"):
    """Detected-count pmf P(n | theta) in one mode and its exact theta-derivative.

    P(n) = sum_k Pois(k; B) Pois(n; D exp(-gamma_tau k)), with B the mean
    of the decay-driving mode and D the detected mean of the read-out mode.
    The derivative uses the ladder identity
    d/dmu Pois(n; mu) = Pois(n - 1; mu) - Pois(n; mu), in B and in mu.
    """
    c2 = math.cos(theta / 2.0) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    half_sin = 0.5 * math.sin(theta)
    read, d_read = (c2, -half_sin) if mode == "d" else (s2, half_sin)
    ctrl, d_ctrl = 1.0 - read, -d_read
    d, d_d = eta * n0 * read, eta * n0 * d_read
    scale = n0 if loss_order == LOSS_AFTER else eta * n0
    b, d_b = scale * ctrl, scale * d_ctrl

    k = np.arange(_window(b) + 1, dtype=float)
    n = np.arange(_window(d) + 1, dtype=float)
    w = poisson_pmf(k, b)
    dw = (np.concatenate(([0.0], w[:-1])) - w) * d_b
    damp = np.exp(-gamma_tau * k)
    mu = d * damp
    pk = poisson_pmf(n[None, :], mu[:, None])
    pk_prev = np.concatenate((np.zeros((k.size, 1)), pk[:, :-1]), axis=1)
    dpk = (pk_prev - pk) * (d_d * damp)[:, None]
    return w @ pk, dw @ pk + w @ dpk


def fisher_information(n0, eta, gamma_tau, theta, loss_order=LOSS_AFTER) -> float:
    """Per-shot FI of the mode-d count distribution, sum (dP)^2 / P."""
    p, dp = mixture_pmf_and_grad(n0, eta, gamma_tau, theta, loss_order)
    live = p > 0.0
    return float(np.sum(dp[live] ** 2 / p[live]))


def mean_count(n0, eta, gamma_tau, theta, mode, loss_order=LOSS_AFTER) -> float:
    """Mean detected count in ``mode``, summed from the pmf."""
    p, _ = mixture_pmf_and_grad(n0, eta, gamma_tau, theta, loss_order, mode)
    return float(np.arange(p.size) @ p)


def field_figures(theta_star, fisher, rabi_rad_s, dipole_cm):
    """(Delta E in V/cm, S in V/cm/sqrt(Hz)) from the operating point."""
    pulse_time = theta_star / rabi_rad_s
    delta_e = (1.0 / math.sqrt(fisher)) / pulse_time * HBAR / dipole_cm / 100.0
    return delta_e, delta_e * math.sqrt(pulse_time)


def volumetric_rate_q(c3_over_2pi_hbar_ghz_um3: float) -> float:
    """Q = 4 pi^2 / (9 sqrt 3) * C3/hbar in um^3/s."""
    c3_over_hbar = 2.0 * math.pi * 1e9 * c3_over_2pi_hbar_ghz_um3
    return 4.0 * math.pi**2 / (9.0 * math.sqrt(3.0)) * c3_over_hbar


def gaussian_gamma(c3_over_2pi_hbar_ghz_um3: float, sigmas) -> float:
    """gamma = 2 Q / V_eff in 1/s for a gaussian cloud, V_eff = (4 pi)^1.5 sx sy sz."""
    v_eff = (4.0 * math.pi) ** 1.5 * sigmas[0] * sigmas[1] * sigmas[2]
    return 2.0 * volumetric_rate_q(c3_over_2pi_hbar_ghz_um3) / v_eff


def gaussian_readout(depth: float) -> float:
    """exp(-n_p gamma t) at the local density, averaged over a gaussian cloud.

    ``depth`` is n_p gamma t with the cloud's mean rate gamma = 2 Q / V_eff.
    At r standard deviations from the centre the local rate is
    gamma p(x) / <p> = gamma 2^1.5 exp(-r^2 / 2), and r has the density
    sqrt(2 / pi) r^2 exp(-r^2 / 2).
    """

    def integrand(r: float) -> float:
        local = math.exp(-0.5 * r * r)
        return math.sqrt(2.0 / math.pi) * r * r * local * math.exp(-depth * 2.0**1.5 * local)

    value, _ = integrate.quad(integrand, 0.0, 12.0, epsabs=1e-13, epsrel=1e-12)
    return value
