"""Shot-level simulation, maximum-likelihood estimation and field sensitivity.

Synthetic experiments draw detected photon counts from the analytic count
distribution, estimate the rotation angle by maximizing the log-likelihood
over a grid with quadratic refinement, extract the per-shot Fisher
information from the variance across realizations (F = 1 / (N var)), and
bootstrap the partition of shots into realizations for its error bar.  The
log-likelihood table comes from the kernel's log domain, so it stays finite
where P(n | theta) underflows a double; the realizations of every bootstrap
draw are histogrammed first, and each distinct histogram is evaluated once.
The angle variance finally converts into a microwave field precision through
Delta E = (sqrt(var) / T) (hbar / d) and a sensitivity S = Delta E sqrt(T).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fockspace import FI_CROSS_CHECK_MAX, classical_fi
from .multiparticle import (
    BLOCK_ELEMENTS,
    ProtocolParams,
    _mixture_table,
    count_distribution,
    count_pmf,
    fisher_information,
)

__all__ = [
    "HBAR",
    "ELEMENTARY_CHARGE",
    "BOHR_RADIUS",
    "EstimationResult",
    "SensitivityReport",
    "default_theta_grid",
    "ml_estimate",
    "run_estimation",
    "dipole_moment_si",
    "field_precision",
    "sensitivity_from_model",
]

# CODATA-2018 constants, 12 significant digits.
HBAR = 1.05457181765e-34  # J s
ELEMENTARY_CHARGE = 1.60217663400e-19  # C (exact)
BOHR_RADIUS = 5.29177210903e-11  # m

DEFAULT_GRID_POINTS = 2000
DEFAULT_BOOTSTRAP = 200


@dataclass(frozen=True)
class EstimationResult:
    """Maximum-likelihood estimation summary over k realizations of N shots."""

    theta_hat_mean: float
    variance: float
    fi_per_shot: float
    fi_error: float
    bias: float
    partitions: tuple
    theta_hats: np.ndarray


@dataclass(frozen=True)
class SensitivityReport:
    """Per-shot angle precision converted to microwave-field figures.

    delta_E is in V/cm, sensitivity_S in V cm^-1 Hz^-1/2, pulse_time_T in
    seconds, dipole_moment in C m and rabi_frequency in rad/s.  theta_star
    and fisher_information record the operating point the report was
    derived from, when it came from the model pipeline.
    """

    delta_theta: float
    pulse_time_T: float
    delta_E: float
    sensitivity_S: float
    dipole_moment: float
    rabi_frequency: float | None = None
    theta_star: float | None = None
    fisher_information: float | None = None


def default_theta_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform grid of ``points`` interior angles of (0, pi), exclusive."""
    if points < 3:
        raise ValueError("grid needs at least 3 points")
    return np.linspace(0.0, math.pi, points + 2)[1:-1]


def _draw_counts(
    params: ProtocolParams, theta: float, n_shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Inverse-CDF draws of ``n_shots`` detected mode-d counts."""
    pmf = count_pmf(params, theta, "d")
    return np.searchsorted(np.cumsum(pmf), rng.random(n_shots)).clip(max=pmf.size - 1)


def _refine_argmax(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Grid argmax of each row of ``values``, refined by a local parabola.

    Ties break to the smaller angle; edge or non-concave maxima stay on the grid.
    """
    values = np.atleast_2d(values)
    i = np.argmax(values, axis=1)
    theta = grid[i].astype(float)
    rows = np.nonzero((i > 0) & (i < grid.size - 1))[0]
    ii = i[rows]
    lm, l0, lp = values[rows, ii - 1], values[rows, ii], values[rows, ii + 1]
    denom = lm - 2.0 * l0 + lp
    concave = denom < 0
    delta = np.zeros_like(lm)
    delta[concave] = 0.5 * (lm[concave] - lp[concave]) / denom[concave]
    step = grid[ii + 1] - grid[ii]
    theta[rows] = np.clip(grid[ii] + delta * step, grid[ii - 1], grid[ii + 1])
    return theta


def _log_likelihood_table(
    params: ProtocolParams, grid: np.ndarray, n_cut: int
) -> np.ndarray:
    """log P(n | theta) for n = 0..n_cut on every grid angle, from the log-domain kernel."""
    table = _mixture_table(params, grid, n_cut=n_cut, log=True)
    if not table.min() > -np.inf:
        raise ValueError("likelihood vanished on the angle grid; requires eta > 0")
    return table


def ml_estimate(counts, params: ProtocolParams) -> float:
    """Maximum-likelihood angle for a slice of detected counts.

    Maximizes the summed log-likelihood over :func:`default_theta_grid`
    (2000 interior points of (0, pi)) and refines the argmax with a local
    parabola.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-d array")
    grid = default_theta_grid()
    n_cut = int(counts.max())
    log_table = _log_likelihood_table(params, grid, n_cut)
    hist = np.bincount(counts, minlength=n_cut + 1).astype(float)
    return float(_refine_argmax(grid, log_table @ hist)[0])


def _histograms(bins: np.ndarray, rows: int, width: int) -> np.ndarray:
    """(rows, width) count histograms of shots already offset into their row's bins."""
    return np.bincount(bins, minlength=rows * width).reshape(rows, width)


def _estimates_for_histograms(hists, grid, log_table):
    """ML estimate for each row of an integer (rows, n_cut + 1) histogram matrix.

    Each distinct histogram is evaluated once, in near-equal matmul blocks
    of at most ``BLOCK_ELEMENTS`` log-likelihood values, and the estimates
    are scattered back to every row that holds it.
    """
    keys = hists.view(np.dtype((np.void, hists.dtype.itemsize * hists.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = hists[first]
    blocks = -(-distinct.shape[0] * grid.size // BLOCK_ELEMENTS)
    hats = np.concatenate(
        [
            _refine_argmax(grid, block @ log_table.T)
            for block in np.array_split(distinct, max(1, blocks))
        ]
    )
    return hats[inverse]


def _variance(theta_hats: np.ndarray) -> np.ndarray:
    """Sample variance of the estimates along the last axis.

    No row may be all equal; that is tested by equality, because ``np.var``
    of equal values can round to a tiny positive.
    """
    if np.any(np.all(theta_hats == theta_hats[..., :1], axis=-1)):
        raise NumericalError(
            "ML estimates are identical in every realization; zero variance "
            "gives no Fisher information"
        )
    return np.var(theta_hats, axis=-1, ddof=1)


def run_estimation(
    params: ProtocolParams,
    theta_true: float,
    n_total: int,
    shots_per_realization: int,
    seed: int | None = None,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
) -> EstimationResult:
    """Full synthetic estimation experiment at one true angle.

    Samples ``n_total`` shots, divides them into k = n_total / N
    realizations of N = ``shots_per_realization`` shots, estimates the
    angle in each on :func:`default_theta_grid`, and converts the variance
    across realizations into a per-shot Fisher information F = 1 / (N var).
    The split of shots into realizations is bootstrapped (random
    re-assignments, ``n_bootstrap`` draws) to attach an error bar to F; the
    draws' realization histograms are collected first and each distinct one
    is evaluated once, with the same results as one likelihood evaluation
    per draw.  Bit-identical
    results under a fixed seed; per-stage random streams are spawned from
    the master seed, so the outcome does not depend on evaluation order.
    Raises :class:`NumericalError` if the estimates of the realizations, or
    of any bootstrap re-partition, are all equal (zero variance).
    """
    n = shots_per_realization
    if n < 1 or n_total < 1 or n_total % n != 0:
        raise ValueError("shots_per_realization must divide n_total")
    k = n_total // n
    if k < 10:
        warnings.warn(
            f"only k={k} realizations; the variance estimate is unreliable",
            stacklevel=2,
        )
    seed_seq = np.random.SeedSequence(seed)
    shot_seq, boot_seq = seed_seq.spawn(2)
    counts = _draw_counts(params, theta_true, n_total, np.random.default_rng(shot_seq))

    grid = default_theta_grid()
    log_table = _log_likelihood_table(params, grid, int(counts.max()))
    width = log_table.shape[1]
    # shot i of a realization-ordered sequence lands in the bins of row i // n
    offsets = np.repeat(np.arange(k) * width, n)

    theta_hats = _estimates_for_histograms(
        _histograms(counts + offsets, k, width), grid, log_table
    )
    variance = float(_variance(theta_hats))
    fi_per_shot = 1.0 / (n * variance)

    boot_rng = np.random.default_rng(boot_seq)
    hists = np.empty((n_bootstrap, k, width), dtype=np.int64)
    for b in range(n_bootstrap):
        hists[b] = _histograms(counts[boot_rng.permutation(n_total)] + offsets, k, width)
    boot_hats = _estimates_for_histograms(hists.reshape(-1, width), grid, log_table)
    boot_fis = 1.0 / (n * _variance(boot_hats.reshape(n_bootstrap, k)))
    fi_error = float(np.std(boot_fis, ddof=1))

    return EstimationResult(
        theta_hat_mean=float(np.mean(theta_hats)),
        variance=variance,
        fi_per_shot=fi_per_shot,
        fi_error=fi_error,
        bias=float(np.mean(theta_hats) - theta_true),
        partitions=(n, k),
        theta_hats=theta_hats,
    )


def dipole_moment_si(value_e_a0: float) -> float:
    """Transition dipole moment in C m from its value in units of e a0."""
    return value_e_a0 * ELEMENTARY_CHARGE * BOHR_RADIUS


def field_precision(
    delta2_theta: float,
    pulse_time_T: float,
    dipole_moment: float,
    rabi_frequency: float | None = None,
    theta_star: float | None = None,
    fisher_information: float | None = None,
) -> SensitivityReport:
    """Convert an angle variance into microwave-field precision figures.

    Delta E = (sqrt(delta2_theta) / T) (hbar / d) in V/cm and the
    sensitivity S = Delta E sqrt(T) at 100% duty cycle.
    """
    if delta2_theta <= 0 or pulse_time_T <= 0 or dipole_moment <= 0:
        raise ValueError("variance, pulse time and dipole moment must be positive")
    delta_theta = math.sqrt(delta2_theta)
    delta_e_v_per_m = (delta_theta / pulse_time_T) * (HBAR / dipole_moment)
    delta_e = delta_e_v_per_m / 100.0  # V/cm
    return SensitivityReport(
        delta_theta=delta_theta,
        pulse_time_T=pulse_time_T,
        delta_E=delta_e,
        sensitivity_S=delta_e * math.sqrt(pulse_time_T),
        dipole_moment=dipole_moment,
        rabi_frequency=rabi_frequency,
        theta_star=theta_star,
        fisher_information=fisher_information,
    )


def sensitivity_from_model(
    params: ProtocolParams,
    rabi_frequency: float,
    dipole_moment: float,
    grid_points: int = 512,
    fisher_override: float | None = None,
) -> SensitivityReport:
    """Sensitivity at the Fisher-information-optimal angle of the model.

    Scans the exact per-shot FI over an interior grid of (0, pi) in one
    batched call, picks the best angle theta*, sets the per-shot precision
    to 1/sqrt(F) and the pulse time to T = theta* / Omega.  The F it
    reports, read at the best grid angle, is checked once against the
    finite-difference FI there; a relative gap above ``FI_CROSS_CHECK_MAX``
    raises :class:`NumericalError`.  ``fisher_override`` substitutes an
    externally measured F while keeping the model's theta*.  A zero
    detected mean n0 eta raises ``ValueError``.
    """
    if rabi_frequency <= 0:
        raise ValueError("rabi_frequency must be positive")
    if params.detected_mean <= 0:
        raise ValueError(
            "sensitivity undefined: the detected mean n0 * eta is zero, so the "
            "counts carry no information"
        )
    grid = default_theta_grid(grid_points)
    fis = fisher_information(params, grid)
    best = int(np.argmax(fis))
    theta_star = float(_refine_argmax(grid, fis)[0])
    fi_star = float(fis[best])
    fi_fd = classical_fi(lambda t: count_distribution(params, t), float(grid[best]))
    gap = abs(fi_star - fi_fd) / fi_fd if fi_fd > 0 else math.inf
    if not gap <= FI_CROSS_CHECK_MAX:
        raise NumericalError(
            f"exact F = {fi_star:.12g} and finite-difference F = {fi_fd:.12g} at "
            f"theta = {grid[best]:.6g} differ by {gap:.2e} relative"
        )
    fi_used = fisher_override if fisher_override is not None else fi_star
    pulse_time = theta_star / rabi_frequency
    return field_precision(
        delta2_theta=1.0 / fi_used,
        pulse_time_T=pulse_time,
        dipole_moment=dipole_moment,
        rabi_frequency=rabi_frequency,
        theta_star=theta_star,
        fisher_information=fi_used,
    )
