"""Shot-level simulation, maximum-likelihood estimation and field sensitivity.

Synthetic experiments draw detected photon counts from the analytic count
distribution, estimate the rotation angle by maximizing the log-likelihood
over a grid with quadratic refinement, extract the per-shot Fisher
information from the variance across realizations (F = 1 / (N var)), and
bootstrap the partition of shots into realizations for its error bar.  The
log-likelihood table comes from the kernel's log domain, so it stays finite
where P(n | theta) underflows a double.  A bootstrap draw's realization
histograms come straight from their exact law, by recursive hypergeometric
splits of the count histogram, when few count values occur; otherwise the
shots are permuted and histogrammed.  Each distinct histogram of the
realizations and of all draws is evaluated once, by an exact but pruned grid
search: upper bounds of the log-likelihood on intervals of the angle grid
leave out every interval that cannot hold the grid maximum, and the rest are
evaluated as the full grid would be, bit for bit.
The angle variance finally converts into a microwave field precision through
Delta E = (sqrt(var) / T) (hbar / d) and a sensitivity S = Delta E sqrt(T).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, _check_seed, _is_integer
from .fockspace import FI_CROSS_CHECK_MAX, classical_fi
from .multiparticle import (
    BLOCK_ELEMENTS,
    ProtocolParams,
    _informative_mean,
    _mixture_means,
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
# The bootstrap's hypergeometric split draws about w_eff - 1 variates per
# realization, where a permutation moves n shots; the split is the faster
# of the two while n >= _SPLIT_SHOTS_PER_VALUE (w_eff - 1) (crossover
# measured in BENCH_16.json).
_SPLIT_SHOTS_PER_VALUE = 11
# numpy's hypergeometric takes ngood and nbad below 10**9
_HYPERGEOMETRIC_MAX = 10**9
# The ML search bounds the log-likelihood on intervals of _INTERVAL grid
# angles and evaluates it in runs of _RUN angles, in products of at least
# _MIN_GROUP_ROWS histograms (see _block_estimates).
_RUN = 8
_INTERVAL = 5 * _RUN
_MIN_GROUP_ROWS = 32
# Values of one block of bounds, or of one evaluated product, in the ML
# search: half the kernel's block, which keeps the search's peak memory below
# that of the full-grid search it replaced (BENCH_23.json)
_SEARCH_ELEMENTS = BLOCK_ELEMENTS // 2


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
    """Uniform grid of ``points`` interior angles of (0, pi), exclusive.

    ``ValueError`` unless ``points`` is an integer (not bool) of at least 3.
    """
    if not _is_integer(points):
        raise ValueError(f"the number of grid points must be an integer, got {points!r}")
    if points < 3:
        raise ValueError("grid needs at least 3 points")
    return np.linspace(0.0, math.pi, points + 2)[1:-1]


def _draw_counts(
    params: ProtocolParams, theta: float, n_shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Inverse-CDF draws of ``n_shots`` detected mode-d counts."""
    pmf = count_pmf(params, theta)
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
    b, d = _mixture_means(params, grid)
    table = _mixture_table(b, d, params.gamma_tau, n_cut=n_cut)
    if not table.min() > -np.inf:
        raise ValueError("likelihood vanished on the angle grid; requires eta > 0")
    return table


def _count_dtype(total: int) -> type:
    """int32 for histograms of fewer than 2**31 shots, else int64.

    The estimates take the histograms only through exact conversions to
    float, so the narrower type changes no result.
    """
    return np.int32 if total < 2**31 else np.int64


def _histograms(bins: np.ndarray, rows: int, width: int) -> np.ndarray:
    """(rows, width) count histograms of shots already offset into their row's bins."""
    hists = np.bincount(bins, minlength=rows * width).reshape(rows, width)
    return hists.astype(_count_dtype(bins.size), copy=False)


def _split_compositions(
    totals: np.ndarray, k: int, n: int, n_bootstrap: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_bootstrap, k, w) compositions of k random realizations of n shots each.

    ``totals`` holds the w shot counts of each value over all k n shots.  The
    realizations are split in halves, recursively: a left half of h
    realizations takes h n shots drawn without replacement from its parent,
    so its composition is multivariate hypergeometric given the parent's,
    and it is drawn value by value, each value hypergeometric given the
    values before it.  Every level draws all nodes of all draws in one call
    per value, ceil(log2 k) levels of (w - 1) calls in all.  The node tables
    are int32 below 2**31 shots; the hypergeometric calls see the same values.
    """
    # value-major layout: comp[j, b, node] counts value j in a node of draw b
    dtype = _count_dtype(k * n)
    comp = np.repeat(totals.astype(dtype)[:, None, None], n_bootstrap, axis=1)
    sizes = np.array([k])
    while sizes.size < k:
        split = sizes > 1
        parent = comp[:, :, split]
        half = sizes[split] // 2
        left = np.empty_like(parent)
        remaining = np.repeat((half * n)[None, :], n_bootstrap, axis=0)
        bad = sizes[split] * n - parent[0]
        for j in range(totals.size - 1):
            left[j] = rng.hypergeometric(parent[j], bad, remaining)
            remaining -= left[j]
            bad -= parent[j + 1]
        left[-1] = remaining
        comp = np.concatenate([comp[:, :, ~split], left, parent - left], axis=2)
        sizes = np.concatenate([sizes[~split], half, sizes[split] - half])
    return comp.transpose(1, 2, 0)


def _bootstrap_histograms(
    counts: np.ndarray, k: int, width: int, n_bootstrap: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_bootstrap, k, width) histograms of random re-partitions of ``counts``.

    Each draw assigns the shots uniformly at random to k realizations of
    n = counts.size / k shots.  A narrow histogram, whose w_eff occurring
    count values satisfy ``_SPLIT_SHOTS_PER_VALUE`` (w_eff - 1) <= n, draws
    each table from that law directly by :func:`_split_compositions`, at a
    cost that grows with k w_eff; a wide one permutes the shots of each draw
    and histograms them, at a cost that grows with k n.  numpy's
    hypergeometric takes populations below 10**9, so larger inputs permute.
    The tables are int32 below 2**31 shots.
    """
    n = counts.size // k
    totals = np.bincount(counts, minlength=width)
    values = np.flatnonzero(totals)
    hists = np.zeros((n_bootstrap, k, width), dtype=_count_dtype(counts.size))
    if (
        _SPLIT_SHOTS_PER_VALUE * (values.size - 1) <= n
        and counts.size < _HYPERGEOMETRIC_MAX
    ):
        hists[..., values] = _split_compositions(totals[values], k, n, n_bootstrap, rng)
        return hists
    offsets = np.repeat(np.arange(k) * width, n)
    for b in range(n_bootstrap):
        hists[b] = _histograms(counts[rng.permutation(counts.size)] + offsets, k, width)
    return hists


def _distinct_rows(hists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of one row of each distinct row of ``hists``, and each row's distinct index.

    Each row of the non-negative integer matrix is packed into one exact
    int64 key, column by column in mixed radix (column max + 1).  Before a
    column would overflow int64, the keys so far are replaced by their dense
    rank, which keeps equal rows equal and distinct rows distinct.
    """
    limit = np.iinfo(np.int64).max
    keys = np.zeros(hists.shape[0], dtype=np.int64)
    top = 0
    for column, radix in zip(hists.T, (hists.max(axis=0) + 1).tolist()):
        if top > (limit - (radix - 1)) // radix:
            _, keys = np.unique(keys, return_inverse=True)
            top = int(keys.max())
        keys *= radix
        keys += column
        top = top * radix + radix - 1
    _, inverse = np.unique(keys, return_inverse=True)
    rows = np.empty(inverse.max() + 1, dtype=np.intp)
    rows[inverse] = np.arange(inverse.size)
    return rows, inverse


def _estimates_for_histograms(hists, grid, log_table):
    """ML estimate for each row of an integer (rows, n_cut + 1) histogram matrix.

    Each distinct histogram is evaluated once, and its estimate is scattered
    back to every row that holds it.  The search is exact but pruned: the
    grid is cut into intervals of ``_INTERVAL`` angles, and the rows are
    taken in blocks of at most ``_SEARCH_ELEMENTS`` bounds, each searched by
    :func:`_block_estimates`.
    """
    rows, inverse = _distinct_rows(hists)
    distinct = hists[rows]
    bounds = _interval_bounds(log_table)
    blocks = -(-distinct.shape[0] * bounds.shape[0] // _SEARCH_ELEMENTS)
    hats = np.concatenate(
        [
            _block_estimates(block, grid, log_table, bounds)
            for block in np.array_split(distinct, max(1, blocks))
        ]
    )
    return hats[inverse]


def _interval_bounds(log_table):
    """(2 J + 1, w) rows of log P(n | theta) for the J intervals of ``_INTERVAL`` angles.

    Each interval's maximum over its angles, then its first angle's value,
    then the largest |log P(n | theta)| over the grid.
    """
    starts = np.arange(0, log_table.shape[0], _INTERVAL)
    return np.vstack(
        [
            np.maximum.reduceat(log_table, starts),
            log_table[starts],
            np.abs(log_table).max(axis=0),
        ]
    )


def _kept_intervals(block, bounds):
    """(rows, intervals) mask of the intervals where each row's grid maximum can lie.

    A block thinner than ``_MIN_GROUP_ROWS`` keeps every interval.
    """
    n_intervals = (bounds.shape[0] - 1) // 2
    if block.shape[0] < _MIN_GROUP_ROWS:
        return np.ones((block.shape[0], n_intervals), dtype=bool)
    values = block @ bounds.T
    upper, heads = values[:, :n_intervals], values[:, n_intervals:-1]
    margin = 4 * block.shape[1] * np.finfo(float).eps * values[:, -1]
    return upper >= (heads.max(axis=1) - margin)[:, None]


def _block_estimates(block, grid, log_table, bounds):
    """Grid ML estimates of the histogram rows of ``block``, refined by a parabola.

    With h >= 0, the log-likelihood h . log P(theta) on interval j is at most
    U_j = h . max_j log P, and the grid maximum is at least the largest value
    L* at the intervals' first angles.  Only the intervals with
    U_j >= L* - margin are evaluated.  A computed dot product of w terms lies
    within w eps / 2 sum |terms| of the exact one, and here every
    sum |terms| is at most s = sum_n h_n max |log P(n | .)|; the margin
    4 w eps s is twice the four such errors that separate a left-out value
    from the computed maximum.  So every interval left out holds values
    below the grid maximum, and the argmax, ties to the smaller angle
    included, is the full grid's.  Rows are sorted by their first kept
    interval and evaluated in groups, each on the union of its kept
    intervals widened by one run of ``_RUN`` angles on each side, so that
    :func:`_refine_argmax` always finds both neighbours of the maximum.

    BLAS rounds a value by the kernel that computes it: OpenBLAS, for one,
    sends single-row products to its vector kernel and products of a few
    rows to a small-matrix kernel, and computes the columns past the last
    multiple of 8 in an edge kernel.  So that each value is bit for bit the
    full grid's, every product is shaped like the full grid's: columns in
    runs of ``_RUN`` angles (the 2000-angle grid is 250 runs), and at least
    ``_MIN_GROUP_ROWS`` rows.  A block with fewer rows keeps every interval.
    """
    rows = block.shape[0]
    keep = _kept_intervals(block, bounds)
    first = np.argmax(keep, axis=1)
    order = np.argsort(first, kind="stable")
    cuts = [0]
    for cut in np.flatnonzero(np.diff(first[order])) + 1:
        if cut - cuts[-1] >= _MIN_GROUP_ROWS <= rows - cut:
            cuts.append(cut)
    # each group's kept runs, then widened by one run on each side
    runs = np.repeat(
        np.logical_or.reduceat(keep[order], cuts, axis=0), _INTERVAL // _RUN, axis=1
    )
    runs[:, 1:] |= runs[:, :-1]
    runs[:, :-1] |= runs[:, 1:]
    hats = np.empty(rows)
    for lo, hi, group_runs in zip(cuts, cuts[1:] + [rows], runs):
        cols = np.flatnonzero(np.repeat(group_runs, _RUN)[: grid.size])
        table, group_grid = log_table[cols].T, grid[cols]
        # near-equal parts within the budget, none thinner than the minimum
        parts = -(-(hi - lo) * cols.size // _SEARCH_ELEMENTS)
        parts = max(1, min(parts, (hi - lo) // _MIN_GROUP_ROWS))
        edges = lo + np.arange(parts + 1) * (hi - lo) // parts
        for a, b in zip(edges[:-1], edges[1:]):
            part = order[a:b]
            hats[part] = _refine_argmax(group_grid, block[part] @ table)
    return hats


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
    n_shots_total: int,
    shots_per_realization: int,
    seed: int | None = None,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
) -> EstimationResult:
    """Full synthetic estimation experiment at one true angle.

    Samples ``n_shots_total`` shots, divides them into k = n_shots_total / N
    realizations of N = ``shots_per_realization`` shots, estimates the
    angle in each on :func:`default_theta_grid`, and converts the variance
    across realizations into a per-shot Fisher information F = 1 / (N var).
    The split of shots into realizations is bootstrapped (uniformly random
    re-assignments, ``n_bootstrap`` >= 2 draws) to attach an error bar to F.
    :func:`_bootstrap_histograms` draws each re-partition's realization
    histograms: by recursive hypergeometric halving of the count histogram
    when it is narrow, n >= ``_SPLIT_SHOTS_PER_VALUE`` (w_eff - 1) for the
    w_eff count values that occur (and ``n_shots_total`` below numpy's
    hypergeometric limit of 10**9), and by permuting the shots otherwise;
    both draw from the same law.  The histograms of the realizations and
    of all draws are collected first and each distinct one is evaluated
    once, with the same results as one likelihood evaluation per partition.  Each estimate is the argmax of the log-likelihood
    over the whole grid, found by a search that evaluates only the grid
    intervals whose upper bound reaches a lower bound of the maximum; it
    returns the full grid's estimates bit for bit, ties to the smaller
    angle included.  Bit-identical results under a fixed seed;
    per-stage random streams are spawned from the master seed, so the
    outcome does not depend on evaluation order.  A ``theta_true``
    outside [0, pi], which the estimator's grid cannot reach, raises
    ``ValueError``, as do a negative ``seed`` and a bool or non-integral
    count or seed.  Raises
    :class:`NumericalError` if the estimates of the realizations, or of any
    bootstrap re-partition, are all equal (zero variance).
    """
    if not 0.0 <= theta_true <= math.pi:
        raise ValueError(f"theta_true must lie in [0, pi], got {theta_true}")
    n = shots_per_realization
    names = ("n_shots_total", "shots_per_realization", "n_bootstrap")
    for name, value in zip(names, (n_shots_total, n, n_bootstrap)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < 1 or n_shots_total < 1 or n_shots_total % n != 0:
        raise ValueError("shots_per_realization must divide n_shots_total")
    if n_bootstrap < 2:
        raise ValueError("n_bootstrap must be at least 2")
    _check_seed(seed)
    _informative_mean(params)
    k = n_shots_total // n
    if k < 10:
        warnings.warn(
            f"only k={k} realizations; the variance estimate is unreliable",
            stacklevel=2,
        )
    seed_seq = np.random.SeedSequence(seed)
    shot_seq, boot_seq = seed_seq.spawn(2)
    counts = _draw_counts(params, theta_true, n_shots_total, np.random.default_rng(shot_seq))

    grid = default_theta_grid()
    log_table = _log_likelihood_table(params, grid, int(counts.max()))
    width = log_table.shape[1]
    # shot i of a realization-ordered sequence lands in the bins of row i // n
    offsets = np.repeat(np.arange(k) * width, n)

    # the realizations as drawn, then the bootstrap re-partitions, in one search
    hats = _estimates_for_histograms(
        np.concatenate(
            [
                _histograms(counts + offsets, k, width),
                _bootstrap_histograms(
                    counts, k, width, n_bootstrap, np.random.default_rng(boot_seq)
                ).reshape(-1, width),
            ]
        ),
        grid,
        log_table,
    ).reshape(n_bootstrap + 1, k)
    theta_hats = hats[0]
    variance = float(_variance(theta_hats))
    fi_per_shot = 1.0 / (n * variance)
    boot_fis = 1.0 / (n * _variance(hats[1:]))
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
    sensitivity S = Delta E sqrt(T) at 100% duty cycle.  An input of the
    three that is not finite and positive (NaN too) raises ``ValueError``.
    """
    if not all(0 < x < math.inf for x in (delta2_theta, pulse_time_T, dipole_moment)):
        raise ValueError("variance, pulse time and dipole moment must be positive and finite")
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
    externally measured F while keeping the model's theta*.  A
    ``rabi_frequency``, ``dipole_moment`` or ``fisher_override`` that is not
    finite and positive (NaN too), a non-integer ``grid_points`` and a zero
    detected mean n0 eta raise ``ValueError`` before the scan.
    """
    if not 0 < rabi_frequency < math.inf:
        raise ValueError(f"rabi_frequency must be positive and finite, got {rabi_frequency}")
    if not 0 < dipole_moment < math.inf:
        raise ValueError(f"dipole_moment must be positive and finite, got {dipole_moment}")
    if fisher_override is not None and not 0 < fisher_override < math.inf:
        raise ValueError(f"fisher_override must be positive and finite, got {fisher_override}")
    _informative_mean(params)
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
