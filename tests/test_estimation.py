import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from rydsense import estimation
from rydsense.errors import NumericalError
from rydsense.estimation import (
    BOHR_RADIUS,
    ELEMENTARY_CHARGE,
    HBAR,
    _variance,
    default_theta_grid,
    dipole_moment_si,
    field_precision,
    run_estimation,
    sensitivity_from_model,
)
from rydsense.fockspace import classical_fi
from rydsense.multiparticle import (
    BLOCK_ELEMENTS,
    ProtocolParams,
    count_pmf,
    fisher_information,
)

from helpers import (
    electric_field_to_rabi,
    full_grid_estimates,
    rabi_to_electric_field,
    sample_shots,
    tracemalloc_peak,
    void_view_unique_rows,
)

EXPERIMENT = ProtocolParams(55.0, 0.02, 0.03)
POISSON_PARAMS = ProtocolParams(55.0, 0.02, 0.0)

REFERENCE_DIPOLE = dipole_moment_si(1950.0)
REFERENCE_RABI = 2 * math.pi * 0.66e6


class TestSampling:
    def test_deterministic_batches(self):
        a = sample_shots(EXPERIMENT, 1.0, 2000, seed=11)
        b = sample_shots(EXPERIMENT, 1.0, 2000, seed=11)
        assert np.array_equal(a.counts, b.counts)
        c = sample_shots(EXPERIMENT, 1.0, 2000, seed=12)
        assert not np.array_equal(a.counts, c.counts)

    def test_poisson_mean_at_zero_angle(self):
        n = 50_000
        batch = sample_shots(POISSON_PARAMS, 0.0, n, seed=4)
        mean = batch.counts.mean()
        # Poisson(1.1): four standard errors of the sample mean
        assert abs(mean - 1.1) < 4 * math.sqrt(1.1 / n)

    def test_chisquare_against_analytic_distribution(self):
        batch = sample_shots(POISSON_PARAMS, 1.3, 100_000, seed=12)
        pmf = count_pmf(POISSON_PARAMS, 1.3)
        observed = np.bincount(batch.counts, minlength=pmf.size).astype(float)
        expected = pmf * batch.counts.size
        keep = expected >= 5
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        _, pvalue = chisquare(observed, expected * observed.sum() / expected.sum())
        assert pvalue > 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_shots(EXPERIMENT, 1.0, 0, seed=1)


def ml_estimate(counts, params):
    """ML angle of one slice of counts: a one-row histogram through the run_estimation path."""
    grid = default_theta_grid()
    log_table = estimation._log_likelihood_table(params, grid, int(np.max(counts)))
    hist = np.bincount(counts, minlength=log_table.shape[1])[None, :]
    return float(estimation._estimates_for_histograms(hist, grid, log_table)[0])


class TestMlEstimate:
    def test_single_shot_matches_mean_inversion(self):
        # gamma_tau = 0: likelihood is Poisson(eta n0 cos^2(theta/2)), so a
        # single count n maximizes at cos^2(theta/2) = n / (eta n0)
        theta_hat = ml_estimate(np.array([1]), POISSON_PARAMS)
        predicted = 2 * math.acos(math.sqrt(1.0 / 1.1))
        assert theta_hat == pytest.approx(predicted, abs=1e-5)

    def test_replicated_batch_is_invariant(self):
        counts = np.array([0, 1, 2, 1, 0, 3])
        once = ml_estimate(counts, EXPERIMENT)
        twice = ml_estimate(np.tile(counts, 2), EXPERIMENT)
        assert once == twice

    def test_consistency_at_half_pi(self):
        theta = math.pi / 2
        batch = sample_shots(EXPERIMENT, theta, 10_000, seed=8)
        theta_hat = ml_estimate(batch.counts, EXPERIMENT)
        fi = fisher_information(EXPERIMENT, theta)
        assert abs(theta_hat - theta) <= 3 / math.sqrt(10_000 * fi)

    def test_grid_bounds_are_interior(self):
        grid = default_theta_grid()
        assert grid.size == 2000
        assert 0.0 < grid[0] and grid[-1] < math.pi

    def test_likelihood_far_below_double_range_stays_usable(self):
        # 200 counts at a detected mean of 55: near pi, P(200 | theta) is far
        # below the smallest double, yet every log-likelihood is finite
        grid = default_theta_grid()
        assert ml_estimate(np.array([200]), ProtocolParams(55.0, 1.0, 0.0)) == grid[0]

    def test_vanished_likelihood_raises_value_error(self):
        # with eta = 0 a detected photon has probability zero at every angle;
        # the check must not be an assert, which python -O strips
        with pytest.raises(ValueError, match="likelihood vanished"):
            ml_estimate(np.array([0, 1]), ProtocolParams(55.0, 0.0, 0.03))


class TestRunEstimation:
    def test_fi_within_three_bootstrap_sigma(self):
        theta = 1.2
        result = run_estimation(EXPERIMENT, theta, 10_000, 100, seed=10)
        fi = fisher_information(EXPERIMENT, theta)
        assert abs(result.fi_per_shot - fi) <= 3 * result.fi_error
        assert result.partitions == (100, 100)
        assert result.fi_per_shot == pytest.approx(1.0 / (100 * result.variance))

    def test_poisson_baseline_consistent_with_cramer_rao(self):
        theta = 1.5
        result = run_estimation(POISSON_PARAMS, theta, 10_000, 100, seed=2)
        fi = 1.1 * math.sin(theta / 2) ** 2
        assert abs(result.fi_per_shot - fi) <= 3 * result.fi_error

    def test_cramer_rao_saturation_midrange(self):
        for theta, seed in ((1.0, 21), (1.5, 22), (2.0, 23)):
            result = run_estimation(EXPERIMENT, theta, 10_000, 100, seed=seed)
            fi = fisher_information(EXPERIMENT, theta)
            assert 0.7 <= 100 * result.variance * fi <= 1.4

    def test_bias_bound_midrange(self):
        theta = 1.4
        result = run_estimation(EXPERIMENT, theta, 10_000, 100, seed=31)
        _, k = result.partitions
        assert abs(result.bias) < 3 * math.sqrt(result.variance / k)

    def test_bit_identical_reruns(self):
        a = run_estimation(EXPERIMENT, 1.2, 2000, 100, seed=5, n_bootstrap=20)
        b = run_estimation(EXPERIMENT, 1.2, 2000, 100, seed=5, n_bootstrap=20)
        assert a.theta_hat_mean == b.theta_hat_mean
        assert a.variance == b.variance
        assert a.fi_per_shot == b.fi_per_shot
        assert a.fi_error == b.fi_error
        assert np.array_equal(a.theta_hats, b.theta_hats)

    @pytest.mark.parametrize("n_bootstrap", [-3, 0, 1])
    def test_too_few_bootstrap_draws_rejected(self, n_bootstrap):
        with pytest.raises(ValueError, match="n_bootstrap must be at least 2"):
            run_estimation(EXPERIMENT, 1.0, 1000, 100, seed=1, n_bootstrap=n_bootstrap)

    @pytest.mark.parametrize("theta", [-1.0, -1e-9, math.pi + 1e-9, 4.0, math.nan])
    def test_unreachable_true_angle_rejected(self, theta):
        # the ML grid lies in (0, pi): theta = 4 used to give theta_hat 2.33
        with pytest.raises(ValueError, match="theta_true must lie in"):
            run_estimation(EXPERIMENT, theta, 1000, 100, seed=1, n_bootstrap=2)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            run_estimation(EXPERIMENT, 1.0, 1000, 300, seed=1)

    @pytest.mark.parametrize("n0,eta", [(0.0, 0.5), (55.0, 0.0)])
    def test_zero_detected_mean_is_rejected(self, n0, eta):
        # no count carries information: a config error, not a zero variance
        with pytest.raises(ValueError, match="detected mean n0 \\* eta is zero"):
            run_estimation(ProtocolParams(n0, eta, 0.03), 1.0, 1000, 100, seed=1)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            run_estimation(EXPERIMENT, 1.0, 1000, 100, seed=-1)

    def test_zero_variance_raises_numerical_error(self):
        # n0 eta = 1e-3: every shot detects nothing, so every realization
        # gives the same estimate
        params = ProtocolParams(1.0, 0.001, 0.034)
        with pytest.raises(NumericalError, match="zero variance"):
            run_estimation(params, 2.5, 1000, 100, seed=1, n_bootstrap=2)

    def test_zero_variance_in_bootstrap_draw_raises_numerical_error(self):
        with pytest.raises(NumericalError, match="zero variance"):
            _variance(np.full(10, 1.2))

    def test_large_n0_gives_finite_fi_without_warnings(self):
        # B reaches 400 on the grid, far above the k <= 200 a fixed cap allowed
        params = ProtocolParams(400.0, 0.5, 0.034)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_estimation(params, 1.2, 1000, 100, seed=1, n_bootstrap=2)
        assert math.isfinite(result.fi_per_shot) and result.fi_per_shot > 0
        assert abs(result.bias) < 0.1

    def test_few_realizations_warn(self):
        with pytest.warns(UserWarning, match="realizations"):
            run_estimation(EXPERIMENT, 1.0, 500, 100, seed=1, n_bootstrap=10)

    def test_bootstrap_interval_coverage(self):
        # loose check: the 68% bootstrap interval catches the analytic FI in
        # at least half of independent synthetic repetitions
        theta = 1.3
        fi = fisher_information(EXPERIMENT, theta)
        hits = 0
        for rep in range(50):
            result = run_estimation(
                EXPERIMENT, theta, 2000, 100, seed=1000 + rep, n_bootstrap=100
            )
            hits += abs(result.fi_per_shot - fi) <= result.fi_error
        assert hits >= 25


def per_draw_estimation(params, theta, n_total, n, seed, n_bootstrap):
    """run_estimation as one likelihood matmul per partition, with its streams.

    The bootstrap tables come from the shared ``_bootstrap_histograms``.
    """
    k = n_total // n
    shot_seq, boot_seq = np.random.SeedSequence(seed).spawn(2)
    counts = estimation._draw_counts(params, theta, n_total, np.random.default_rng(shot_seq))
    grid = default_theta_grid()
    log_table = estimation._log_likelihood_table(params, grid, int(counts.max()))
    width = log_table.shape[1]

    def estimates(hists):
        return estimation._refine_argmax(grid, hists @ log_table.T)

    idx = np.arange(k)[:, None] * width + counts.reshape(k, n)
    theta_hats = estimates(np.bincount(idx.ravel(), minlength=k * width).reshape(k, width))
    variance = _variance(theta_hats)
    boot_hists = estimation._bootstrap_histograms(
        counts, k, width, n_bootstrap, np.random.default_rng(boot_seq)
    )
    boot_fis = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        boot_fis[b] = 1.0 / (n * _variance(estimates(boot_hists[b])))
    return theta_hats, variance, float(np.std(boot_fis, ddof=1))


def permutation_estimation(params, theta, n_total, n, seed, n_bootstrap):
    """run_estimation with a permuted bootstrap draw, one likelihood matmul per partition."""
    k = n_total // n
    shot_seq, boot_seq = np.random.SeedSequence(seed).spawn(2)
    counts = estimation._draw_counts(params, theta, n_total, np.random.default_rng(shot_seq))
    grid = default_theta_grid()
    log_table = estimation._log_likelihood_table(params, grid, int(counts.max()))
    width = log_table.shape[1]

    def estimates(counts_matrix):
        idx = np.arange(k)[:, None] * width + counts_matrix
        hists = np.bincount(idx.ravel(), minlength=k * width).reshape(k, width)
        return estimation._refine_argmax(grid, hists @ log_table.T)

    theta_hats = estimates(counts.reshape(k, n))
    variance = _variance(theta_hats)
    boot_rng = np.random.default_rng(boot_seq)
    boot_fis = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        hats = estimates(counts[boot_rng.permutation(n_total)].reshape(k, n))
        boot_fis[b] = 1.0 / (n * _variance(hats))
    return theta_hats, variance, float(np.std(boot_fis, ddof=1))


def split_calls(monkeypatch):
    """List that records each call of the hypergeometric split sampler."""
    calls = []
    split = estimation._split_compositions

    def spy(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(estimation, "_split_compositions", spy)
    return calls


def exact_table_law(counts, k):
    """{(k, w) table bytes: probability} of a uniform re-partition into k realizations.

    A table T arises from prod_i n! prod_j c_j! / prod_ij T_ij! of the N! shot
    orders, for realizations of n shots and c_j shots of value j.
    """
    totals = np.bincount(counts)
    n = counts.size // k
    log_orders = math.lgamma(counts.size + 1) - k * math.lgamma(n + 1)
    log_orders -= sum(math.lgamma(c + 1) for c in totals)
    law = {}

    def rows(left, r):
        if r == 0:
            yield []
            return
        for first in itertools.product(*(range(c + 1) for c in left)):
            if sum(first) == n:
                for rest in rows(left - np.array(first), r - 1):
                    yield [first, *rest]

    for table in rows(totals, k):
        table = np.array(table, dtype=np.int64)
        log_p = -log_orders - sum(math.lgamma(t + 1) for t in table.ravel())
        law[table.tobytes()] = math.exp(log_p)
    return law


class TestBootstrapEquivalence:
    @pytest.mark.parametrize(
        "theta, n_total, n, seed",
        [(1.2, 10_000, 100, 3), (0.7, 10_000, 100, 4), (2.4, 6000, 200, 5), (1.6, 900, 100, 6)],
    )
    def test_bit_identical_to_per_draw_loop(self, theta, n_total, n, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k = 9 realizations
            result = run_estimation(EXPERIMENT, theta, n_total, n, seed=seed, n_bootstrap=50)
        theta_hats, variance, fi_error = per_draw_estimation(
            EXPERIMENT, theta, n_total, n, seed, 50
        )
        assert np.array_equal(result.theta_hats, theta_hats)
        assert result.variance == variance
        assert result.fi_error == fi_error
        assert result.bias == float(np.mean(theta_hats) - theta)

    def test_wide_histograms_keep_the_permutation_stream(self, monkeypatch):
        # about 60 count values occur, so the draws permute the shots as
        # before the split sampler, bit for bit
        params = ProtocolParams(400.0, 0.5, 0.0)
        calls = split_calls(monkeypatch)
        result = run_estimation(params, 1.2, 1000, 100, seed=3, n_bootstrap=20)
        theta_hats, variance, fi_error = permutation_estimation(params, 1.2, 1000, 100, 3, 20)
        assert not calls
        assert np.array_equal(result.theta_hats, theta_hats)
        assert result.variance == variance
        assert result.fi_error == fi_error

    def test_zero_variance_draw_still_raises(self, monkeypatch):
        # realizations (0, 0) and (1, 1) differ; a draw that pairs (0, 1)
        # twice gives equal estimates
        assert ml_estimate(np.array([0, 0]), EXPERIMENT) != ml_estimate(
            np.array([1, 1]), EXPERIMENT
        )
        monkeypatch.setattr(estimation, "_draw_counts", lambda *args: np.array([0, 0, 1, 1]))
        with pytest.warns(UserWarning), pytest.raises(NumericalError, match="zero variance"):
            run_estimation(EXPERIMENT, 1.2, 4, 2, seed=7, n_bootstrap=20)
        with pytest.raises(NumericalError, match="zero variance"):
            per_draw_estimation(EXPERIMENT, 1.2, 4, 2, 7, 20)

    def test_memory_bounded_by_block_budget(self):
        params = ProtocolParams(65.0, 0.03, 0.04)
        tracemalloc.start()
        try:
            run_estimation(params, 0.5, 10_000, 100, seed=1, n_bootstrap=50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * BLOCK_ELEMENTS * 8


def study_histograms(params, thetas, seed, n_bootstrap=20, n_total=10_000, n=100):
    """(grid, log table, histograms) of run_estimation-like studies at each true angle.

    The rows are each study's k = n_total / n realization histograms and its
    bootstrap re-partitions, on one log-likelihood table wide enough for all.
    """
    rng = np.random.default_rng(seed)
    k = n_total // n
    counts = [estimation._draw_counts(params, theta, n_total, rng) for theta in thetas]
    grid = default_theta_grid()
    log_table = estimation._log_likelihood_table(params, grid, int(max(c.max() for c in counts)))
    width = log_table.shape[1]
    offsets = np.repeat(np.arange(k) * width, n)
    hists = []
    for c in counts:
        hists.append(estimation._histograms(c + offsets, k, width))
        hists.append(
            estimation._bootstrap_histograms(c, k, width, n_bootstrap, rng).reshape(-1, width)
        )
    return grid, log_table, np.concatenate(hists)


def assert_pruned_search_exact(hists, grid, log_table):
    hats = estimation._estimates_for_histograms(hists, grid, log_table)
    assert np.array_equal(hats, full_grid_estimates(hists, grid, log_table))
    return hats


def exceeds_int64(hists):
    """Whether the mixed-radix key of a row needs more than int64, forcing a re-rank."""
    return math.prod(int(top) + 1 for top in hists.max(axis=0)) > np.iinfo(np.int64).max


class TestPrunedSearch:
    """The bound-pruned grid search returns the full grid's estimates, bit for bit."""

    @pytest.mark.parametrize(
        "params, thetas",
        [
            (EXPERIMENT, [0.7, 1.2, 2.4]),
            (ProtocolParams(60.0, 0.025, 0.04), [0.5, 1.6, 2.6]),
            (ProtocolParams(55.0, 0.003, 0.034), [1.2]),  # a nearly flat likelihood
            (ProtocolParams(400.0, 0.05, 0.0), [1.0]),  # wide histograms
        ],
    )
    def test_matches_full_grid_on_studies(self, params, thetas):
        grid, log_table, hists = study_histograms(params, thetas, seed=5)
        assert estimation._distinct_rows(hists)[0].size >= estimation._MIN_GROUP_ROWS
        assert_pruned_search_exact(hists, grid, log_table)

    def test_argmax_at_both_grid_edges(self):
        # near theta = 0 the counts are high; near pi every shot counts
        # zero, and the all-zero histogram peaks at the last angle
        grid, log_table, hists = study_histograms(
            ProtocolParams(55.0, 0.02, 0.034), [0.02, 1.2, 3.12], seed=6
        )
        hats = assert_pruned_search_exact(hists, grid, log_table)
        assert np.any(hats == grid[0]) and np.any(hats == grid[-1])

    def test_flat_likelihood_ties_break_to_the_first_angle(self):
        # the eta -> 0 limit: P(0 | theta) = 1 at every angle, so every
        # log-likelihood is exactly 0 and every angle ties
        grid = default_theta_grid()
        hists = np.arange(1, 41)[:, None]
        hats = assert_pruned_search_exact(hists, grid, np.zeros((grid.size, 1)))
        assert np.all(hats == grid[0])
        # eta = 1e-9 on the kernel: flat to within rounding
        log_table = estimation._log_likelihood_table(ProtocolParams(55.0, 1e-9, 0.03), grid, 0)
        assert np.ptp(log_table) < 1e-6
        assert_pruned_search_exact(hists, grid, log_table)

    def test_exact_ties_across_intervals(self):
        # log P on a lattice of 1/8 sums exactly, so the maxima are plateaus
        # of exactly equal values, some across an interval boundary
        grid, log_table, hists = study_histograms(EXPERIMENT, [0.8, 2.0], seed=7)
        lattice = np.round(log_table * 8) / 8
        values = hists @ lattice.T
        at_max = values == values.max(axis=1, keepdims=True)
        first = np.argmax(at_max, axis=1)
        last = grid.size - 1 - np.argmax(at_max[:, ::-1], axis=1)
        assert np.any(first // estimation._INTERVAL < last // estimation._INTERVAL)
        assert_pruned_search_exact(hists, grid, lattice)

    def test_maximum_next_to_a_pruned_interval_keeps_both_neighbours(self):
        # column 0 peaks at the last angle of interval 10 and column 1 at
        # the first angle of interval 30; the interval beyond each peak
        # lies far below it and is pruned, yet the parabola needs its angle
        grid = default_theta_grid()
        i = np.arange(grid.size)
        last, first = 11 * estimation._INTERVAL - 1, 30 * estimation._INTERVAL
        log_table = np.stack(
            [
                np.where(i <= last, -1e-4 * (i - last) ** 2, -5.0 - 1e-3 * (i - last)),
                np.where(i >= first, -1e-4 * (i - first) ** 2, -5.0 - 1e-3 * (first - i)),
            ],
            axis=1,
        )
        # two groups of 40 rows, which the dedupe orders column 1 first
        hists = np.zeros((80, 2), dtype=np.int64)
        hists[:40, 0] = hists[40:, 1] = np.arange(1, 41)
        kept = estimation._kept_intervals(hists, estimation._interval_bounds(log_table))
        assert np.count_nonzero(kept) == hists.shape[0]
        hats = assert_pruned_search_exact(hists, grid, log_table)
        # both refine off the grid, towards the gentle side of the peak
        assert np.all((grid[last - 1] < hats[:40]) & (hats[:40] < grid[last]))
        assert np.all((grid[first] < hats[40:]) & (hats[40:] < grid[first + 1]))

    def test_counts_split_between_two_distant_values(self):
        # a shots at 0 and 100 - a shots at m, far above the detected mean
        grid = default_theta_grid()
        log_table = estimation._log_likelihood_table(ProtocolParams(200.0, 1.0, 0.034), grid, 210)
        hists = np.zeros((21 * 23, 211), dtype=np.int64)
        for row, (m, a) in enumerate(itertools.product(range(100, 211, 5), range(0, 101, 5))):
            hists[row, 0] = a
            hists[row, m] += 100 - a
        assert_pruned_search_exact(hists, grid, log_table)

    def test_wide_histograms_force_the_key_re_rank(self):
        grid, log_table, hists = study_histograms(ProtocolParams(1000.0, 0.5, 0.0), [1.0], seed=8)
        assert exceeds_int64(hists)
        assert_pruned_search_exact(hists, grid, log_table)

    def test_bounds_and_evaluation_stay_within_the_block_budget(self):
        # about 4900 of the 5000 bootstrap rows are distinct: their
        # (rows, 2 intervals + 1) bounds alone would take 4 MB unblocked
        grid, log_table, hists = study_histograms(
            ProtocolParams(65.0, 0.03, 0.04), [0.5], seed=1, n_bootstrap=50
        )
        hists = hists[100:]
        distinct = estimation._distinct_rows(hists)[0].size
        assert distinct * estimation._interval_bounds(log_table).shape[0] > 3 * BLOCK_ELEMENTS
        peak = tracemalloc_peak(
            lambda: estimation._estimates_for_histograms(hists, grid, log_table)
        )
        assert peak <= 2 * BLOCK_ELEMENTS * 8


def assert_same_grouping(hists):
    """The packed-key dedupe splits the rows into the void-view np.unique's classes."""
    rows, inverse = estimation._distinct_rows(hists)
    ref_first, ref_inverse = void_view_unique_rows(hists)
    assert rows.size == ref_first.size < hists.shape[0]
    assert np.array_equal(hists[rows[inverse]], hists)
    # rows share a distinct index exactly when they share the reference's
    first_of = np.full(rows.size, hists.shape[0])
    np.minimum.at(first_of, inverse, np.arange(hists.shape[0]))
    assert np.array_equal(first_of[inverse], ref_first[ref_inverse])


class TestDistinctRows:
    @pytest.mark.parametrize("top, re_rank", [(5, False), (1 << 16, True)])
    def test_groups_rows_like_the_void_view_unique(self, top, re_rank):
        rng = np.random.default_rng(top)
        rows = rng.integers(0, top, size=(300, 5))
        rows[0] = top - 1
        # twins that differ in the first column only: an 80-bit key that
        # wrapped around int64 would lose that column
        twins = rows[1:100].copy()
        twins[:, 0] = (twins[:, 0] + 1) % top
        rows = np.concatenate([rows, twins])
        hists = rows[rng.integers(0, rows.shape[0], size=1000)]
        assert exceeds_int64(hists) == re_rank
        assert_same_grouping(hists)

    def test_study_histograms_group_like_the_void_view_unique(self):
        _, _, hists = study_histograms(EXPERIMENT, [1.2], seed=9)
        assert_same_grouping(hists)


class TestBootstrapDraws:
    @pytest.mark.parametrize(
        "counts, k",
        [
            ([0, 0, 1, 1, 2, 2], 3),  # k not a power of two
            ([0, 0, 0, 1, 1, 3, 3, 3, 3, 4], 5),  # count value 2 never occurs
            ([0, 0, 0, 0, 0, 1, 1, 2], 4),
        ],
    )
    def test_split_tables_follow_the_exact_law(self, monkeypatch, counts, k):
        counts = np.array(counts)
        width = counts.max() + 1
        law = exact_table_law(counts, k)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(estimation, "_SPLIT_SHOTS_PER_VALUE", 0)
        calls = split_calls(monkeypatch)
        draws = 20_000
        hists = estimation._bootstrap_histograms(
            counts, k, width, draws, np.random.default_rng(17)
        )
        assert len(calls) == 1
        assert hists.shape == (draws, k, width)
        assert np.all(hists.sum(axis=2) == counts.size // k)
        assert np.all(hists.sum(axis=1) == np.bincount(counts))
        keys, observed = np.unique(
            hists.reshape(draws, -1).view(np.dtype((np.void, 8 * k * width)))[:, 0],
            return_counts=True,
        )
        observed = dict(zip((key.tobytes() for key in keys), observed))
        assert set(observed) <= set(law)
        expected = np.array([law[t] * draws for t in law])
        seen = np.array([observed.get(t, 0) for t in law], dtype=float)
        rare = expected < 5
        if rare.any():
            seen = np.append(seen[~rare], seen[rare].sum())
            expected = np.append(expected[~rare], expected[rare].sum())
        _, pvalue = chisquare(seen, expected)
        assert pvalue > 0.001

    def test_enumerated_law_matches_shot_orders(self):
        # the closed-form table law against all 6! orders of six shots
        counts, k = np.array([0, 0, 1, 1, 2, 2]), 3
        tables = {}
        for order in itertools.permutations(range(counts.size)):
            rows = counts[list(order)].reshape(k, -1)
            table = np.stack([np.bincount(row, minlength=3) for row in rows])
            key = table.astype(np.int64).tobytes()
            tables[key] = tables.get(key, 0) + 1
        law = exact_table_law(counts, k)
        assert set(tables) == set(law)
        for key, orders in tables.items():
            assert law[key] == pytest.approx(orders / math.factorial(counts.size), rel=1e-12)

    def test_sampler_rule_switches_at_its_boundary(self, monkeypatch):
        # counts 0, 2 and 4 occur in a width of 5: the rule counts the three
        # occurring values, so the split draws while n >= 2 _SPLIT_SHOTS_PER_VALUE
        calls = split_calls(monkeypatch)
        boundary = 2 * estimation._SPLIT_SHOTS_PER_VALUE
        for n, split in ((boundary, True), (boundary - 1, False)):
            counts = 2 * (np.arange(4 * n) % 3)
            calls.clear()
            hists = estimation._bootstrap_histograms(counts, 4, 5, 5, np.random.default_rng(2))
            assert bool(calls) == split
            assert np.all(hists.sum(axis=2) == n)
            assert np.all(hists[..., [1, 3]] == 0)
        monkeypatch.setattr(estimation, "_HYPERGEOMETRIC_MAX", 4 * boundary)
        calls.clear()
        counts = 2 * (np.arange(4 * boundary) % 3)
        estimation._bootstrap_histograms(counts, 4, 5, 5, np.random.default_rng(2))
        assert not calls

    def test_single_realization_and_single_value(self):
        rng = np.random.default_rng(5)
        counts = np.array([2, 0, 2, 1])
        hists = estimation._bootstrap_histograms(counts, 1, 3, 4, rng)
        assert np.array_equal(hists, np.tile([1, 1, 2], (4, 1, 1)))
        hists = estimation._bootstrap_histograms(np.full(6, 1), 3, 2, 4, rng)
        assert np.array_equal(hists, np.tile([0, 2], (4, 3, 1)))


class TestFieldPrecision:
    def test_published_reference_numbers(self):
        # Delta theta = 1/sqrt(3.6) per shot, pulse time theta*/Omega at
        # theta* = pi: 44 uV/cm and 39 nV/cm/sqrt(Hz) within 15%
        report = field_precision(
            1.0 / 3.6, math.pi / REFERENCE_RABI, REFERENCE_DIPOLE, rabi_frequency=REFERENCE_RABI
        )
        assert report.delta_E == pytest.approx(44e-6, rel=0.15)
        assert report.sensitivity_S == pytest.approx(39e-9, rel=0.15)
        assert report.pulse_time_T == pytest.approx(0.758e-6, rel=1e-3)

    def test_scaling_with_pulse_time(self):
        base = field_precision(0.25, 1e-6, REFERENCE_DIPOLE)
        doubled = field_precision(0.25, 2e-6, REFERENCE_DIPOLE)
        assert doubled.delta_E == pytest.approx(base.delta_E / 2)
        assert doubled.sensitivity_S == pytest.approx(base.sensitivity_S / math.sqrt(2))

    def test_sensitivity_is_delta_e_sqrt_t(self):
        report = field_precision(0.3, 0.5e-6, REFERENCE_DIPOLE)
        assert report.sensitivity_S == pytest.approx(
            report.delta_E * math.sqrt(report.pulse_time_T), rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["delta2_theta", "pulse_time_T", "dipole"])
    def test_validation(self, position, bad):
        args = [0.1, 1e-6, REFERENCE_DIPOLE]
        args[position] = bad
        with pytest.raises(ValueError, match="must be positive"):
            field_precision(*args)

    def test_unit_roundtrip_field_rabi_angle(self):
        field = 1.234e-3  # V/m
        pulse = 0.7e-6
        omega = electric_field_to_rabi(field, REFERENCE_DIPOLE)
        theta = omega * pulse
        back = rabi_to_electric_field(theta / pulse, REFERENCE_DIPOLE)
        assert back == pytest.approx(field, rel=1e-12)

    def test_dipole_moment_conversion(self):
        assert dipole_moment_si(1.0) == pytest.approx(ELEMENTARY_CHARGE * BOHR_RADIUS)
        assert dipole_moment_si(1950.0) == pytest.approx(1.653e-26, rel=1e-3)

    def test_constants_precision(self):
        assert HBAR == pytest.approx(6.62607015e-34 / (2 * math.pi), rel=1e-11)


class TestSensitivityPipeline:
    def test_report_is_internally_consistent(self):
        report = sensitivity_from_model(
            EXPERIMENT, REFERENCE_RABI, REFERENCE_DIPOLE, grid_points=256
        )
        assert report.pulse_time_T == pytest.approx(report.theta_star / REFERENCE_RABI)
        assert report.delta_theta == pytest.approx(
            1.0 / math.sqrt(report.fisher_information)
        )
        assert report.sensitivity_S == pytest.approx(
            report.delta_E * math.sqrt(report.pulse_time_T), rel=1e-12
        )

    def test_theta_star_maximizes_model_fi(self):
        report = sensitivity_from_model(
            EXPERIMENT, REFERENCE_RABI, REFERENCE_DIPOLE, grid_points=256
        )
        f_star = fisher_information(EXPERIMENT, report.theta_star)
        for theta in np.linspace(0.1, 3.0, 30):
            assert fisher_information(EXPERIMENT, theta) <= f_star * (1 + 1e-3)

    def test_finite_difference_disagreement_raises(self, monkeypatch):
        def shifted(family, theta, **kwargs):
            return classical_fi(family, theta, **kwargs) * (1.0 + 2e-6)

        monkeypatch.setattr(estimation, "classical_fi", shifted)
        with pytest.raises(NumericalError, match="finite-difference"):
            sensitivity_from_model(
                EXPERIMENT, REFERENCE_RABI, REFERENCE_DIPOLE, grid_points=128
            )

    def test_fisher_override_is_used(self):
        report = sensitivity_from_model(
            EXPERIMENT, REFERENCE_RABI, REFERENCE_DIPOLE, grid_points=128, fisher_override=3.6
        )
        assert report.fisher_information == 3.6
        assert report.delta_theta == pytest.approx(1.0 / math.sqrt(3.6))

    def test_zero_detected_mean_is_rejected(self):
        with pytest.raises(ValueError, match="detected mean"):
            sensitivity_from_model(
                ProtocolParams(55.0, 0.0, 0.03), REFERENCE_RABI, REFERENCE_DIPOLE
            )

    @pytest.mark.parametrize("rabi", [0.0, -1.0, math.nan])
    def test_rabi_frequency_is_checked_before_the_scan(self, monkeypatch, rabi):
        def scan(*args):
            raise AssertionError("the FI scan ran")

        monkeypatch.setattr(estimation, "fisher_information", scan)
        with pytest.raises(ValueError, match="rabi_frequency must be positive"):
            sensitivity_from_model(EXPERIMENT, rabi, REFERENCE_DIPOLE)

    @pytest.mark.parametrize("dipole", [0.0, -1.0, math.nan])
    def test_dipole_moment_is_checked_before_the_scan(self, monkeypatch, dipole):
        def scan(*args):
            raise AssertionError("the FI scan ran")

        monkeypatch.setattr(estimation, "fisher_information", scan)
        with pytest.raises(ValueError, match="dipole_moment must be positive"):
            sensitivity_from_model(EXPERIMENT, REFERENCE_RABI, dipole)

    @pytest.mark.parametrize("override", [0.0, -1.0, math.nan])
    def test_fisher_override_must_be_positive(self, override):
        with pytest.raises(ValueError, match="fisher_override must be positive"):
            sensitivity_from_model(
                EXPERIMENT, REFERENCE_RABI, REFERENCE_DIPOLE, fisher_override=override
            )
