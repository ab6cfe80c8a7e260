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

from helpers import electric_field_to_rabi, rabi_to_electric_field, sample_shots

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

    def test_validation(self):
        with pytest.raises(ValueError):
            field_precision(0.0, 1e-6, REFERENCE_DIPOLE)
        with pytest.raises(ValueError):
            field_precision(0.1, -1e-6, REFERENCE_DIPOLE)
        with pytest.raises(ValueError):
            field_precision(0.1, 1e-6, 0.0)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            sensitivity_from_model(EXPERIMENT, -1.0, REFERENCE_DIPOLE)
