import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp, xlogy
from scipy.stats import binom, poisson

from rydsense import multiparticle
from rydsense.error_prevention import error_prevention_channel
from rydsense.errors import NumericalError
from rydsense.fockspace import (
    FockBasis,
    apply_channel,
    classical_fi,
    coherent_state,
    measure,
    number_povm,
)
from rydsense.multiparticle import (
    LOSS_AFTER,
    LOSS_BEFORE,
    ProtocolParams,
    count_distribution,
    count_pmf,
    fisher_information,
    fit_exponential_decay,
    interaction_channel_kraus,
    normalized_fi,
    super_rabi_means,
)

from conftest import kraus_pipeline_distribution, kraus_pipeline_family
from helpers import (
    dense_density,
    dense_kraus_sums,
    dense_operators,
    mode_operator,
    populations,
    random_density,
    tracemalloc_peak,
)

EXPERIMENT = ProtocolParams(n0=55.0, eta=0.02, gamma_tau=0.028)


def kernel(params, thetas, **kwargs):
    """``_mixture_table`` on the means of ``params`` at ``thetas``."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    b, d = multiparticle._mixture_means(params, thetas)
    return multiparticle._mixture_table(b, d, params.gamma_tau, **kwargs)


def super_rabi_mean_approx(params, theta):
    """First-order variant of the mode-d mean with exp(-B gamma_tau) decay."""
    b, d = multiparticle._mixture_means(params, theta)
    return d * math.exp(-b * params.gamma_tau)


class TestProtocolParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(-1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 0.5, -0.1)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, 0.5, 0.1, loss_order="sideways")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="n0 must be finite"):
            ProtocolParams(value, 0.5, 0.1)
        with pytest.raises(ValueError, match="gamma_tau must be finite"):
            ProtocolParams(1.0, 0.5, value)

    def test_detected_mean(self):
        assert EXPERIMENT.detected_mean == pytest.approx(1.1)


class TestSuperRabiMeans:
    def test_no_interaction_is_plain_rabi(self):
        params = ProtocolParams(55.0, 0.02, 0.0)
        nd, np_ = super_rabi_means(params, math.pi / 2)
        assert nd == pytest.approx(0.55, abs=1e-12)
        assert np_ == pytest.approx(0.55, abs=1e-12)

    def test_zero_angle_gives_full_detected_mean(self):
        nd, np_ = super_rabi_means(EXPERIMENT, 0.0)
        assert nd == pytest.approx(1.1, abs=1e-12)
        assert np_ == pytest.approx(0.0, abs=1e-12)

    def test_experimental_midpoint_value(self):
        # 0.55 * exp(-27.5 (1 - e^-0.028)) evaluated directly
        nd, _ = super_rabi_means(EXPERIMENT, math.pi / 2)
        expected = 0.55 * math.exp(-27.5 * (1 - math.exp(-0.028)))
        assert nd == pytest.approx(expected, rel=1e-12)
        assert nd == pytest.approx(0.257, abs=5e-4)

    def test_approximate_form_close_for_small_decay(self):
        exact = super_rabi_means(EXPERIMENT, 1.1)[0]
        approx = super_rabi_mean_approx(EXPERIMENT, 1.1)
        assert approx == pytest.approx(exact, rel=2e-2)
        assert approx != exact

    def test_steepening_sum_below_detected_mean(self):
        for theta in np.linspace(0.2, math.pi - 0.2, 15):
            assert sum(super_rabi_means(EXPERIMENT, theta)) < 1.1

    def test_array_call_matches_scalar_calls(self):
        thetas = np.array([[0.0, 0.7, 1.3], [2.0, 2.9, math.pi]])
        means = super_rabi_means(EXPERIMENT, thetas)
        assert all(isinstance(m, np.ndarray) and m.shape == thetas.shape for m in means)
        for i, theta in enumerate(thetas.ravel().tolist()):
            scalar = super_rabi_means(EXPERIMENT, theta)
            assert all(type(value) is float for value in scalar)
            assert scalar == (means[0].ravel()[i], means[1].ravel()[i])

    @pytest.mark.parametrize("gamma_tau", [0.0, 0.034, 0.7])
    def test_plain_rabi_populations_at_zero_and_pi(self, gamma_tau):
        params = ProtocolParams(55.0, 0.02, gamma_tau)
        nd, np_ = super_rabi_means(params, np.array([0.0, math.pi]))
        np.testing.assert_allclose(nd, [1.1, 0.0], rtol=1e-15, atol=1e-30)
        np.testing.assert_allclose(np_, [0.0, 1.1], rtol=1e-15, atol=1e-30)

    def test_plain_rabi_populations_without_decay(self):
        thetas = np.linspace(0.0, math.pi, 17)
        nd, np_ = super_rabi_means(ProtocolParams(55.0, 0.02, 0.0), thetas)
        np.testing.assert_allclose(nd, 1.1 * np.cos(thetas / 2) ** 2, rtol=1e-15, atol=1e-30)
        np.testing.assert_allclose(np_, 1.1 * np.sin(thetas / 2) ** 2, rtol=1e-15, atol=1e-30)


class TestCountDistribution:
    def test_poisson_when_interaction_off(self):
        params = ProtocolParams(3.0, 0.4, 0.0)
        theta = 1.1
        dist = count_distribution(params, theta)
        mean = 1.2 * math.cos(theta / 2) ** 2
        for n, p in dist.probabilities.items():
            assert p == pytest.approx(poisson.pmf(n, mean), abs=1e-12)

    def test_zero_angle_poisson_for_both_orders(self):
        for order in (LOSS_AFTER, LOSS_BEFORE):
            params = ProtocolParams(3.0, 0.4, 0.7, loss_order=order)
            dist = count_distribution(params, 0.0)
            for n, p in dist.probabilities.items():
                assert p == pytest.approx(poisson.pmf(n, 1.2), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.5])
    @pytest.mark.parametrize("order", [LOSS_AFTER, LOSS_BEFORE])
    def test_normalized_and_mean_consistent(self, theta, order):
        params = ProtocolParams(8.0, 0.3, 0.2, loss_order=order)
        dist = count_distribution(params, theta)
        assert dist.total() == pytest.approx(1.0, abs=1e-9)
        mean = sum(n * p for n, p in dist.probabilities.items())
        assert mean == pytest.approx(super_rabi_means(params, theta)[0], abs=1e-8)

    def test_too_narrow_window_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr(multiparticle, "_window", lambda mean: int(mean))
        with pytest.raises(NumericalError, match="neglect"):
            count_distribution(ProtocolParams(20.0, 0.5, 0.3), math.pi / 2)

    def test_mode_symmetry_against_oracle(self):
        # the exact Fock pipeline's p-mode counts at theta are the model's
        # d-mode counts at pi - theta
        params = ProtocolParams(1.5, 0.3, 0.6)
        for theta in (0.0, 0.9, 2.0, math.pi):
            oracle = kraus_pipeline_distribution(1.5, 0.3, 0.6, theta, mode="p")
            assert count_distribution(params, math.pi - theta).tv_distance(oracle) < 1e-6


def reference_pmf(n0, eta, gamma_tau, theta, order, n_cut):
    """Double sum of scipy Poisson pmfs over k and n = 0..n_cut."""
    read, ctrl = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    b = n0 * ctrl * (eta if order == LOSS_BEFORE else 1.0)
    d = eta * n0 * read
    k = np.arange(int(b + 12 * math.sqrt(b) + 40))[:, None]
    n = np.arange(n_cut + 1)[None, :]
    return (poisson.pmf(k, b) * poisson.pmf(n, d * np.exp(-gamma_tau * k))).sum(axis=0)


def reference_log_pmf(params, theta, n_cut):
    """logsumexp over the kernel's k window of scipy Poisson log-pmf terms.

    The count term n log mu_k - mu_k - log n! takes n log mu_k as
    n log D - gamma tau k n, so it stays accurate where
    mu_k = D exp(-gamma tau k) is subnormal.
    """
    b, d = multiparticle._mixture_means(params, theta)
    k = np.arange(multiparticle._window(b) + 1)[:, None]
    n = np.arange(n_cut + 1)[None, :]
    mu = d * np.exp(-params.gamma_tau * k)
    count = xlogy(n, d) - params.gamma_tau * k * n - mu - gammaln(n + 1)
    with np.errstate(divide="ignore"):
        return logsumexp(poisson.logpmf(k, b) + count, axis=0)


class TestMixtureKernel:
    @given(
        n0=st.floats(min_value=0.0, max_value=1000.0),
        eta=st.floats(min_value=0.0, max_value=1.0),
        gamma_tau=st.floats(min_value=0.0, max_value=0.5),
        theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
        order=st.sampled_from([LOSS_AFTER, LOSS_BEFORE]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_double_sum(self, n0, eta, gamma_tau, theta, order):
        params = ProtocolParams(n0, eta, gamma_tau, loss_order=order)
        pmf = count_pmf(params, theta)
        assert pmf.min() >= 0.0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        expected = reference_pmf(n0, eta, gamma_tau, theta, order, pmf.size - 1)
        assert np.max(np.abs(pmf - expected)) <= 1e-12

    @given(
        n0=st.floats(min_value=0.0, max_value=1000.0),
        eta=st.floats(min_value=0.0, max_value=1.0),
        gamma_tau=st.floats(min_value=0.0, max_value=0.5),
        theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
        order=st.sampled_from([LOSS_AFTER, LOSS_BEFORE]),
    )
    @settings(max_examples=40, deadline=None)
    @example(n0=184.0, eta=1.238198831430591e-254, gamma_tau=0.5, theta=math.pi, order=LOSS_AFTER)
    def test_log_table_matches_scipy_logsumexp(self, n0, eta, gamma_tau, theta, order):
        # same k window as the kernel, so only the log-domain arithmetic is
        # compared; entries far below the linear table's range stay finite
        params = ProtocolParams(n0, eta, gamma_tau, loss_order=order)
        log_p = kernel(params, theta, log=True)[0]
        expected = reference_log_pmf(params, theta, log_p.size - 1)
        assert np.array_equal(np.isneginf(log_p), np.isneginf(expected))
        finite = np.isfinite(expected)
        assert log_p[finite] == pytest.approx(expected[finite], rel=1e-12, abs=1e-12)

    def test_log_table_keeps_entries_the_linear_table_underflows(self):
        params = ProtocolParams(55.0, 1.0, 0.0)
        thetas = [0.1, math.pi - 1e-3]
        log_p = kernel(params, thetas, n_cut=200, log=True)
        assert np.all(np.isfinite(log_p))
        assert np.exp(log_p[1, 200]) == 0.0
        expected = reference_log_pmf(params, thetas[1], 200)
        assert log_p[1] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_row_losing_mass_to_underflow_raises(self, monkeypatch):
        # with one count block over the whole window the k = 0 weight, which
        # carries the mass near n = D, underflows against the row maximum
        params = ProtocolParams(1000.0, 1.0, 0.5)
        assert count_pmf(params, 0.05).sum() == pytest.approx(1.0, abs=1e-10)
        monkeypatch.setattr(multiparticle, "_EXP_SPAN", math.inf)
        with np.errstate(divide="ignore"), pytest.raises(NumericalError, match="lost mass"):
            count_pmf(params, 0.05)

    def test_row_losing_mass_in_an_angle_grid_raises(self, monkeypatch):
        # the Fisher information's stacked rows keep the check
        params = ProtocolParams(1000.0, 1.0, 0.5)
        monkeypatch.setattr(multiparticle, "_EXP_SPAN", math.inf)
        with np.errstate(divide="ignore"), pytest.raises(NumericalError, match="lost mass"):
            fisher_information(params, np.array([0.03, 0.05, 0.04]))

    @pytest.mark.parametrize("n0", [40.0, 70.0, 400.0])
    def test_block_windows_match_single_angle_calls(self, monkeypatch, n0):
        params = ProtocolParams(n0, 0.3, 0.034)
        thetas = np.linspace(0.0, math.pi, 512)
        window = multiparticle._window
        means = []

        def recording_window(mean):
            means.append(mean)
            return window(mean)

        monkeypatch.setattr(multiparticle, "_window", recording_window)
        table = kernel(params, thetas)
        fis = fisher_information(params, thetas)
        # the k windows of the row blocks differ from the grid's largest one
        assert len({window(mean) for mean in means}) > 3
        n_cut = table.shape[1] - 1
        b, _ = multiparticle._mixture_means(params, thetas)
        for i, theta in enumerate(thetas):
            # a single angle sums k over its own, narrower window: the terms
            # it leaves out hold at most this mass
            neglected = multiparticle._tail_bound(b[i], window(b[i]))
            np.testing.assert_allclose(
                table[i], kernel(params, theta, n_cut=n_cut)[0], rtol=1e-13, atol=neglected
            )
            assert fis[i] == pytest.approx(fisher_information(params, theta), rel=1e-12, abs=0)

    def test_truncation_checked_per_angle_block(self, monkeypatch):
        params = ProtocolParams(70.0, 0.02, 0.034)
        thetas = np.linspace(0.01, math.pi - 0.01, 512)
        monkeypatch.setattr(multiparticle, "TAIL_MASS_MAX", 0.0)
        message = r"^Poisson-mixture truncation at k <= (\d+), n <= (\d+) may neglect mass \S+ > 0e\+00$"
        with pytest.raises(NumericalError, match=message) as info:
            kernel(params, thetas)
        # the first block of angles fails, on its own narrower k window
        k_cut = int(re.match(message, str(info.value)).group(1))
        assert k_cut < multiparticle._window(70.0 * math.sin(thetas[-1] / 2) ** 2)

    def test_no_detection_is_point_mass(self):
        pmf = count_pmf(ProtocolParams(50.0, 0.0, 0.2), 1.0)
        assert pmf[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf[1:] == 0.0)

    def test_rows_match_single_angle_calls(self):
        params = ProtocolParams(30.0, 0.4, 0.1)
        thetas = [0.0, 0.8, 2.0, math.pi]
        table = kernel(params, thetas, n_cut=25)
        for row, theta in zip(table, thetas):
            assert np.max(np.abs(row - kernel(params, theta, n_cut=25)[0])) <= 1e-14

    def test_large_n0_memory_bounded_by_block_budget(self):
        # one (k, n) slab at n0 = 2000, eta = 1 holds 5.6e6 terms (45 MB) per angle
        params = ProtocolParams(2000.0, 1.0, 0.034)
        tracemalloc.start()
        try:
            table = kernel(params, [0.0, math.pi / 2, math.pi])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-9
        assert peak <= 4 * multiparticle.BLOCK_ELEMENTS * 8


class TestInteractionChannel:
    def test_zero_decay_is_identity(self):
        basis = FockBasis(3)
        for symmetric in (True, False):
            ops = dense_operators(interaction_channel_kraus(basis, 0.0, symmetric=symmetric))
            assert len(ops) == 1
            assert np.allclose(ops[0], np.eye(basis.dim))

    def test_strong_decay_empties_one_one(self):
        basis = FockBasis(2)
        channel = interaction_channel_kraus(basis, 25.0, symmetric=True)
        one_one, vacuum = basis.state(1, 1), basis.state(0, 0)
        out = dense_kraus_sums(channel, dense_density(one_one))[0]
        assert np.max(np.abs(out - dense_density(vacuum))) < 1e-8
        out = apply_channel(one_one.to_density(), channel)
        assert np.max(np.abs(out.populations - vacuum.to_density().populations)) < 1e-8

    def test_strong_decay_recovers_error_prevention_channel(self):
        basis = FockBasis(2)
        strong = interaction_channel_kraus(basis, 25.0, symmetric=True)
        reference = error_prevention_channel()
        for rho in [dense_density(basis.state(*occ)) for occ in basis.occupations]:
            a = dense_kraus_sums(strong, rho)[0]
            b = dense_kraus_sums(reference, rho)[0]
            assert np.max(np.abs(a - b)) < 1e-8
            a = apply_channel(populations(basis, rho), strong).populations
            b = apply_channel(populations(basis, rho), reference).populations
            assert np.max(np.abs(a - b)) < 1e-8

    def test_single_mode_states_unaffected(self):
        basis = FockBasis(2)
        for gamma_tau in (0.3, 2.0, 25.0):
            channel = interaction_channel_kraus(basis, gamma_tau, symmetric=True)
            for occ in ((2, 0), (0, 2)):
                rho = dense_density(basis.state(*occ))
                assert np.max(np.abs(dense_kraus_sums(channel, rho)[0] - rho)) < 1e-12
                out = apply_channel(populations(basis, rho), channel)
                assert np.max(np.abs(out.populations - np.diagonal(rho).real)) < 1e-12

    def test_trace_preserving_on_truncated_space(self):
        basis = FockBasis(10)
        for symmetric in (True, False):
            channel = interaction_channel_kraus(basis, 0.8, symmetric=symmetric)
            assert channel.completeness_defect < 1e-9

    def test_asymmetric_damps_d_conditioned_on_p(self):
        basis = FockBasis(6)
        gamma_tau = 0.7
        channel = interaction_channel_kraus(basis, gamma_tau, symmetric=False)
        n_d = mode_operator(basis, "d", "number")
        for nd, np_ in ((1, 2), (2, 1), (3, 3)):
            out = apply_channel(basis.state(nd, np_).to_density(), channel)
            assert np.diagonal(n_d).real @ out.populations == pytest.approx(
                nd * math.exp(-gamma_tau * np_), rel=1e-10
            )

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            interaction_channel_kraus(FockBasis(2), -0.1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_non_finite_decay_rejected(self, value, symmetric):
        with pytest.raises(ValueError, match="gamma_tau must be finite"):
            interaction_channel_kraus(FockBasis(2), value, symmetric=symmetric)

    @pytest.mark.parametrize("n_max", [2, 9, 14])
    @pytest.mark.parametrize("gamma_tau", [0.0, 0.7, 25.0])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_lowering_form_matches_dense_reference(self, rng, n_max, gamma_tau, symmetric):
        basis = FockBasis(n_max)
        channel = interaction_channel_kraus(basis, gamma_tau, symmetric=symmetric)
        rho = random_density(rng, basis.dim)
        reference, defect = dense_kraus_sums(channel, rho)
        out = apply_channel(populations(basis, rho), channel).populations
        assert np.max(np.abs(out - np.diagonal(reference).real)) <= 1e-15
        assert abs(channel.completeness_defect - defect) <= 1e-14

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_builds_without_dense_stack(self, symmetric):
        # one dense (J, dim, dim) stack at FockBasis(14) would take 27 MB
        basis = FockBasis(14)
        peak = tracemalloc_peak(lambda: interaction_channel_kraus(basis, 0.7, symmetric=symmetric))
        assert peak <= 2e6

    def test_symmetric_build_memory_at_sixty(self):
        # 6.2e5 entries: the kept table (four arrays and the weights) is 25 MB
        basis = FockBasis(60)
        peak = tracemalloc_peak(lambda: interaction_channel_kraus(basis, 0.034, symmetric=True))
        assert peak < 90e6


class TestOracleEquivalence:
    @pytest.mark.parametrize("n0,gamma_tau,theta", [
        (0.5, 0.5, math.pi / 4),
        (1.0, 2.0, math.pi / 2),
        (2.0, 0.5, 2.2),
    ])
    @pytest.mark.parametrize("order", [LOSS_AFTER, LOSS_BEFORE])
    def test_count_distribution_matches_kraus_pipeline(self, n0, gamma_tau, theta, order):
        params = ProtocolParams(n0, 0.3, gamma_tau, loss_order=order)
        analytic = count_distribution(params, theta)
        oracle = kraus_pipeline_distribution(n0, 0.3, gamma_tau, theta, loss_order=order)
        assert analytic.tv_distance(oracle) < 1e-6

    @pytest.mark.parametrize("gamma_tau", [0.034, 0.19])
    def test_count_pmf_matches_population_oracle_at_experimental_point(self, gamma_tau):
        # n0 = 55, eta = 0.02 on FockBasis(110), whose coherent tail is about
        # 2e-11; the asymmetric channel damps d given p, which is all that
        # the d counts see.  The population path and the number measurement
        # keep the peak far below the 309 MB of one dim^2 float array at
        # this size.
        n0, eta = 55.0, 0.02
        basis = FockBasis(110)
        povm = number_povm(basis)
        n = np.arange(basis.n_max + 1)
        worst = []

        def run():
            channel = interaction_channel_kraus(basis, gamma_tau, symmetric=False)
            for order in (LOSS_AFTER, LOSS_BEFORE):
                scale = math.sqrt(n0 * (eta if order == LOSS_BEFORE else 1.0))
                for theta in (0.6, 1.14, 2.0):
                    state = coherent_state(
                        basis, scale * math.cos(theta / 2), 1j * scale * math.sin(theta / 2)
                    )
                    counts = measure(apply_channel(state.to_density(), channel), povm)
                    marginal = counts.marginal("d")
                    oracle = np.array([marginal.get(k) for k in n.tolist()])
                    if order == LOSS_AFTER:
                        oracle = binom.pmf(n[:, None], n[None, :], eta) @ oracle
                    params = ProtocolParams(n0, eta, gamma_tau, loss_order=order)
                    analytic = count_pmf(params, theta)
                    size = max(analytic.size, oracle.size)
                    analytic, oracle = (np.pad(p, (0, size - p.size)) for p in (analytic, oracle))
                    worst.append(0.5 * np.abs(analytic - oracle).sum())

        assert tracemalloc_peak(run) < 200e6
        assert len(worst) == 6 and max(worst) < 1e-10


def reference_fi(n0, eta, gamma_tau, theta, order):
    """Per-shot FI from P and dP/dtheta built with scipy Poisson pmfs.

    Ladder identity d/dmu Pois(n; mu) = Pois(n - 1; mu) - Pois(n; mu), in B
    and in mu_k = D exp(-gamma_tau k).
    """
    read, ctrl = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    slope = -math.sin(theta) / 2  # of cos^2(theta/2)
    scale = n0 * (eta if order == LOSS_BEFORE else 1.0)
    b, db = scale * ctrl, -scale * slope
    d, dd = eta * n0 * read, eta * n0 * slope
    k = np.arange(int(b + 12 * math.sqrt(b) + 40))[:, None]
    n = np.arange(int(d + 12 * math.sqrt(d) + 40))[None, :]
    damp = np.exp(-gamma_tau * k)
    w = poisson.pmf(k, b)
    pk = poisson.pmf(n, d * damp)
    p = (w * pk).sum(axis=0)
    dp_db = ((poisson.pmf(k - 1, b) - w) * pk).sum(axis=0)
    dp_dd = (w * damp * (poisson.pmf(n - 1, d * damp) - pk)).sum(axis=0)
    grad = db * dp_db + dd * dp_dd
    live = p > 0
    return np.sum(grad[live] ** 2 / p[live])


class TestFisherInformation:
    @given(
        n0=st.floats(min_value=0.0, max_value=200.0),
        eta=st.floats(min_value=1e-3, max_value=1.0),
        gamma_tau=st.floats(min_value=0.0, max_value=0.5),
        theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
        order=st.sampled_from([LOSS_AFTER, LOSS_BEFORE]),
    )
    @settings(max_examples=60, deadline=None)
    # B = n0 sin^2(theta/2) keeps its relative precision near theta = 0
    @example(n0=47.0, eta=1.0, gamma_tau=0.5, theta=1e-8, order=LOSS_AFTER)
    def test_matches_ladder_identity_reference(self, n0, eta, gamma_tau, theta, order):
        params = ProtocolParams(n0, eta, gamma_tau, loss_order=order)
        expected = reference_fi(n0, eta, gamma_tau, theta, order)
        assert fisher_information(params, theta) == pytest.approx(expected, rel=1e-10, abs=0)

    def test_tiny_information_keeps_its_digits(self):
        # 60-digit mpmath: exact mixture sums over k < 2600 and n < 40 (the
        # neglected mass is 8e-42), F from a central difference in theta
        # with h = 1e-25, 3.7239614838157787e-27
        params = ProtocolParams(2000.0, 0.02, 0.034)
        expected = 3.7239614838158e-27
        assert fisher_information(params, 2.9) == pytest.approx(expected, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n0,gamma_tau", [(2000.0, 0.5), (30000.0, 0.034), (5000.0, 1.0)])
    @pytest.mark.parametrize("order", [LOSS_AFTER, LOSS_BEFORE])
    def test_zero_angle_at_large_detected_mean(self, n0, gamma_tau, order):
        # B = 0 and D = n0: every P(n) > 0 and dP/dtheta = 0, so F = 0;
        # n0 eta (1 - e^-gamma_tau) is far above the exp range of a double.
        # At n0 = 5000, gamma_tau = 1 the counts that underflow P(n; 0, D)
        # carry mass under P(n; 0, e^-1 D), which is no zero-probability limit
        params = ProtocolParams(n0, 1.0, gamma_tau, loss_order=order)
        fi = fisher_information(params, 0.0)
        assert math.isfinite(fi) and abs(fi) < 1e-12

    def test_stationary_zero_probability_limit(self):
        # at theta = pi, D = n0 eta cos^2(theta/2) is 4e-33 but not 0, and
        # the n = 1 term (D' dP/dD)^2 / P already equals the stationary limit
        # 2 D'' dP/dD with D'' = n0 eta / 2
        params = ProtocolParams(55.0, 0.02, 0.034)
        expected = 1.1 * math.exp(-55.0 * (1.0 - math.exp(-0.034)))
        assert fisher_information(params, math.pi) == pytest.approx(expected, rel=1e-12)

    def test_array_call_matches_scalar_calls(self):
        thetas = np.array([[0.0, 0.7], [2.0, math.pi]])
        values = fisher_information(EXPERIMENT, thetas)
        assert values.shape == thetas.shape
        for theta, value in zip(thetas.ravel(), values.ravel()):
            scalar = fisher_information(EXPERIMENT, float(theta))
            assert isinstance(scalar, float)
            assert value == pytest.approx(scalar, rel=1e-12, abs=1e-300)
        normalized = normalized_fi(EXPERIMENT, thetas)
        np.testing.assert_allclose(normalized, values / EXPERIMENT.detected_mean, rtol=1e-15)

    @pytest.mark.parametrize("gamma_tau,order,thetas", [
        *[(g, LOSS_AFTER, np.linspace(0.05, math.pi - 0.01, 160)) for g in (0.028, 0.034, 0.04)],
        *[(g, o, np.linspace(0.3, 2.8, 15))
          for g in (0.0, 0.04, 0.08, 0.15, 0.3) for o in (LOSS_AFTER, LOSS_BEFORE)],
    ])
    def test_matches_finite_difference_on_criterion_grids(self, gamma_tau, order, thetas):
        # the criterion 6 and 7 grids at n0 = 55, eta = 0.02
        params = ProtocolParams(55.0, 0.02, gamma_tau, loss_order=order)
        exact = fisher_information(params, thetas)
        for theta, value in zip(thetas, exact):
            fd = classical_fi(lambda t: count_distribution(params, t), theta)
            assert value == pytest.approx(fd, rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("n0,n_max", [(0.5, 11), (1.0, 12), (2.0, 14)])
    @pytest.mark.parametrize("gamma_tau", [0.0, 0.5, 2.0])
    def test_matches_kraus_pipeline_finite_difference(self, n0, n_max, gamma_tau):
        # the criterion 5 grid, against the dense Fock-space oracle on the
        # smallest basis whose coherent tail check passes
        thetas = (0.0, math.pi / 4, math.pi / 2, math.pi)
        exact = fisher_information(ProtocolParams(n0, 0.3, gamma_tau), np.array(thetas))
        family = kraus_pipeline_family(n0, 0.3, gamma_tau, n_max=n_max)
        for theta, value in zip(thetas, exact):
            fd = classical_fi(family, theta)
            assert value == pytest.approx(fd, rel=1e-7, abs=1e-12)

    def test_module_does_not_bind_finite_difference_fi(self):
        assert not hasattr(multiparticle, "classical_fi")
        assert not hasattr(multiparticle, "super_rabi_means_approx")

    def test_reduces_to_poisson_for_both_orders(self):
        for order in (LOSS_AFTER, LOSS_BEFORE):
            params = ProtocolParams(55.0, 0.02, 0.0, loss_order=order)
            for theta in (0.7, math.pi / 2, 2.5):
                expected = 1.1 * math.sin(theta / 2) ** 2
                assert fisher_information(params, theta) == pytest.approx(
                    expected, rel=1e-6
                )

    def test_losses_after_beat_detected_photon_budget(self):
        params = ProtocolParams(55.0, 0.02, 0.15)
        values = [normalized_fi(params, t) for t in np.linspace(0.3, 2.0, 18)]
        assert max(values) > 1.0

    def test_losses_before_never_beat_detected_photon_budget(self):
        for gamma_tau in (0.1, 0.5, 2.0):
            params = ProtocolParams(55.0, 0.02, gamma_tau, loss_order=LOSS_BEFORE)
            for theta in np.linspace(0.2, 3.0, 15):
                assert normalized_fi(params, theta) <= 1.0 + 1e-6

    def test_lossless_bounded_by_interaction_free_budget(self):
        params = ProtocolParams(1.1, 1.0, 0.5)
        for theta in np.linspace(0.2, 3.0, 15):
            assert normalized_fi(params, theta) <= 1.0 + 1e-6

    def test_normalized_fi_limit_at_pi(self):
        params = ProtocolParams(55.0, 0.02, 0.0)
        assert normalized_fi(params, math.pi) == pytest.approx(1.0, rel=1e-6)

    def test_monotone_degradation_under_extra_thinning(self):
        # extra post-interaction thinning of the read-out can only hurt
        values = [
            fisher_information(ProtocolParams(2.0, 0.5 * f, 0.8), 1.3)
            for f in (1.0, 0.8, 0.6, 0.4)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_zero_detected_mean_gives_exact_zero(self):
        thetas = np.linspace(0.0, math.pi, 33)
        for params in (ProtocolParams(55.0, 0.0, 0.03), ProtocolParams(0.0, 0.5, 0.03)):
            assert np.all(fisher_information(params, thetas) == 0.0)
            assert fisher_information(params, 1.2) == 0.0

    def test_normalized_fi_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            normalized_fi(ProtocolParams(0.0, 0.5, 0.1), 1.0)


class TestDecayFit:
    def test_matches_polyfit_line(self, rng):
        times = np.linspace(0.0, 8e-6, 21)
        values = 0.9 * np.exp(-4e4 * times) * rng.uniform(0.9, 1.1, times.size)
        slope, intercept = np.polyfit(times, np.log(values), 1)
        rate, amplitude = fit_exponential_decay(times, values)
        assert rate == pytest.approx(-slope, rel=1e-12)
        assert amplitude == pytest.approx(math.exp(intercept), rel=1e-12)

    def test_equal_times_rejected(self):
        with pytest.raises(ValueError, match="distinct times"):
            fit_exponential_decay([2.0, 2.0, 2.0], [0.5, 0.4, 0.3])

    def test_recovers_exact_exponential(self):
        times = np.linspace(0.0, 20.0, 15)
        rate, amplitude = fit_exponential_decay(times, 0.7 * np.exp(-0.11 * times))
        assert rate == pytest.approx(0.11, abs=1e-6)
        assert amplitude == pytest.approx(0.7, abs=1e-6)

    def test_zero_rate_for_constant_signal(self):
        times = np.linspace(0.0, 5.0, 8)
        rate, _ = fit_exponential_decay(times, np.full_like(times, 0.4))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_exponential_decay([1.0, 2.0], [0.5, -0.1])
