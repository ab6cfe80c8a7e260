import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp, xlogy
from scipy.stats import poisson

from rydsense import multiparticle
from rydsense.error_prevention import error_prevention_channel
from rydsense.errors import NumericalError
from rydsense.fockspace import (
    DensityOperator,
    FockBasis,
    apply_channel,
    classical_fi,
    mode_operator,
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
from helpers import dense_kraus_sums, dense_operators, random_density, tracemalloc_peak

EXPERIMENT = ProtocolParams(n0=55.0, eta=0.02, gamma_tau=0.028)


def super_rabi_means_approx(params, theta):
    """First-order variant of the means with exp(-B gamma_tau) decay."""
    out = []
    for mode in ("d", "p"):
        b, d = multiparticle._mixture_means(params, theta, mode)
        out.append(d * math.exp(-b * params.gamma_tau))
    return tuple(out)


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
        exact = super_rabi_means(EXPERIMENT, 1.1)
        approx = super_rabi_means_approx(EXPERIMENT, 1.1)
        assert approx[0] == pytest.approx(exact[0], rel=2e-2)
        assert approx[0] != exact[0]

    def test_steepening_sum_below_detected_mean(self):
        for theta in np.linspace(0.2, math.pi - 0.2, 15):
            assert sum(super_rabi_means(EXPERIMENT, theta)) < 1.1


class TestCountDistribution:
    def test_poisson_when_interaction_off(self):
        params = ProtocolParams(3.0, 0.4, 0.0)
        theta = 1.1
        dist = count_distribution(params, theta)
        mean = 1.2 * math.cos(theta / 2) ** 2
        for n, p in dist.sorted_items():
            assert p == pytest.approx(poisson.pmf(n, mean), abs=1e-12)

    def test_zero_angle_poisson_for_both_orders(self):
        for order in (LOSS_AFTER, LOSS_BEFORE):
            params = ProtocolParams(3.0, 0.4, 0.7, loss_order=order)
            dist = count_distribution(params, 0.0)
            for n, p in dist.sorted_items():
                assert p == pytest.approx(poisson.pmf(n, 1.2), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.5])
    @pytest.mark.parametrize("order", [LOSS_AFTER, LOSS_BEFORE])
    def test_normalized_and_mean_consistent(self, theta, order):
        params = ProtocolParams(8.0, 0.3, 0.2, loss_order=order)
        dist = count_distribution(params, theta)
        assert dist.total() == pytest.approx(1.0, abs=1e-9)
        assert dist.mean() == pytest.approx(super_rabi_means(params, theta)[0], abs=1e-8)

    def test_too_narrow_window_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr(multiparticle, "_window", lambda mean: int(mean))
        with pytest.raises(NumericalError, match="neglect"):
            count_distribution(ProtocolParams(20.0, 0.5, 0.3), math.pi / 2)

    def test_mode_symmetry_against_oracle(self):
        # p-mode counts at theta equal d-mode counts at pi - theta, and both
        # agree with the exact Fock pipeline
        params = ProtocolParams(1.5, 0.3, 0.6)
        theta = 0.9
        dist_p = count_distribution(params, theta, mode="p")
        dist_d_swapped = count_distribution(params, math.pi - theta, mode="d")
        assert dist_p.tv_distance(dist_d_swapped) < 1e-12
        oracle = kraus_pipeline_distribution(1.5, 0.3, 0.6, theta, mode="p")
        assert dist_p.tv_distance(oracle) < 1e-6


def reference_pmf(n0, eta, gamma_tau, theta, mode, order, n_cut):
    """Double sum of scipy Poisson pmfs over k and n = 0..n_cut."""
    read, ctrl = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    if mode == "p":
        read, ctrl = ctrl, read
    b = n0 * ctrl * (eta if order == LOSS_BEFORE else 1.0)
    d = eta * n0 * read
    k = np.arange(int(b + 12 * math.sqrt(b) + 40))[:, None]
    n = np.arange(n_cut + 1)[None, :]
    return (poisson.pmf(k, b) * poisson.pmf(n, d * np.exp(-gamma_tau * k))).sum(axis=0)


def reference_log_pmf(params, theta, mode, n_cut):
    """logsumexp over the kernel's k window of scipy Poisson log-pmf terms.

    The count term n log mu_k - mu_k - log n! takes n log mu_k as
    n log D - gamma tau k n, so it stays accurate where
    mu_k = D exp(-gamma tau k) is subnormal.
    """
    b, d = multiparticle._mixture_means(params, theta, mode)
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
        mode=st.sampled_from(["d", "p"]),
        order=st.sampled_from([LOSS_AFTER, LOSS_BEFORE]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_double_sum(self, n0, eta, gamma_tau, theta, mode, order):
        params = ProtocolParams(n0, eta, gamma_tau, loss_order=order)
        pmf = count_pmf(params, theta, mode)
        assert pmf.min() >= 0.0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        expected = reference_pmf(n0, eta, gamma_tau, theta, mode, order, pmf.size - 1)
        assert np.max(np.abs(pmf - expected)) <= 1e-12

    @given(
        n0=st.floats(min_value=0.0, max_value=1000.0),
        eta=st.floats(min_value=0.0, max_value=1.0),
        gamma_tau=st.floats(min_value=0.0, max_value=0.5),
        theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
        mode=st.sampled_from(["d", "p"]),
        order=st.sampled_from([LOSS_AFTER, LOSS_BEFORE]),
    )
    @settings(max_examples=40, deadline=None)
    @example(n0=184.0, eta=1.238198831430591e-254, gamma_tau=0.5, theta=math.pi, mode="d", order=LOSS_AFTER)
    def test_log_table_matches_scipy_logsumexp(self, n0, eta, gamma_tau, theta, mode, order):
        # same k window as the kernel, so only the log-domain arithmetic is
        # compared; entries far below the linear table's range stay finite
        params = ProtocolParams(n0, eta, gamma_tau, loss_order=order)
        log_p = multiparticle._mixture_table(params, theta, mode, log=True)[0]
        expected = reference_log_pmf(params, theta, mode, log_p.size - 1)
        assert np.array_equal(np.isneginf(log_p), np.isneginf(expected))
        finite = np.isfinite(expected)
        assert log_p[finite] == pytest.approx(expected[finite], rel=1e-12, abs=1e-12)

    def test_log_table_keeps_entries_the_linear_table_underflows(self):
        params = ProtocolParams(55.0, 1.0, 0.0)
        thetas = [0.1, math.pi - 1e-3]
        log_p = multiparticle._mixture_table(params, thetas, n_cut=200, log=True)
        assert np.all(np.isfinite(log_p))
        assert np.exp(log_p[1, 200]) == 0.0
        expected = reference_log_pmf(params, thetas[1], "d", 200)
        assert log_p[1] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_row_losing_mass_to_underflow_raises(self, monkeypatch):
        # with one count block over the whole window the k = 0 weight, which
        # carries the mass near n = D, underflows against the row maximum
        params = ProtocolParams(1000.0, 1.0, 0.5)
        assert count_pmf(params, 0.05).sum() == pytest.approx(1.0, abs=1e-10)
        monkeypatch.setattr(multiparticle, "_EXP_SPAN", math.inf)
        with np.errstate(divide="ignore"), pytest.raises(NumericalError, match="lost mass"):
            count_pmf(params, 0.05)

    def test_no_detection_is_point_mass(self):
        pmf = count_pmf(ProtocolParams(50.0, 0.0, 0.2), 1.0)
        assert pmf[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf[1:] == 0.0)

    def test_rows_match_single_angle_calls(self):
        params = ProtocolParams(30.0, 0.4, 0.1)
        thetas = [0.0, 0.8, 2.0, math.pi]
        table = multiparticle._mixture_table(params, thetas, n_cut=25)
        for row, theta in zip(table, thetas):
            assert np.max(np.abs(row - count_pmf(params, theta, n_cut=25))) <= 1e-14

    def test_large_n0_memory_bounded_by_block_budget(self):
        # one (k, n) slab at n0 = 2000, eta = 1 holds 5.6e6 terms (45 MB) per angle
        params = ProtocolParams(2000.0, 1.0, 0.034)
        tracemalloc.start()
        try:
            table = multiparticle._mixture_table(params, [0.0, math.pi / 2, math.pi])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-9
        assert peak <= 4 * multiparticle.BLOCK_ELEMENTS * 8


class TestInteractionChannel:
    def test_zero_decay_is_identity(self):
        basis = FockBasis(3)
        for symmetric in (True, False):
            channel = interaction_channel_kraus(basis, 0.0, symmetric=symmetric)
            assert len(channel) == 1
            assert np.allclose(dense_operators(channel)[0], np.eye(basis.dim))

    def test_strong_decay_empties_one_one(self):
        basis = FockBasis(2)
        channel = interaction_channel_kraus(basis, 25.0, symmetric=True)
        out = apply_channel(basis.state(1, 1).to_density(), channel)
        target = basis.state(0, 0).to_density()
        assert np.max(np.abs(out.matrix - target.matrix)) < 1e-8

    def test_strong_decay_recovers_error_prevention_channel(self):
        basis = FockBasis(2)
        strong = interaction_channel_kraus(basis, 25.0, symmetric=True)
        reference = error_prevention_channel()
        for occ in basis.occupations:
            rho = basis.state(*occ).to_density()
            a = apply_channel(rho, strong).matrix
            b = apply_channel(rho, reference).matrix
            assert np.max(np.abs(a - b)) < 1e-8

    def test_single_mode_states_unaffected(self):
        basis = FockBasis(2)
        for gamma_tau in (0.3, 2.0, 25.0):
            channel = interaction_channel_kraus(basis, gamma_tau, symmetric=True)
            for occ in ((2, 0), (0, 2)):
                rho = basis.state(*occ).to_density()
                out = apply_channel(rho, channel)
                assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

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
            assert out.expectation(n_d) == pytest.approx(
                nd * math.exp(-gamma_tau * np_), rel=1e-10
            )

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            interaction_channel_kraus(FockBasis(2), -0.1)

    @pytest.mark.parametrize("n_max", [2, 9, 14])
    @pytest.mark.parametrize("gamma_tau", [0.0, 0.7, 25.0])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_lowering_form_matches_dense_reference(self, rng, n_max, gamma_tau, symmetric):
        basis = FockBasis(n_max)
        channel = interaction_channel_kraus(basis, gamma_tau, symmetric=symmetric)
        rho = random_density(rng, basis.dim)
        reference, defect = dense_kraus_sums(channel, rho)
        out = apply_channel(DensityOperator(basis, rho), channel).matrix
        assert np.max(np.abs(out - reference)) <= 1e-15
        assert abs(channel.completeness_defect - defect) <= 1e-14

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_builds_without_dense_stack(self, symmetric):
        # one dense (J, dim, dim) stack at FockBasis(14) would take 27 MB
        basis = FockBasis(14)
        peak = tracemalloc_peak(lambda: interaction_channel_kraus(basis, 0.7, symmetric=symmetric))
        assert peak <= 2e6


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


def reference_fi(n0, eta, gamma_tau, theta, mode, order):
    """Per-shot FI from P and dP/dtheta built with scipy Poisson pmfs.

    Ladder identity d/dmu Pois(n; mu) = Pois(n - 1; mu) - Pois(n; mu), in B
    and in mu_k = D exp(-gamma_tau k).  Outcomes with P = 0 at an angle
    where B' = D' = 0 contribute 2 d^2P/dtheta^2.
    """
    read, ctrl = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    slope, curve = -math.sin(theta) / 2, -math.cos(theta) / 2  # of cos^2(theta/2)
    if mode == "p":
        read, ctrl, slope, curve = ctrl, read, -slope, -curve
    scale = n0 * (eta if order == LOSS_BEFORE else 1.0)
    b, db, d2b = scale * ctrl, -scale * slope, -scale * curve
    d, dd, d2d = eta * n0 * read, eta * n0 * slope, eta * n0 * curve
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
    fi = np.sum(grad[live] ** 2 / p[live])
    if db == 0 and dd == 0:
        fi += np.sum(2 * (d2b * dp_db + d2d * dp_dd)[~live])
    return fi


class TestFisherInformation:
    @given(
        n0=st.floats(min_value=0.0, max_value=200.0),
        eta=st.floats(min_value=1e-3, max_value=1.0),
        gamma_tau=st.floats(min_value=0.0, max_value=0.5),
        theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
        mode=st.sampled_from(["d", "p"]),
        order=st.sampled_from([LOSS_AFTER, LOSS_BEFORE]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_ladder_identity_reference(self, n0, eta, gamma_tau, theta, mode, order):
        # the 1e-20 absolute floor sits far above the rounding noise of the
        # k-sums, about (n0 1e-16)^2, where the FI itself nearly vanishes
        params = ProtocolParams(n0, eta, gamma_tau, loss_order=order)
        expected = reference_fi(n0, eta, gamma_tau, theta, mode, order)
        assert fisher_information(params, theta, mode) == pytest.approx(
            expected, rel=1e-10, abs=1e-20
        )

    def test_stationary_zero_probability_limit(self):
        # mode p at theta = 0: D = 0, so P(n >= 1) = 0 and only the
        # 2 D'' dP/dD limit of n = 1 remains, D'' = n0 eta / 2
        params = ProtocolParams(55.0, 0.02, 0.034)
        expected = 1.1 * math.exp(-55.0 * (1.0 - math.exp(-0.034)))
        assert fisher_information(params, 0.0, mode="p") == pytest.approx(expected, rel=1e-12)

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
            for mode in ("d", "p"):
                assert np.all(fisher_information(params, thetas, mode) == 0.0)
                assert fisher_information(params, 1.2, mode) == 0.0

    def test_normalized_fi_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            normalized_fi(ProtocolParams(0.0, 0.5, 0.1), 1.0)


class TestDecayFit:
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
