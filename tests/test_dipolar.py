import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from rydsense import dipolar
from rydsense.dipolar import (
    CloudGeometry,
    DipolarParams,
    decay_rate_gamma,
    excluded_volume_integral,
    pair_potential,
    readout_expectation_mc,
    volumetric_rate_q,
)

from helpers import angular_abs_integral, quadrature_j

BOX_CLOUD = CloudGeometry("box", (80.0, 80.0, 4000.0))
TABULATED_C3_GHZ_UM3 = 3.709
PARAMS = DipolarParams.from_tabulated(TABULATED_C3_GHZ_UM3, BOX_CLOUD)

MC_CLOUD = CloudGeometry("gaussian", (60.0, 60.0, 3000.0))
MC_PARAMS = DipolarParams.from_tabulated(TABULATED_C3_GHZ_UM3, MC_CLOUD)


def lda_readout_oracle(t_us, n_p, params):
    """Exact value of the local-density readout functional by 1-d quadrature.

    For a gaussian cloud, sampling x from the density makes the quadratic
    form q = sum (x_i / sigma_i)^2 chi-squared with 3 degrees of freedom,
    so E|1 - p(x) A|^(2 n_p) reduces to a one-dimensional integral.  In the
    dilute cloud of ``MC_PARAMS`` the read-out agrees with it within the
    Monte-Carlo error.
    """
    a = excluded_volume_integral(t_us, params)
    sx, sy, sz = params.cloud.dimensions
    p0 = 1.0 / ((2 * math.pi) ** 1.5 * sx * sy * sz)

    def f(q):
        return chi2.pdf(q, 3) * abs(1 - p0 * math.exp(-q / 2) * a) ** (2 * n_p)

    value, err = quad(f, 0.0, 80.0, limit=200)
    assert err < 1e-8
    return value


class TestPairPotential:
    def test_along_axis_equals_coupling(self):
        assert pair_potential(1.0, 0.0, PARAMS) == pytest.approx(PARAMS.c3_over_hbar)

    def test_perpendicular_is_minus_half(self):
        assert pair_potential(1.0, math.pi / 2, PARAMS) == pytest.approx(
            -PARAMS.c3_over_hbar / 2
        )

    def test_inverse_cube_scaling(self):
        v1 = pair_potential(1.0, 0.3, PARAMS)
        v2 = pair_potential(2.0, 0.3, PARAMS)
        assert v2 == pytest.approx(v1 / 8.0)

    def test_sign_change_at_magic_angle(self):
        magic = math.acos(math.sqrt(1.0 / 3.0))
        assert abs(pair_potential(1.0, magic, PARAMS)) < 1e-6 * PARAMS.c3_over_hbar
        assert pair_potential(1.0, magic - 0.1, PARAMS) > 0
        assert pair_potential(1.0, magic + 0.1, PARAMS) < 0

    def test_zero_separation_rejected(self):
        with pytest.raises(ValueError):
            pair_potential(0.0, 0.1, PARAMS)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("dims", [
        (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf),
    ])
    def test_cloud_geometry(self, dims):
        with pytest.raises(ValueError, match="finite"):
            CloudGeometry("box", dims)

    @pytest.mark.parametrize("c3", [math.nan, math.inf, -math.inf])
    def test_dipolar_params(self, c3):
        with pytest.raises(ValueError, match="finite"):
            DipolarParams(c3, BOX_CLOUD)

    @pytest.mark.parametrize("r,vartheta", [
        (math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_pair_potential(self, r, vartheta):
        with pytest.raises(ValueError, match="finite"):
            pair_potential(r, vartheta, PARAMS)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_excluded_volume_integral(self, t):
        with pytest.raises(ValueError, match="finite"):
            excluded_volume_integral(t, PARAMS)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_readout_expectation_mc(self, t):
        with pytest.raises(ValueError, match="finite"):
            readout_expectation_mc(t, 3, MC_PARAMS, samples=10_000, seed=0)


class TestClosedForms:
    def test_unit_coupling_coefficient(self):
        params = DipolarParams(1.0, BOX_CLOUD)
        assert volumetric_rate_q(params) == pytest.approx(
            4 * math.pi**2 / (9 * math.sqrt(3)), rel=1e-12
        )

    def test_tabulated_coupling_rate(self):
        assert volumetric_rate_q(PARAMS) == pytest.approx(5.90e10, rel=2e-3)

    def test_rate_linear_in_coupling(self):
        doubled = DipolarParams(2 * PARAMS.c3_over_hbar, BOX_CLOUD)
        assert volumetric_rate_q(doubled) == pytest.approx(
            2 * volumetric_rate_q(PARAMS), rel=1e-12
        )

    def test_gamma_is_two_q_over_volume(self):
        q = volumetric_rate_q(PARAMS)
        assert decay_rate_gamma(PARAMS) == pytest.approx(
            2 * q / BOX_CLOUD.effective_volume, rel=1e-14
        )

    def test_gamma_experimental_geometry_value(self):
        gamma = decay_rate_gamma(PARAMS)
        assert gamma == pytest.approx(4.61e3, rel=1e-3)
        # quoted experimental scale is kHz; agreement is order-of-magnitude
        # only because of the volume / 2 pi convention ambiguity
        assert 1e3 < gamma < 1e4

    def test_gamma_halves_when_volume_doubles(self):
        bigger = DipolarParams(
            PARAMS.c3_over_hbar, CloudGeometry("box", (160.0, 80.0, 4000.0))
        )
        assert decay_rate_gamma(bigger) == pytest.approx(
            decay_rate_gamma(PARAMS) / 2, rel=1e-14
        )

    def test_effective_volumes(self):
        assert BOX_CLOUD.effective_volume == pytest.approx(80 * 80 * 4000)
        gauss = CloudGeometry("gaussian", (2.0, 3.0, 5.0))
        assert gauss.effective_volume == pytest.approx((4 * math.pi) ** 1.5 * 30.0)

    def test_cloud_validation(self):
        with pytest.raises(ValueError):
            CloudGeometry("sphere", (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            CloudGeometry("box", (1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            DipolarParams(-1.0, BOX_CLOUD)


class TestExcludedVolume:
    def test_real_part_linear_and_matches_q(self):
        q = volumetric_rate_q(PARAMS)
        ratios = []
        for t in (0.1, 1.0, 10.0):
            a = excluded_volume_integral(t, PARAMS)
            assert a.real > 0
            ratios.append(a.real / t * 1e6)  # um^3/us -> um^3/s
        for r in ratios:
            assert abs(r - q) / q < 5e-3
        assert (max(ratios) - min(ratios)) / q < 5e-3

    def test_two_decade_fit_slope_and_residual(self):
        q = volumetric_rate_q(PARAMS) * 1e-6  # um^3/us
        ts = np.logspace(-1, 1, 7)
        re_a = np.array([excluded_volume_integral(t, PARAMS).real for t in ts])
        slope = float(np.sum(ts * re_a) / np.sum(ts**2))
        assert abs(slope - q) / q < 5e-3
        residual = np.max(np.abs(re_a - slope * ts) / re_a)
        assert residual < 1e-2

    def test_vanishes_for_short_times(self):
        a_small = excluded_volume_integral(1e-6, PARAMS)
        a_ref = excluded_volume_integral(1.0, PARAMS)
        assert abs(a_small) < 2e-6 * abs(a_ref)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            excluded_volume_integral(0.0, PARAMS)
        with pytest.raises(ValueError):
            excluded_volume_integral(-1.0, PARAMS)

    def test_angular_identity(self):
        exact = 8 * math.pi / (3 * math.sqrt(3))
        assert abs(angular_abs_integral() - exact) < 1e-6

    def test_closed_form_matches_quadrature(self):
        j, re_rel_error = quadrature_j()
        t = 2.0
        closed = excluded_volume_integral(t, PARAMS)
        numeric = (2 * math.pi / 3) * t * PARAMS.c3_over_hbar * 1e-6 * j
        assert abs(closed.real - numeric.real) <= 1e-6 * abs(numeric.real)
        assert abs(closed.imag - numeric.imag) <= 1e-5 * abs(numeric.imag)
        assert re_rel_error > 0

    def test_closed_form_imaginary_part_is_log_moment(self):
        # Im J = -int_{-1}^{1} f ln|f| dc with f = (3 c^2 - 1) / 2, which
        # vanishes at c = +-1/sqrt(3)
        def integrand(c):
            f = (3 * c**2 - 1) / 2
            return f * math.log(abs(f)) if f != 0 else 0.0

        root = 1 / math.sqrt(3)
        value, err = quad(integrand, -1.0, 1.0, points=[-root, root], limit=200)
        assert err < 1e-10
        assert dipolar.J_CLOSED_FORM.imag == pytest.approx(-value, rel=1e-12)


class TestMonteCarloReadout:
    def test_time_zero_is_exactly_one(self):
        result = readout_expectation_mc(0.0, 1, MC_PARAMS, samples=10_000, seed=0)
        assert result.value == 1.0
        assert result.stderr == 0.0

    def test_small_time_single_control_direct(self):
        t = 0.3
        r = readout_expectation_mc(t, 1, MC_PARAMS, samples=60_000, seed=78, method="direct")
        expected = 1 - 2 * volumetric_rate_q(MC_PARAMS) * 1e-6 * t / MC_CLOUD.effective_volume
        assert abs(r.value - expected) <= 3 * r.stderr

    def test_matches_exact_quadrature_oracle(self):
        t, n_p = 0.3, 10
        r = readout_expectation_mc(t, n_p, MC_PARAMS, samples=100_000, seed=5)
        oracle = lda_readout_oracle(t, n_p, MC_PARAMS)
        assert abs(r.value - oracle) <= 3 * r.stderr

    def test_many_controls_exponential_decay(self):
        t, n_p = 0.3, 10
        gamma_us = decay_rate_gamma(MC_PARAMS) * 1e-6
        r = readout_expectation_mc(t, n_p, MC_PARAMS, samples=30_000, seed=77)
        assert abs(r.value - math.exp(-n_p * gamma_us * t)) <= 3 * r.stderr

    def test_log_slope_versus_control_number(self):
        t = 0.1
        gamma_us = decay_rate_gamma(MC_PARAMS) * 1e-6
        ns, logs, ses = [], [], []
        for n_p in (2, 6, 10, 16):
            r = readout_expectation_mc(t, n_p, MC_PARAMS, samples=20_000, seed=200 + n_p)
            ns.append(n_p)
            logs.append(math.log(r.value))
            ses.append(r.stderr / r.value)
        ns = np.array(ns, dtype=float)
        w = np.diag(1.0 / np.array(ses) ** 2)
        a = np.vstack([ns, np.ones_like(ns)]).T
        cov = np.linalg.inv(a.T @ w @ a)
        slope = (cov @ a.T @ w @ np.array(logs))[0]
        slope_se = math.sqrt(cov[0, 0])
        assert abs(slope + gamma_us * t) <= max(3 * slope_se, 0.01 * gamma_us * t)

    def test_stderr_scales_as_inverse_sqrt_samples(self):
        r1 = readout_expectation_mc(0.3, 1, MC_PARAMS, samples=50_000, seed=9)
        r2 = readout_expectation_mc(0.3, 1, MC_PARAMS, samples=100_000, seed=9)
        ratio = r2.stderr / r1.stderr
        assert abs(ratio - 1 / math.sqrt(2)) < 0.2 / math.sqrt(2)

    def test_deterministic_under_seed(self):
        a = readout_expectation_mc(0.2, 2, MC_PARAMS, samples=20_000, seed=42)
        b = readout_expectation_mc(0.2, 2, MC_PARAMS, samples=20_000, seed=42)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            readout_expectation_mc(0.1, 1, PARAMS, samples=20_000)  # box cloud
        with pytest.raises(ValueError):
            readout_expectation_mc(0.1, 1, MC_PARAMS, samples=100)
        with pytest.raises(ValueError):
            readout_expectation_mc(0.1, 1, MC_PARAMS, samples=20_000, method="exact")
        with pytest.raises(ValueError):
            readout_expectation_mc(-0.1, 1, MC_PARAMS, samples=20_000)

    @pytest.mark.parametrize("t,n_p", [(0.0, 3), (0.3, 0)])
    def test_unknown_method_rejected_without_decay(self, t, n_p):
        # t = 0 or n_p = 0 returns 1 without sampling; the method is
        # checked before that
        with pytest.raises(ValueError, match="method"):
            readout_expectation_mc(t, n_p, MC_PARAMS, samples=10_000, method="bogus")

    def test_local_density_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            readout_expectation_mc(0.3, 10, MC_PARAMS, samples=10_000, seed=5, method="lda")

    def test_default_method_is_direct(self):
        default = readout_expectation_mc(0.025, 23, MC_PARAMS, samples=20_000, seed=8)
        direct = readout_expectation_mc(
            0.025, 23, MC_PARAMS, samples=20_000, seed=8, method="direct"
        )
        assert default == direct


def per_factor_readout(t, n_p, params, samples, seed):
    """The read-out as one complex exponential per control, multiplied up.

    Reference for :func:`readout_expectation_mc`: the same sharded streams
    (``dipolar.MC_SHARD_SIZE`` samples per shard, read at call time), drawn
    with ``rng.normal``, the pair phase through cos(vartheta) = z / r, and
    the estimate as the real part of the product of
    exp(-i phi) over n_p controls and exp(+i phi) over n_p more.
    """
    sigma = np.asarray(params.cloud.dimensions)
    c3_int = params.c3_over_hbar * 1e-6

    def pair_phase(delta):
        r2 = np.sum(delta**2, axis=-1)
        r = np.sqrt(r2)
        cos_t = delta[..., 2] / r
        f = (3.0 * cos_t**2 - 1.0) / 2.0
        return t * c3_int * f / (r2 * r)

    total = total_sq = 0.0
    remaining = samples
    shard_size = dipolar.MC_SHARD_SIZE
    for child in np.random.SeedSequence(seed).spawn(math.ceil(samples / shard_size)):
        n = min(shard_size, remaining)
        remaining -= n
        rng = np.random.default_rng(child)
        x = rng.normal(scale=sigma, size=(n, 3))
        w = np.ones(n, dtype=complex)
        for sign in (-1j,) * n_p + (1j,) * n_p:
            y = rng.normal(scale=sigma, size=(n, 3))
            w *= np.exp(sign * pair_phase(x - y))
        est = w.real
        total += float(np.sum(est))
        total_sq += float(np.sum(est**2))
    mean = total / samples
    return mean, math.sqrt(max(total_sq / samples - mean**2, 0.0) / samples)


class TestPhaseSumReadout:
    ORACLE_PARAMS = DipolarParams.from_tabulated(
        TABULATED_C3_GHZ_UM3, CloudGeometry("gaussian", (20.0, 20.0, 20.0))
    )
    ANISOTROPIC_PARAMS = DipolarParams.from_tabulated(
        TABULATED_C3_GHZ_UM3, CloudGeometry("gaussian", (10.0, 15.0, 40.0))
    )
    # (t in us, n_p, seed, cloud): the oracle workload's range, a dilute
    # cloud and an anisotropic one
    CASES = [
        (0.02, 16, 11, "oracle"),
        (0.03, 40, 12, "oracle"),
        (0.025, 23, 13, "oracle"),
        (0.3, 1, 14, "mc"),
        (0.1, 6, 15, "mc"),
        (0.5, 3, 16, "anisotropic"),
    ]

    def params(self, cloud):
        return {"oracle": self.ORACLE_PARAMS, "mc": MC_PARAMS,
                "anisotropic": self.ANISOTROPIC_PARAMS}[cloud]

    @pytest.mark.parametrize("t,n_p,seed,cloud", CASES)
    def test_direct_matches_per_factor_product(self, t, n_p, seed, cloud, monkeypatch):
        # 4096-sample shards split the 10 000 samples into three
        monkeypatch.setattr(dipolar, "MC_SHARD_SIZE", 4096)
        params = self.params(cloud)
        r = readout_expectation_mc(t, n_p, params, samples=10_000, seed=seed, method="direct")
        value, stderr = per_factor_readout(t, n_p, params, 10_000, seed)
        assert abs(r.value - value) <= 1e-12
        assert abs(r.stderr - stderr) <= 1e-12

class TestShardPool:
    PARAMS = TestPhaseSumReadout.ORACLE_PARAMS

    @staticmethod
    def force_workers(monkeypatch, workers):
        """Make the pool take ``workers`` workers; returns the sizes it was built with."""
        sizes = []
        pool = dipolar.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(dipolar.os, "cpu_count", lambda: workers)
        monkeypatch.setattr(dipolar, "ThreadPoolExecutor", recording_pool)
        return sizes

    def test_bit_identical_for_any_worker_count(self, monkeypatch):
        # two full shards and a short third one
        samples = 2 * dipolar.MC_SHARD_SIZE + 3616
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make the workers interleave often
        try:
            for workers in (1, 2, 3):
                sizes = self.force_workers(monkeypatch, workers)
                results.append(readout_expectation_mc(
                    0.025, 23, self.PARAMS, samples=samples, seed=21, method="direct"
                ))
                assert sizes == [workers]
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]

    def test_pool_capped_at_shard_count(self, monkeypatch):
        sizes = self.force_workers(monkeypatch, 64)
        readout_expectation_mc(0.025, 16, self.PARAMS, samples=10_000, seed=3, method="direct")
        assert sizes == [math.ceil(10_000 / dipolar.MC_SHARD_SIZE)]

    def test_no_thread_outlives_the_call(self, monkeypatch):
        self.force_workers(monkeypatch, 2)
        before = threading.enumerate()
        readout_expectation_mc(0.025, 16, self.PARAMS, samples=20_000, seed=4, method="direct")
        assert threading.enumerate() == before

    def test_shard_exception_reaches_caller(self, monkeypatch):
        self.force_workers(monkeypatch, 2)

        def failing_phase(*args):
            raise FloatingPointError("pair phase failed")

        monkeypatch.setattr(dipolar, "_pair_phase", failing_phase)
        before = threading.enumerate()
        with pytest.raises(FloatingPointError, match="pair phase failed"):
            readout_expectation_mc(0.025, 16, self.PARAMS, samples=20_000, seed=5, method="direct")
        assert threading.enumerate() == before


class TestRecordedReadout:
    """The read-out's value and stderr, bit for bit, as recorded.

    The hex strings are ``float.hex`` of recorded results.  20 000 samples
    make two full shards and a short one.  A rewrite of the pair phase or
    of the shard must keep every floating-point operation in its order:
    one reordered operation moves the last bits and fails here.
    """

    # (t in us, n_p, seed, cloud, value, stderr)
    CASES = [
        (0.02, 16, 31, "oracle", "0x1.cfaa3a9882756p-1", "0x1.1a1ddd1adec80p-9"),
        (0.03, 40, 32, "oracle", "0x1.670bc0df2f131p-1", "0x1.e5c5042d1fd88p-9"),
        (0.5, 3, 33, "anisotropic", "0x1.3d9ee6d24567dp-1", "0x1.0c3cc8bad3b12p-8"),
    ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t,n_p,seed,cloud,value,stderr", CASES)
    def test_value_and_stderr_are_recorded_bits(
        self, t, n_p, seed, cloud, value, stderr, workers, monkeypatch
    ):
        sizes = TestShardPool.force_workers(monkeypatch, workers)
        params = TestPhaseSumReadout().params(cloud)
        r = readout_expectation_mc(t, n_p, params, samples=20_000, seed=seed, method="direct")
        assert sizes == [workers]
        assert (r.value.hex(), r.stderr.hex()) == (value, stderr)
