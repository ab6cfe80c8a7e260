"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line (run
pytest with ``-s`` to see the lines live).  Criteria 6 and 9 assert the
published experimental figures; with the documented count-statistics model
evaluated at the published parameters they do not hold (see the repository
README), so both report a faithful FAIL rather than a loosened green.
"""

import math
import time

import numpy as np
import pytest

from rydsense.dipolar import (
    CloudGeometry,
    DipolarParams,
    decay_rate_gamma,
    excluded_volume_integral,
    volumetric_rate_q,
)
from rydsense.error_prevention import fi_with_prevention, fi_without_prevention
from rydsense.estimation import (
    dipole_moment_si,
    run_estimation,
    sensitivity_from_model,
)
from rydsense.multiparticle import (
    LOSS_AFTER,
    LOSS_BEFORE,
    ProtocolParams,
    count_distribution,
    fisher_information,
    normalized_fi,
    super_rabi_means,
)

from conftest import kraus_pipeline_distribution
from helpers import angular_abs_integral

THETA_GRID_50 = np.linspace(0.08, math.pi - 0.08, 50)


class _Criterion:
    """Times a criterion and prints its one pass/fail line."""

    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        stamp = f"({self.detail + ', ' if self.detail else ''}{self.elapsed:.2f}s)"
        if exc_type is None and self.elapsed < self.budget:
            print(f"[acceptance] criterion {self.number}: PASS {stamp}")
            return False
        reason = f"runtime over {self.budget}s" if exc_type is None else str(exc)
        print(f"[acceptance] criterion {self.number}: FAIL {stamp} {reason}")
        if exc_type is None:
            raise AssertionError(
                f"criterion {self.number} runtime {self.elapsed:.1f}s exceeds "
                f"budget {self.budget}s"
            )
        return False


def test_criterion_01_toy_model_peak_fi():
    with _Criterion(1, 1.0):
        for eta in (0.01, 0.02, 0.1, 0.5, 0.9, 1.0):
            peak = fi_with_prevention(eta, math.pi / 2)
            assert peak == pytest.approx(2 * eta * (2 - eta), abs=1e-8)
        eta = 0.3
        for theta in THETA_GRID_50:
            assert fi_without_prevention(eta, theta) == pytest.approx(
                2 * eta, abs=1e-8
            )


def test_criterion_02_optimality_bound():
    with _Criterion(2, 1.0):
        for eta in (0.02, 0.37, 0.8):
            bound = 2 * eta * (2 - eta)
            for theta in THETA_GRID_50[::2]:
                assert fi_with_prevention(eta, theta) <= bound + 1e-8


def test_criterion_03_dipolar_linearity_and_angular_identity():
    cloud = CloudGeometry("box", (80.0, 80.0, 4000.0))
    params = DipolarParams.from_tabulated(3.709, cloud)
    with _Criterion(3, 30.0) as crit:
        q_closed = volumetric_rate_q(params)
        ratios = []
        for t in np.logspace(-1, 1, 6):
            a = excluded_volume_integral(t, params)
            ratios.append(a.real / t * 1e6)
        for ratio in ratios:
            assert abs(ratio - q_closed) / q_closed < 5e-3
        assert (max(ratios) - min(ratios)) / q_closed < 5e-3
        exact = 8 * math.pi / (3 * math.sqrt(3))
        assert abs(angular_abs_integral() - exact) < 1e-6
        crit.detail = (
            f"Q within {max(abs(r - q_closed) / q_closed for r in ratios):.1e}"
        )


def test_criterion_04_decay_rate_formula():
    with _Criterion(4, 1.0) as crit:
        cloud = CloudGeometry("box", (80.0, 80.0, 4000.0))
        params = DipolarParams.from_tabulated(3.709, cloud)
        gamma = decay_rate_gamma(params)
        assert gamma == pytest.approx(4.61e3, rel=1e-3)
        assert gamma == pytest.approx(
            2 * volumetric_rate_q(params) / cloud.effective_volume, rel=1e-12
        )
        # comparison with the published 1.9(5) kHz estimate is order of
        # magnitude only (kHz scale), volume/2pi convention being ambiguous
        assert 1e3 < gamma < 1e4
        crit.detail = f"gamma={gamma:.1f}/s"


def test_criterion_05_oracle_equivalence_grid():
    with _Criterion(5, 120.0) as crit:
        worst = 0.0
        for n0 in (0.5, 1.0, 2.0):
            for gamma_tau in (0.0, 0.5, 2.0):
                for theta in (0.0, math.pi / 4, math.pi / 2, math.pi):
                    params = ProtocolParams(n0, 0.3, gamma_tau)
                    analytic = count_distribution(params, theta)
                    oracle = kraus_pipeline_distribution(n0, 0.3, gamma_tau, theta)
                    worst = max(worst, analytic.tv_distance(oracle))
        assert worst < 1e-6
        crit.detail = f"36 points, worst TV {worst:.1e}"


def test_criterion_06_experimental_fi_reproduction():
    # published value 3.3(3); +-20% window [2.64, 3.96]
    with _Criterion(6, 10.0) as crit:
        grid = np.linspace(0.05, math.pi - 0.01, 160)
        best = 0.0
        for gamma_tau in (0.028, 0.034, 0.04):
            params = ProtocolParams(55.0, 0.02, gamma_tau, loss_order=LOSS_AFTER)
            best = max(best, max(normalized_fi(params, t) for t in grid))
        crit.detail = f"max normalized FI {best:.2f}"
        assert 2.64 <= best <= 3.96, (
            f"max normalized FI {best:.3f} outside [2.64, 3.96]; the documented "
            "count-statistics model at the published parameters peaks near 1 "
            "(it enters the window only for gamma_tau ~ 0.135-0.215 at n0 = 55)"
        )


def test_criterion_07_loss_order_contrast():
    with _Criterion(7, 10.0) as crit:
        thetas = np.linspace(0.3, 2.8, 15)
        gamma_grid = (0.0, 0.04, 0.08, 0.15, 0.3)
        for gamma_tau in gamma_grid:
            params = ProtocolParams(55.0, 0.02, gamma_tau, loss_order=LOSS_BEFORE)
            for theta in thetas:
                assert normalized_fi(params, theta) <= 1.0 + 1e-6
        peaks = []
        for gamma_tau in gamma_grid:
            params = ProtocolParams(55.0, 0.02, gamma_tau, loss_order=LOSS_AFTER)
            peaks.append(max(normalized_fi(params, t) for t in thetas))
        assert peaks[0] <= 1.0 + 1e-6
        assert max(peaks) > 1.0  # exceeds unity above a decay threshold
        for theta in (0.4, 0.5, 0.6):
            values = [
                fisher_information(
                    ProtocolParams(55.0, 0.02, g, loss_order=LOSS_AFTER), theta
                )
                for g in gamma_grid
            ]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        crit.detail = "peaks " + "/".join(f"{p:.2f}" for p in peaks)


def test_criterion_08_ml_saturation():
    with _Criterion(8, 120.0) as crit:
        params = ProtocolParams(55.0, 0.02, 0.03, loss_order=LOSS_AFTER)
        thetas = np.linspace(0.5, 2.6, 10)
        hits = 0
        for i, theta in enumerate(thetas):
            result = run_estimation(params, float(theta), 10_000, 100, seed=100 + i)
            fi = fisher_information(params, float(theta))
            hits += abs(result.fi_per_shot - fi) <= 3 * result.fi_error
        crit.detail = f"{hits}/{len(thetas)} within 3 bootstrap sigma"
        assert hits >= 0.8 * len(thetas)


def test_criterion_09_sensitivity_figures():
    # published: 44 uV/cm and 39 nV/cm/sqrt(Hz), +-15% windows
    with _Criterion(9, 10.0) as crit:
        params = ProtocolParams(55.0, 0.02, 0.034, loss_order=LOSS_AFTER)
        report = sensitivity_from_model(
            params,
            rabi_frequency=2 * math.pi * 0.66e6,
            dipole_moment=dipole_moment_si(1950.0),
            grid_points=512,
            fisher_override=3.6,
        )
        delta_e_uv = report.delta_E * 1e6
        s_nv = report.sensitivity_S * 1e9
        crit.detail = f"dE={delta_e_uv:.1f} uV/cm, S={s_nv:.1f} nV/cm/sqrtHz"
        assert 37.0 <= delta_e_uv <= 51.0, (
            f"Delta E {delta_e_uv:.1f} uV/cm outside [37, 51]; the model's "
            f"FI-optimal angle is {report.theta_star:.2f} rad, not near pi "
            "as the published pulse time implies"
        )
        assert 33.0 <= s_nv <= 45.0


def test_criterion_10_super_rabi_steepening():
    with _Criterion(10, 1.0):
        params = ProtocolParams(55.0, 0.02, 0.034, loss_order=LOSS_AFTER)
        reference = ProtocolParams(55.0, 0.02, 0.0, loss_order=LOSS_AFTER)
        top = super_rabi_means(params, 0.0)[0]

        def half_crossing(par):
            thetas = np.linspace(1e-3, math.pi - 1e-3, 4001)
            values = np.array([super_rabi_means(par, t)[0] for t in thetas])
            return thetas[np.argmax(values < top / 2)]

        assert half_crossing(params) < half_crossing(reference)
        for theta in np.linspace(0.05, math.pi - 0.05, 30):
            assert sum(super_rabi_means(params, theta)) < 0.02 * 55.0
