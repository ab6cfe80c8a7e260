import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from rydsense import cli, error_prevention
from rydsense.error_prevention import (
    enhancement_curve,
    error_prevention_channel,
    expectation_curves,
    fi_with_prevention,
    fi_without_prevention,
    optimality_bound,
    rotated_state,
)
from rydsense.errors import NumericalError
from rydsense.fockspace import (
    FockBasis,
    apply_channel,
    classical_fi,
    detection_loss_channel,
    measure,
    number_povm,
)

from helpers import (
    dense_density,
    dense_kraus_sums,
    dense_operators,
    expectation_oracle,
    lossy_counts,
    populations,
    rabi_rotation,
)

GRID = np.linspace(0.07, math.pi - 0.07, 50)
REFERENCE = Path(__file__).resolve().parent / "reference"


class TestLossyDetection:
    def test_outcomes_carry_cited_weights(self):
        # the six outcome weights of the two-excitation sector:
        # eta^2, 2 eta (1 - eta), eta (1 - eta) and (1 - eta)^2
        eta = 0.37
        basis = FockBasis(2)
        kept, one_lost, both_lost = eta**2, eta * (1 - eta), (1 - eta) ** 2
        expected = {
            (2, 0): {(2, 0): kept, (1, 0): 2 * one_lost, (0, 0): both_lost},
            (1, 1): {(1, 1): kept, (1, 0): one_lost, (0, 1): one_lost, (0, 0): both_lost},
            (0, 2): {(0, 2): kept, (0, 1): 2 * one_lost, (0, 0): both_lost},
        }
        for occ, weights in expected.items():
            dist = lossy_counts(basis.state(*occ).to_density(), eta)
            for label in basis.occupations:
                assert dist.get(label) == pytest.approx(weights.get(label, 0.0), abs=1e-12)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            detection_loss_channel(FockBasis(2), -0.1)


class TestErrorPreventionChannel:
    def test_mixed_state_vacuum_weight(self):
        # the transferred |1,1> component carries weight sin^2(theta)/2
        basis = FockBasis(2)
        channel = error_prevention_channel()
        for theta in (math.pi / 2, 0.9):
            rho = apply_channel(rotated_state(theta).to_density(), channel)
            i00 = basis.index_of(0, 0)
            assert rho.populations[i00] == pytest.approx(
                0.5 * math.sin(theta) ** 2, abs=1e-12
            )

    def test_preserves_zero_two(self):
        basis = FockBasis(2)
        channel = error_prevention_channel()
        rho = dense_density(basis.state(0, 2))
        assert np.allclose(dense_kraus_sums(channel, rho)[0], rho)
        rho = basis.state(0, 2).to_density()
        assert np.allclose(apply_channel(rho, channel).populations, rho.populations)

    def test_idempotent_as_channel(self, rng):
        basis = FockBasis(2)
        channel = error_prevention_channel()
        for _ in range(5):
            mat = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(
                size=(basis.dim, basis.dim)
            )
            mat = mat @ mat.conj().T
            rho = mat / np.trace(mat)
            dense_once = dense_kraus_sums(channel, rho)[0]
            dense_twice = dense_kraus_sums(channel, dense_once)[0]
            assert np.max(np.abs(dense_twice - dense_once)) < 1e-12
            once = apply_channel(populations(basis, rho), channel)
            assert np.max(np.abs(once.populations - np.diagonal(dense_once).real)) <= 1e-15
            twice = apply_channel(once, channel)
            assert np.max(np.abs(twice.populations - once.populations)) < 1e-12

    def test_trace_preserving(self):
        assert error_prevention_channel().completeness_defect < 1e-12

    def test_operators_are_the_cited_pair(self):
        # K0 = |0,0><1,1| and K1 = 1 - |1,1><1,1|, exactly
        basis = FockBasis(2)
        i00, i11 = basis.index_of(0, 0), basis.index_of(1, 1)
        k0 = np.zeros((basis.dim, basis.dim))
        k0[i00, i11] = 1.0
        k1 = np.eye(basis.dim)
        k1[i11, i11] = 0.0
        channel = error_prevention_channel()
        got = dense_operators(channel)
        assert len(got) == 2
        assert np.array_equal(got[0], k0) and np.array_equal(got[1], k1)
        assert channel.completeness_defect == 0.0


class TestFiWithoutPrevention:
    def test_angle_independent_value_two_eta(self):
        eta = 0.3
        values = np.array([fi_without_prevention(eta, t) for t in GRID])
        assert np.max(np.abs(values - 2 * eta)) < 1e-8
        assert values.max() - values.min() < 1e-8

    def test_half_efficiency_reference_point(self):
        assert fi_without_prevention(0.5, 1.2) == pytest.approx(1.0, abs=1e-8)

    def test_lossless_reaches_qfi(self):
        assert fi_without_prevention(1.0, math.pi / 2) == pytest.approx(2.0, abs=1e-8)

    def test_degenerate_angles_return_limit(self):
        for theta in (0.0, math.pi):
            assert fi_without_prevention(0.3, theta) == pytest.approx(0.6, abs=1e-8)

    def test_matches_manual_measure_pipeline(self):
        # oracle equivalence: assemble the same FI from the raw operations
        eta, theta = 0.41, 1.37

        def family(t):
            return lossy_counts(rotated_state(t).to_density(), eta)

        manual = classical_fi(family, theta)
        assert fi_without_prevention(eta, theta) == pytest.approx(manual, abs=1e-6)

    def test_eta_zero_rejected(self):
        with pytest.raises(ValueError):
            fi_without_prevention(0.0, 1.0)


class TestFiWithPrevention:
    @pytest.mark.parametrize(
        "eta,expected",
        [(0.02, 0.0792), (0.5, 1.5), (1.0, 2.0)],
    )
    def test_peak_value(self, eta, expected):
        assert fi_with_prevention(eta, math.pi / 2) == pytest.approx(expected, abs=1e-8)

    def test_bounded_with_equality_at_odd_half_pi(self):
        eta = 0.37
        bound = 2 * eta * (2 - eta)
        values = [fi_with_prevention(eta, t) for t in GRID]
        assert max(values) <= bound + 1e-8
        for theta in (math.pi / 2, 3 * math.pi / 2):
            assert fi_with_prevention(eta, theta) == pytest.approx(bound, abs=1e-8)

    def test_probabilities_sum_to_one_no_postselection(self):
        channel = error_prevention_channel()
        for theta in GRID[::7]:
            rho = apply_channel(rotated_state(theta).to_density(), channel)
            dist = lossy_counts(rho, 0.23)
            assert len(dist.probabilities) == 6
            assert dist.total() == pytest.approx(1.0, abs=1e-10)

    def test_wrong_channel_order_gives_no_advantage(self):
        # loss first, then the operation: never beats 2 eta at the peak angle
        basis = FockBasis(2)
        channel = error_prevention_channel()
        for eta in (0.02, 0.3, 0.7):
            loss = detection_loss_channel(basis, eta)

            def family(t):
                rho = rotated_state(t).to_density()
                return apply_channel(apply_channel(rho, loss), channel)

            povm = number_povm(basis)
            fi = classical_fi(lambda t: measure(family(t), povm), math.pi / 2)
            assert fi <= 2 * eta + 1e-8


class TestCurves:
    def test_enhancement_ratio_is_two_minus_eta(self):
        for eta, expected in ((1.0, 1.0), (1e-6, 2.0), (0.02, 1.98)):
            without, with_op = enhancement_curve(eta, [math.pi / 2])
            assert with_op[0] / without[0] == pytest.approx(expected, abs=1e-5)

    def test_curves_are_the_closed_forms_in_the_grid_shape(self):
        # any angles in any order: negative, descending, beyond pi
        thetas = np.array([[2.0, 1.0, -0.5], [-1.0, 4.0, math.pi / 2]])
        without, with_op = enhancement_curve(0.3, thetas)
        assert without.shape == with_op.shape == thetas.shape
        assert np.array_equal(without, fi_without_prevention(0.3, thetas))
        assert np.array_equal(with_op, fi_with_prevention(0.3, thetas))
        assert with_op.max() <= optimality_bound(0.3)

    def test_detected_means_at_reference_angles(self):
        eta = 0.4
        nd_with, nd_without = expectation_curves(eta, [0.0, math.pi / 2])
        assert nd_with[0] == pytest.approx(2 * eta, abs=1e-12)
        assert nd_without[0] == pytest.approx(2 * eta, abs=1e-12)
        nd_with, _ = expectation_curves(1.0, [math.pi / 2])
        assert nd_with[0] == pytest.approx(0.5, abs=1e-12)

    def test_matrix_oracle_agrees(self):
        # mode d at theta, and mode p at theta as mode d at pi - theta
        thetas = np.array([0.0, 0.6, math.pi / 2, 2.4])
        eta = 0.27
        nd_with, nd_without = expectation_curves(eta, thetas)
        np_with, np_without = expectation_curves(eta, math.pi - thetas)
        for i, theta in enumerate(thetas):
            curves = (nd_with[i], np_with[i], nd_without[i], np_without[i])
            for value, expected in zip(curves, expectation_oracle(eta, theta)):
                assert value == pytest.approx(expected, abs=1e-10)


class TestInputChecks:
    def test_eta_and_grid_validation(self):
        with pytest.raises(ValueError, match="eta must lie"):
            enhancement_curve(1.2, (0.1, 0.2))
        with pytest.raises(ValueError, match="must not be empty"):
            enhancement_curve(0.5, ())

    def test_fi_above_the_bound_raises(self, monkeypatch):
        def above(eta, theta):
            return fi_with_prevention(eta, theta) + 1e-5

        monkeypatch.setattr(error_prevention, "fi_with_prevention", above)
        with pytest.raises(NumericalError, match=r"leaves \[0, 1\.02\]"):
            enhancement_curve(0.3, (1.0, math.pi / 2))

    def test_eta_zero_rejected(self):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\], got 0.0"):
            enhancement_curve(0.0, (0.1, 0.2))

    def test_rotation_starts_from_two_zero(self):
        expected = FockBasis(2).state(2, 0).amplitudes
        np.testing.assert_allclose(rotated_state(0.0).amplitudes, expected, rtol=0, atol=1e-15)


class TestRotatedPair:
    # 0, pi, negative angles and angles beyond 2 pi
    ANGLES = [0.0, 0.7, math.pi / 2, math.pi, -0.3, -math.pi, -2.5, 2 * math.pi,
              7.0, -7.5, 3 * math.pi, 12.5, -4 * math.pi, 20.0]

    @pytest.mark.parametrize("theta", ANGLES)
    def test_closed_form_equals_dense_rotation(self, theta):
        # the dense reference's eigenvalues carry about 1e-15 of rounding,
        # which its exponential turns into a phase error growing with |theta|
        basis = FockBasis(2)
        dense = rabi_rotation(basis, theta) @ basis.state(2, 0).amplitudes
        gap = np.max(np.abs(rotated_state(theta).amplitudes - dense))
        assert gap <= 1e-15 * max(1.0, abs(theta))

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError, match="theta must be finite"):
            rotated_state(math.inf)

    def test_toy_runs_without_eigendecomposition(self, tmp_path, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        _, with_op = enhancement_curve(0.3, GRID)
        assert with_op.max() <= optimality_bound(0.3)
        # the toy-fi study of the reference outputs, byte for byte
        config = tmp_path / "toy.json"
        config.write_text('{"etas": [0.02, 0.3, 1.0]}')
        output = tmp_path / "toy_fi.csv"
        assert cli.main(["toy-fi", "--config", str(config), "--output", str(output)]) == 0
        assert output.read_bytes() == (REFERENCE / "toy_fi.csv").read_bytes()


def dense_fi(eta, theta, with_prevention):
    """Finite-difference FI of the Kraus pipeline: state, operation, loss, counting."""
    channel = error_prevention_channel()

    def family(t):
        rho = rotated_state(t).to_density()
        if with_prevention:
            rho = apply_channel(rho, channel)
        return lossy_counts(rho, eta)

    return classical_fi(family, theta)


class TestClosedFormFi:
    @pytest.mark.parametrize("eta", [1e-6, 0.02, 0.37, 0.9, 1.0])
    @pytest.mark.parametrize("with_prevention", [False, True])
    def test_matches_dense_pipeline(self, eta, with_prevention):
        # the finite difference leaves about 1e-11 of noise at 0 and pi
        fi = fi_with_prevention if with_prevention else fi_without_prevention
        thetas = np.linspace(0.0, math.pi, 41)
        closed = fi(eta, thetas)
        for theta, value in zip(thetas, closed):
            expected = dense_fi(eta, float(theta), with_prevention)
            assert value == pytest.approx(expected, rel=1e-7, abs=1e-9)

    def test_lossless_limit_at_multiples_of_pi(self):
        # 0/0 in the vacuum term at eta = 1, sin(theta) = 0; the limit gives 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta in (0.0, math.pi):
                assert fi_with_prevention(1.0, theta) == pytest.approx(2.0, abs=1e-12)
            values = fi_with_prevention(1.0, np.array([0.0, math.pi, 2 * math.pi]))
        assert np.allclose(values, 2.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("fi", [fi_with_prevention, fi_without_prevention])
    def test_array_call_matches_scalar_calls(self, fi):
        thetas = np.linspace(0.0, 2 * math.pi, 12).reshape(3, 4)
        values = fi(0.37, thetas)
        assert values.shape == thetas.shape
        for theta, value in zip(thetas.ravel(), values.ravel()):
            scalar = fi(0.37, float(theta))
            assert isinstance(scalar, float)
            assert scalar == value

    def test_enhancement_curve_checks_one_row(self, monkeypatch):
        calls = []

        def counted(family, theta, **kwargs):
            calls.append(theta)
            return classical_fi(family, theta, **kwargs)

        monkeypatch.setattr(error_prevention, "classical_fi", counted)
        _, with_op = enhancement_curve(0.3, GRID)
        assert calls == [GRID[np.argmax(with_op)]]

    def test_cross_check_disagreement_raises(self, monkeypatch):
        def shifted(family, theta, **kwargs):
            return classical_fi(family, theta, **kwargs) * (1.0 + 2e-6)

        monkeypatch.setattr(error_prevention, "classical_fi", shifted)
        with pytest.raises(NumericalError, match="finite-difference"):
            enhancement_curve(0.3, (1.0, math.pi / 2))

    def test_cross_check_passes_where_the_grid_misses_the_peak(self):
        # at multiples of pi the FI with the operation is 0 for eta < 1,
        # and the finite difference leaves about 1e-11 there
        _, with_op = enhancement_curve(0.5, (0.0, math.pi))
        assert with_op.tolist() == pytest.approx([0.0, 0.0], abs=1e-15)
