import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from rydsense import fockspace
from rydsense.fockspace import (
    CountDistribution,
    DensityOperator,
    FockBasis,
    KrausChannel,
    PovmSet,
    apply_channel,
    classical_fi,
    coherent_state,
    detection_loss_channel,
    lossy_number_povm,
    measure,
    mode_operator,
    number_povm,
    rabi_rotation,
)

from helpers import (
    creation_overflow_norm,
    dense_kraus_sums,
    povm_fi,
    qfi,
    random_density,
    random_diagonal_povm,
    random_triples,
    tracemalloc_peak,
)


def identity_triple(basis):
    ids = np.arange(basis.dim)
    return (ids, ids, np.ones(basis.dim))


def toy_error_prevention(basis):
    """Kraus pair transferring |1,1> to the vacuum, built inline."""
    i11 = basis.index_of(1, 1)
    kept = np.delete(np.arange(basis.dim), i11)
    k0 = ([basis.index_of(0, 0)], [i11], [1.0])
    return KrausChannel(basis, (k0, (kept, kept, np.ones(kept.size))))


def rotated_pair_family(basis):
    psi0 = basis.state(2, 0).amplitudes

    def family(theta):
        u = rabi_rotation(basis, theta)
        vec = u @ psi0
        return DensityOperator(basis, np.outer(vec, vec.conj()))

    return family


class TestFockBasis:
    @pytest.mark.parametrize("n_max", range(7))
    def test_dimension_formula(self, n_max):
        basis = FockBasis(n_max)
        assert basis.dim == (n_max + 1) * (n_max + 2) // 2

    @given(st.integers(min_value=0, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_index_roundtrip_bijection(self, n_max):
        basis = FockBasis(n_max)
        seen = set()
        for i in range(basis.dim):
            occ = basis.occupation(i)
            assert basis.index_of(*occ) == i
            seen.add(occ)
        assert len(seen) == basis.dim
        assert all(nd + np_ <= n_max for nd, np_ in seen)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            FockBasis(-1)
        basis = FockBasis(2)
        with pytest.raises(ValueError):
            basis.index_of(2, 1)


class TestModeOperators:
    def test_number_eigenvalue(self):
        basis = FockBasis(2)
        n_d = mode_operator(basis, "d", "number")
        vec = basis.state(2, 0).amplitudes
        assert np.allclose(n_d @ vec, 2.0 * vec)

    def test_vacuum_annihilation(self):
        basis = FockBasis(3)
        a_d = mode_operator(basis, "d", "annihilate")
        for m in range(basis.n_max + 1):
            assert np.allclose(a_d @ basis.state(0, m).amplitudes, 0.0)

    def test_create_annihilate_is_number(self):
        basis = FockBasis(3)
        a = mode_operator(basis, "d", "annihilate")
        adag = mode_operator(basis, "d", "create")
        vec = basis.state(1, 1).amplitudes
        assert np.allclose(adag @ a @ vec, 1.0 * vec)

    def test_creation_truncation_drops_overflow(self):
        basis = FockBasis(2)
        adag = mode_operator(basis, "d", "create")
        top = basis.state(1, 1)  # total excitations already at n_max
        assert np.allclose(adag @ top.amplitudes, 0.0)
        assert creation_overflow_norm(basis, "d", top) == pytest.approx(math.sqrt(2.0))

    def test_invalid_mode_kind(self):
        basis = FockBasis(1)
        with pytest.raises(ValueError):
            mode_operator(basis, "x", "number")
        with pytest.raises(ValueError):
            mode_operator(basis, "d", "destroy")


class TestRabiRotation:
    def test_zero_angle_is_identity(self):
        basis = FockBasis(2)
        assert np.allclose(rabi_rotation(basis, 0.0), np.eye(basis.dim))

    def test_two_excitation_amplitudes_at_half_pi(self):
        # cos^2(pi/4) |2,0> + (i/sqrt2) sin(pi/2) |1,1> - sin^2(pi/4) |0,2>
        basis = FockBasis(2)
        vec = rabi_rotation(basis, math.pi / 2) @ basis.state(2, 0).amplitudes
        assert vec[basis.index_of(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert vec[basis.index_of(1, 1)] == pytest.approx(1j / math.sqrt(2), abs=1e-12)
        assert vec[basis.index_of(0, 2)] == pytest.approx(-0.5, abs=1e-12)

    def test_general_angle_amplitudes(self):
        basis = FockBasis(2)
        theta = 0.83
        vec = rabi_rotation(basis, theta) @ basis.state(2, 0).amplitudes
        assert vec[basis.index_of(2, 0)] == pytest.approx(
            math.cos(theta / 2) ** 2, abs=1e-12
        )
        assert vec[basis.index_of(1, 1)] == pytest.approx(
            1j * math.sin(theta) / math.sqrt(2), abs=1e-12
        )
        assert vec[basis.index_of(0, 2)] == pytest.approx(
            -math.sin(theta / 2) ** 2, abs=1e-12
        )

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=25, deadline=None)
    def test_unitary_and_inverse(self, theta):
        basis = FockBasis(3)
        u = rabi_rotation(basis, theta)
        eye = np.eye(basis.dim)
        assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-10
        assert np.max(np.abs(rabi_rotation(basis, -theta) @ u - eye)) < 1e-10

    def test_conserves_total_excitation(self, rng):
        basis = FockBasis(4)
        total = mode_operator(basis, "d", "number") + mode_operator(basis, "p", "number")
        vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        vec /= np.linalg.norm(vec)
        before = vec.conj() @ total @ vec
        for theta in (0.3, 1.7, 2.9):
            rotated = rabi_rotation(basis, theta) @ vec
            after = rotated.conj() @ total @ rotated
            assert abs(after - before) < 1e-10

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            rabi_rotation(FockBasis(1), math.nan)


class TestApplyChannel:
    def test_identity_channel(self, rng):
        basis = FockBasis(2)
        ident = KrausChannel(basis, (identity_triple(basis),))
        mat = rng.normal(size=(basis.dim, basis.dim))
        mat = mat @ mat.T
        mat = mat / np.trace(mat)
        rho = DensityOperator(basis, mat.astype(complex))
        out = apply_channel(rho, ident)
        assert np.allclose(out.matrix, rho.matrix)

    def test_error_prevention_transfers_one_one(self):
        basis = FockBasis(2)
        channel = toy_error_prevention(basis)
        out = apply_channel(basis.state(1, 1).to_density(), channel)
        assert np.allclose(out.matrix, basis.state(0, 0).to_density().matrix)

    def test_error_prevention_preserves_two_zero(self):
        basis = FockBasis(2)
        channel = toy_error_prevention(basis)
        rho = basis.state(2, 0).to_density()
        assert np.allclose(apply_channel(rho, channel).matrix, rho.matrix)

    def test_dimension_mismatch(self):
        rho = FockBasis(2).state(0, 0).to_density()
        channel = KrausChannel(FockBasis(3), (identity_triple(FockBasis(3)),))
        with pytest.raises(ValueError):
            apply_channel(rho, channel)

    def test_trace_preserved_for_random_channel(self, rng):
        basis = FockBasis(5)
        channel = KrausChannel(basis, random_triples(rng, basis.dim, 4, trace_preserving=True))
        rho = random_density(rng, basis.dim)
        reference, defect = dense_kraus_sums(channel, rho)
        out = apply_channel(DensityOperator(basis, rho), channel)
        assert np.max(np.abs(out.matrix - reference)) < 1e-14
        assert abs(out.trace() - 1.0) < 1e-14
        assert channel.completeness_defect < 1e-14 and defect < 1e-14


class TestSupportRestriction:
    @pytest.mark.parametrize("trace_preserving", [False, True])
    def test_apply_channel_and_defect_match_dense_sums(self, rng, trace_preserving):
        basis = FockBasis(5)
        d = basis.dim
        for _ in range(5):
            ops = random_triples(rng, d, 7, trace_preserving)
            channel = KrausChannel(basis, ops, trace_preserving=trace_preserving)
            rho = random_density(rng, d)
            reference, defect = dense_kraus_sums(channel, rho)
            out = apply_channel(DensityOperator(basis, rho), channel)
            assert np.max(np.abs(out.matrix - reference)) < 1e-14
            assert abs(channel.completeness_defect - defect) < 1e-14

    def test_measure_matches_dense_trace(self, rng):
        basis = FockBasis(5)
        d = basis.dim
        rows = random_diagonal_povm(rng, d, 5)
        povm = PovmSet(basis, rows, tuple(range(len(rows))))
        rho = DensityOperator(basis, random_density(rng, d))
        dist = measure(rho, povm)
        for label, m in zip(povm.labels, povm.elements):
            assert abs(dist.get(label) - np.trace(rho.matrix @ np.diag(m)).real) < 1e-14

    def test_diagonal_elements_validated(self):
        basis = FockBasis(1)
        ones = np.ones(basis.dim)
        negative = np.array([0.0, -0.1, 0.0])
        with pytest.raises(ValueError, match="positive semidefinite"):
            PovmSet(basis, (negative, ones - negative), ("a", "b"))
        with pytest.raises(ValueError, match="Hermitian"):
            PovmSet(basis, (np.array([0.5, 0.5j, 0.0]), ones), ("a", "b"))
        with pytest.raises(ValueError, match="identity"):
            PovmSet(basis, (0.5 * ones,), ("a",))
        with pytest.raises(ValueError, match="shape"):
            PovmSet(basis, (np.ones(basis.dim + 1),), ("a",))
        with pytest.raises(ValueError, match="shape"):
            PovmSet(basis, ones, ("a",))  # 1-D elements
        with pytest.raises(ValueError, match="shape"):
            PovmSet(basis, np.eye(basis.dim)[None], ("a",))  # a dense element
        with pytest.raises(ValueError):  # one row of the wrong width
            PovmSet(basis, (0.5 * ones, 0.5 * np.ones(basis.dim + 1)), ("a", "b"))
        with pytest.raises(ValueError, match="one label"):
            PovmSet(basis, (ones,), ("a", "b"))


def lowering(dest, src, coeffs):
    return (np.array(dest), np.array(src), np.array(coeffs, dtype=complex))


class TestLoweringForm:
    def test_repeated_index_rejected(self):
        basis = FockBasis(2)
        with pytest.raises(ValueError, match="repeats"):
            KrausChannel(basis, (lowering([0, 0], [1, 2], [0.5, 0.5]),), trace_preserving=False)
        with pytest.raises(ValueError, match="repeats"):
            KrausChannel(basis, (lowering([0, 1], [2, 2], [0.5, 0.5]),), trace_preserving=False)

    def test_repeat_in_last_operator_rejected(self):
        basis = FockBasis(2)
        ops = (lowering([0, 1], [1, 2], [0.5, 0.5]), lowering([3, 4], [3, 4], [0.5, 0.5]))
        for repeat in (lowering([5, 5], [0, 5], [0.5, 0.5]), lowering([0, 5], [5, 5], [0.5, 0.5])):
            with pytest.raises(ValueError, match="repeats"):
                KrausChannel(basis, (*ops, repeat), trace_preserving=False)

    def test_same_index_in_two_operators_accepted(self):
        # the loss channel's operators share sources and destinations; so do these
        basis = FockBasis(2)
        ops = (lowering([0, 1], [1, 2], [0.6, 0.6]), lowering([0, 1], [1, 2], [0.8, 0.8]))
        assert KrausChannel(basis, ops, trace_preserving=False).completeness_defect == pytest.approx(1.0)

    def test_index_range_and_dtype_rejected(self):
        basis = FockBasis(2)
        good = lowering([0], [0], [1.0])
        bad_ops = (
            lowering([0, 6], [1, 2], [0.5, 0.5]),
            lowering([0, 1], [-1, 2], [0.5, 0.5]),
            (np.array([0.0]), np.array([1]), np.array([0.5 + 0j])),
            (np.array([0]), np.array([True]), np.array([0.5 + 0j])),
        )
        for bad in bad_ops:
            with pytest.raises(ValueError, match="basis indices below 6"):
                KrausChannel(basis, (good, bad), trace_preserving=False)
        # an empty operator may carry any index dtype
        empty = (np.array([]), np.array([]), np.array([], dtype=complex))
        assert len(KrausChannel(basis, (good, empty), trace_preserving=False)) == 2

    def test_length_mismatch_rejected(self):
        basis = FockBasis(2)
        with pytest.raises(ValueError, match="differ in length"):
            KrausChannel(basis, (lowering([0, 1], [2, 3], [0.5]),), trace_preserving=False)
        with pytest.raises(ValueError, match="differ in length"):
            KrausChannel(basis, (lowering([0], [2, 3], [0.5, 0.5]),), trace_preserving=False)

    def test_non_triples_rejected(self):
        # a 3 x 3 matrix on FockBasis(1) must not be unpacked as a triple
        basis = FockBasis(1)
        ident = identity_triple(basis)
        for bad in (np.eye(basis.dim), list(ident), ident[:2], (*ident, ident[2])):
            with pytest.raises(ValueError, match="triple"):
                KrausChannel(basis, (bad,))
        with pytest.raises(ValueError, match="triple"):
            KrausChannel(FockBasis(2), (np.eye(FockBasis(2).dim),))

    def test_completeness_on_the_form(self):
        # |c|^2 summed per source: 0.36 + 0.64 on source 1, 1.2 on source 2
        basis = FockBasis(1)
        ops = (lowering([0, 1], [1, 2], [0.6, 1.2**0.5]), lowering([2], [1], [0.8j]))
        with pytest.raises(ValueError, match="exceeds identity"):
            KrausChannel(basis, ops, trace_preserving=False)
        ident = (lowering([0, 1, 2], [0, 1, 2], [1.0, 0.6, 1.0]), lowering([2], [1], [0.8j]))
        assert KrausChannel(basis, ident).completeness_defect < 1e-15

    def test_partial_triples_match_dense_reference(self, rng):
        # three operators on 8 of 21 sources each, so some sources carry no
        # weight; |c| <= 0.5 keeps sum K^dag K at most 0.75 of the identity
        basis = FockBasis(5)
        d = basis.dim
        ops = []
        for _ in range(3):
            coeffs = 0.5 * rng.uniform(size=8) * np.exp(2j * np.pi * rng.uniform(size=8))
            ops.append(lowering(rng.permutation(d)[:8], rng.permutation(d)[:8], coeffs))
        channel = KrausChannel(basis, tuple(ops), trace_preserving=False)
        rho = random_density(rng, d)
        reference, defect = dense_kraus_sums(channel, rho)
        out = apply_channel(DensityOperator(basis, rho), channel).matrix
        assert np.max(np.abs(out - reference)) <= 1e-15
        assert abs(channel.completeness_defect - defect) <= 1e-14
        assert channel.completeness_defect == 1.0  # a source without weight

    @pytest.mark.parametrize("n_max", [2, 9, 14])
    @pytest.mark.parametrize("eta", [0.0, 0.41, 1.0])
    def test_loss_matches_dense_reference(self, rng, n_max, eta):
        basis = FockBasis(n_max)
        channel = detection_loss_channel(basis, eta)
        rho = random_density(rng, basis.dim)
        reference, defect = dense_kraus_sums(channel, rho)
        out = apply_channel(DensityOperator(basis, rho), channel).matrix
        assert np.max(np.abs(out - reference)) <= 1e-15
        assert abs(channel.completeness_defect - defect) <= 1e-14

    def test_loss_builds_without_dense_stack(self):
        # one dense (J, dim, dim) stack at FockBasis(14) would take 27 MB
        basis = FockBasis(14)
        assert tracemalloc_peak(lambda: detection_loss_channel(basis, 0.41)) <= 2e6


class TestDetectionLoss:
    def test_eta_one_is_identity(self, rng):
        basis = FockBasis(3)
        channel = detection_loss_channel(basis, 1.0)
        vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        vec /= np.linalg.norm(vec)
        rho = DensityOperator(basis, np.outer(vec, vec.conj()))
        assert np.allclose(apply_channel(rho, channel).matrix, rho.matrix)

    def test_eta_zero_maps_to_vacuum(self):
        basis = FockBasis(2)
        channel = detection_loss_channel(basis, 0.0)
        out = apply_channel(basis.state(2, 0).to_density(), channel)
        assert np.allclose(out.matrix, basis.state(0, 0).to_density().matrix)

    def test_half_on_single_excitation(self):
        # |1,0><1,0| -> 0.5 |1,0><1,0| + 0.5 |0,0><0,0|
        basis = FockBasis(2)
        out = apply_channel(
            basis.state(1, 0).to_density(), detection_loss_channel(basis, 0.5)
        )
        expected = 0.5 * basis.state(1, 0).to_density().matrix
        expected += 0.5 * basis.state(0, 0).to_density().matrix
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_product_binomial_on_number_state(self):
        basis = FockBasis(3)
        eta = 0.37
        out = apply_channel(
            basis.state(2, 1).to_density(), detection_loss_channel(basis, eta)
        )
        for i, (nd, np_) in enumerate(basis.occupations):
            expected = 0.0
            if nd <= 2 and np_ <= 1:
                expected = (
                    math.comb(2, nd) * eta**nd * (1 - eta) ** (2 - nd)
                    * math.comb(1, np_) * eta**np_ * (1 - eta) ** (1 - np_)
                )
            assert out.matrix[i, i].real == pytest.approx(expected, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_composition_matches_product_efficiency(self, eta1, eta2):
        basis = FockBasis(2)
        first = detection_loss_channel(basis, eta1)
        second = detection_loss_channel(basis, eta2)
        direct = detection_loss_channel(basis, eta1 * eta2)
        for occ in basis.occupations:
            rho = basis.state(*occ).to_density()
            a = apply_channel(apply_channel(rho, first), second).matrix
            b = apply_channel(rho, direct).matrix
            assert np.max(np.abs(a - b)) < 1e-10

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            detection_loss_channel(FockBasis(1), 1.2)


class TestMeasure:
    def test_projective_on_number_state(self):
        basis = FockBasis(2)
        dist = measure(basis.state(2, 0).to_density(), number_povm(basis))
        assert dist.get((2, 0)) == pytest.approx(1.0, abs=1e-12)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_lossless_counting_of_rotated_pair(self):
        # squared amplitudes of the rotated pair state at theta = pi/2
        basis = FockBasis(2)
        rho = rotated_pair_family(basis)(math.pi / 2)
        dist = measure(rho, lossy_number_povm(basis, 1.0))
        assert dist.get((2, 0)) == pytest.approx(0.25, abs=1e-12)
        assert dist.get((1, 1)) == pytest.approx(0.5, abs=1e-12)
        assert dist.get((0, 2)) == pytest.approx(0.25, abs=1e-12)

    def test_completeness_for_random_state(self, rng):
        basis = FockBasis(2)
        vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        vec /= np.linalg.norm(vec)
        rho = DensityOperator(basis, np.outer(vec, vec.conj()))
        for povm in (number_povm(basis), lossy_number_povm(basis, 0.41)):
            assert measure(rho, povm).total() == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            measure(FockBasis(2).state(0, 0).to_density(), number_povm(FockBasis(3)))

    @pytest.mark.parametrize("eta", [0.0, 0.41, 1.0])
    def test_lossy_povm_is_heisenberg_picture_of_loss_channel(self, rng, eta):
        basis = FockBasis(14)
        g = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
        mat = g @ g.conj().T
        rho = DensityOperator(basis, mat / np.trace(mat))
        heisenberg = measure(rho, lossy_number_povm(basis, eta))
        schroedinger = measure(
            apply_channel(rho, detection_loss_channel(basis, eta)), number_povm(basis)
        )
        assert heisenberg.tv_distance(schroedinger) <= 1e-14


class TestClassicalFi:
    def test_constant_family_is_zero(self):
        dist = CountDistribution({0: 0.25, 1: 0.75})
        assert classical_fi(lambda t: dist, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_lossy_pair_measurement_equals_two_eta(self):
        basis = FockBasis(2)
        family = rotated_pair_family(basis)
        povm = lossy_number_povm(basis, 0.3)
        fi = classical_fi(lambda t: measure(family(t), povm), 1.0)
        assert fi == pytest.approx(0.6, abs=1e-6)

    def test_poisson_family(self):
        # FI of Poisson(nbar cos^2(theta/2)) is nbar sin^2(theta/2)
        nbar = 1.1

        def family(theta):
            mean = nbar * math.cos(theta / 2) ** 2
            ns = np.arange(30)
            return CountDistribution(dict(zip(ns.tolist(), poisson.pmf(ns, mean))))

        assert classical_fi(family, math.pi / 2) == pytest.approx(0.55, abs=1e-6)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            CountDistribution({0: -0.1, 1: 1.1})

    def test_vanishing_outcome_adds_its_limit(self):
        # outcome probability sin^2(theta) vanishes quadratically at theta=0,
        # where its contribution (p')^2/p takes the limit 2 p'' = 4
        def family(theta):
            p = math.sin(theta) ** 2
            return CountDistribution({0: 1.0 - p, 1: p})

        fi, diag = classical_fi(family, 0.0, full_output=True)
        assert fi == pytest.approx(4.0, rel=1e-6)
        assert diag["skipped_labels"] == [1]
        assert diag["skipped_bound"] == pytest.approx(4.0, rel=1e-6)

    def test_step_halving_check_is_quiet_when_converged(self, recwarn):
        basis = FockBasis(2)
        family = rotated_pair_family(basis)
        povm = lossy_number_povm(basis, 0.3)
        fi, diag = classical_fi(
            lambda t: measure(family(t), povm),
            1.0,
            check_step=True,
            full_output=True,
        )
        assert diag["step_check_rel_change"] < 1e-4
        assert not recwarn.list


class TestQfi:
    def test_pure_rotated_pair_family(self):
        basis = FockBasis(2)
        assert qfi(rotated_pair_family(basis), 0.8) == pytest.approx(2.0, abs=1e-6)

    def test_theta_independent_family_is_zero(self):
        basis = FockBasis(2)
        rho = basis.state(1, 1).to_density()
        assert qfi(lambda t: rho, 0.8) == pytest.approx(0.0, abs=1e-9)

    def test_dominates_classical_fi_after_losses(self):
        basis = FockBasis(2)
        pure = rotated_pair_family(basis)
        prevention = toy_error_prevention(basis)
        loss = detection_loss_channel(basis, 0.02)

        def family(theta):
            return apply_channel(apply_channel(pure(theta), prevention), loss)

        q = qfi(family, math.pi / 2)
        c = povm_fi(family, number_povm(basis), math.pi / 2)
        assert c <= q + 1e-6

    def test_monotonicity_for_random_povms(self, rng):
        basis = FockBasis(2)
        family = rotated_pair_family(basis)
        q = qfi(family, 1.1)
        for _ in range(3):
            rows = random_diagonal_povm(rng, basis.dim, 4)
            povm = PovmSet(basis, rows, tuple(range(len(rows))))
            assert povm_fi(family, povm, 1.1) <= q + 1e-6

    def test_non_hermitian_rejected(self):
        basis = FockBasis(1)
        bad = np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex)

        def family(theta):
            return DensityOperator(basis, bad)

        with pytest.raises(ValueError):
            qfi(family, 0.3)


class TestTypedInvariants:
    def test_kraus_completeness_enforced(self):
        basis = FockBasis(1)
        dest, src, ones = identity_triple(basis)
        bad = ((dest, src, 0.5 * ones),)
        with pytest.raises(ValueError):
            KrausChannel(basis, bad, trace_preserving=True)
        # but acceptable as a non-trace-preserving channel
        KrausChannel(basis, bad, trace_preserving=False)
        over = ((dest, src, 1.2 * ones),)
        with pytest.raises(ValueError):
            KrausChannel(basis, over, trace_preserving=False)

    def test_povm_positivity_and_completeness_enforced(self):
        basis = FockBasis(1)
        ones = np.ones(basis.dim)
        neg = -0.1 * ones
        with pytest.raises(ValueError):
            PovmSet(basis, (neg, ones - neg), ("a", "b"))
        with pytest.raises(ValueError):
            PovmSet(basis, (0.5 * ones,), ("a",))

    def test_density_operator_validation(self):
        basis = FockBasis(1)
        bad = np.eye(basis.dim, dtype=complex) / basis.dim
        bad[0, 1] = 0.3  # breaks Hermiticity
        with pytest.raises(ValueError):
            DensityOperator(basis, bad)
        rho = DensityOperator(basis, 0.5 * np.eye(basis.dim, dtype=complex))
        with pytest.raises(ValueError):
            rho.validate(normalized=True)  # trace is 1.5

    def test_coherent_state_tail_enforced(self):
        small = FockBasis(2)
        with pytest.raises(ValueError):
            coherent_state(small, 1.5, 0.5)
        state, tail = coherent_state(FockBasis(14), 1.0, 1.0j, full_output=True)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert tail < 1e-8

    def test_marginal_and_tv_distance(self):
        dist = CountDistribution({(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.5})
        marg = dist.marginal("d")
        assert marg.get(0) == pytest.approx(0.5)
        assert marg.get(1) == pytest.approx(0.5)
        other = CountDistribution({0: 1.0})
        assert marg.tv_distance(other) == pytest.approx(0.5)


def test_oracle_imports_nothing_from_the_package():
    # fockspace is the independent oracle of the analytic modules
    tree = ast.parse(Path(fockspace.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [name for name in imported if name.startswith((".", "rydsense"))]
