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
    FockBasis,
    KrausChannel,
    apply_channel,
    classical_fi,
    coherent_state,
    detection_loss_channel,
    measure,
    number_povm,
)

from helpers import (
    basis_state,
    creation_overflow_norm,
    dense_density,
    dense_kraus_sums,
    entry_table,
    lossy_counts,
    mode_operator,
    populations,
    povm_fi,
    qfi,
    rabi_rotation,
    random_density,
    random_diagonal_povm,
    random_entries,
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
    return KrausChannel(basis, entry_table(k0, (kept, kept, np.ones(kept.size))))


def rotated_pair_family(basis):
    """Angle -> dense density matrix of the Rabi-rotated pair |2,0>."""
    psi0 = basis_state(basis, 2, 0).amplitudes

    def family(theta):
        vec = rabi_rotation(basis, theta) @ psi0
        return np.outer(vec, vec.conj())

    return family


def assert_diagonal_matches(out, reference, tol):
    """Populations ``out`` against the diagonal of a dense ``reference``."""
    assert np.max(np.abs(out - np.diagonal(reference).real)) <= tol


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
            occ = basis.occupations[i]
            assert basis.index_of(*occ) == i
            seen.add(occ)
        assert len(seen) == basis.dim
        assert all(nd + np_ <= n_max for nd, np_ in seen)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            FockBasis(-1)
        basis = FockBasis(2)
        for occ in ((2, 1), (3, 0), (0, 3), (-1, 0), (0, -1), (-1, 3)):
            with pytest.raises(ValueError, match="outside basis"):
                basis.index_of(*occ)
        assert basis.index_of(1, np.int64(1)) == basis.index_of(1, 1)

    @pytest.mark.parametrize("occ", [(1.0, 1), (1, 1.0), (0.5, 0), (True, 0), (0, np.float64(1))])
    def test_non_integer_occupation_rejected(self, occ):
        with pytest.raises(ValueError, match="occupations must be integers"):
            FockBasis(2).index_of(*occ)

    @pytest.mark.parametrize("n_max", [True, 2.0, 1.5, np.float64(3)])
    def test_non_integer_n_max_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
            FockBasis(n_max)

    def test_numpy_integer_n_max(self):
        basis = FockBasis(np.int64(3))
        assert type(basis.n_max) is int
        assert basis.n_max == 3 and basis.dim == FockBasis(3).dim


class TestModeOperators:
    def test_number_eigenvalue(self):
        basis = FockBasis(2)
        n_d = mode_operator(basis, "d", "number")
        vec = basis_state(basis, 2, 0).amplitudes
        assert np.allclose(n_d @ vec, 2.0 * vec)

    def test_vacuum_annihilation(self):
        basis = FockBasis(3)
        a_d = mode_operator(basis, "d", "annihilate")
        for m in range(basis.n_max + 1):
            assert np.allclose(a_d @ basis_state(basis, 0, m).amplitudes, 0.0)

    def test_create_annihilate_is_number(self):
        basis = FockBasis(3)
        a = mode_operator(basis, "d", "annihilate")
        adag = mode_operator(basis, "d", "create")
        vec = basis_state(basis, 1, 1).amplitudes
        assert np.allclose(adag @ a @ vec, 1.0 * vec)

    def test_creation_truncation_drops_overflow(self):
        basis = FockBasis(2)
        adag = mode_operator(basis, "d", "create")
        top = basis_state(basis, 1, 1)  # total excitations already at n_max
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
        vec = rabi_rotation(basis, math.pi / 2) @ basis_state(basis, 2, 0).amplitudes
        assert vec[basis.index_of(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert vec[basis.index_of(1, 1)] == pytest.approx(1j / math.sqrt(2), abs=1e-12)
        assert vec[basis.index_of(0, 2)] == pytest.approx(-0.5, abs=1e-12)

    def test_general_angle_amplitudes(self):
        basis = FockBasis(2)
        theta = 0.83
        vec = rabi_rotation(basis, theta) @ basis_state(basis, 2, 0).amplitudes
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

    @pytest.mark.parametrize("n_max", range(15))
    def test_top_state_rotates_to_binomial_amplitudes(self, n_max):
        # |n, 0> -> sum_k sqrt(C(n, k)) cos^(n-k)(theta/2) (i sin(theta/2))^k |n-k, k>,
        # the phase convention for every basis size
        basis = FockBasis(n_max)
        psi0 = basis_state(basis, n_max, 0).amplitudes
        for theta in np.linspace(-8.0, 8.0, 21):
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            expected = np.zeros(basis.dim, dtype=complex)
            for k in range(n_max + 1):
                amplitude = math.sqrt(math.comb(n_max, k)) * c ** (n_max - k) * (1j * s) ** k
                expected[basis.index_of(n_max - k, k)] = amplitude
            assert np.max(np.abs(rabi_rotation(basis, theta) @ psi0 - expected)) < 1e-12


class TestApplyChannel:
    def test_identity_channel(self, rng):
        basis = FockBasis(2)
        ident = KrausChannel(basis, entry_table(identity_triple(basis)))
        mat = rng.normal(size=(basis.dim, basis.dim))
        mat = mat @ mat.T
        mat = mat / np.trace(mat)
        assert np.allclose(dense_kraus_sums(ident, mat)[0], mat)
        out = apply_channel(populations(mat), ident)
        assert np.allclose(out, np.diagonal(mat))

    def test_error_prevention_transfers_one_one(self):
        basis = FockBasis(2)
        channel = toy_error_prevention(basis)
        one_one, vacuum = basis_state(basis, 1, 1), basis_state(basis, 0, 0)
        out = dense_kraus_sums(channel, dense_density(one_one))[0]
        assert np.allclose(out, dense_density(vacuum))
        out = apply_channel(one_one.to_density(), channel)
        assert np.allclose(out, vacuum.to_density())

    def test_error_prevention_preserves_two_zero(self):
        basis = FockBasis(2)
        channel = toy_error_prevention(basis)
        rho = dense_density(basis_state(basis, 2, 0))
        assert np.allclose(dense_kraus_sums(channel, rho)[0], rho)
        pops = basis_state(basis, 2, 0).to_density()
        assert np.allclose(apply_channel(pops, channel), pops)

    def test_dimension_mismatch(self):
        pops = basis_state(FockBasis(2), 0, 0).to_density()
        channel = KrausChannel(FockBasis(3), entry_table(identity_triple(FockBasis(3))))
        with pytest.raises(ValueError, match=r"shape \(6,\), expected \(10,\)"):
            apply_channel(pops, channel)

    def test_trace_preserved_for_random_channel(self, rng):
        basis = FockBasis(5)
        channel = KrausChannel(basis, random_entries(rng, basis.dim, 4, trace_preserving=True))
        rho = random_density(rng, basis.dim)
        reference, defect = dense_kraus_sums(channel, rho)
        out = apply_channel(populations(rho), channel)
        assert_diagonal_matches(out, reference, 1e-14)
        assert abs(out.sum() - 1.0) < 1e-14
        assert channel.completeness_defect < 1e-14 and defect < 1e-14


class TestSupportRestriction:
    @pytest.mark.parametrize("trace_preserving", [False, True])
    def test_apply_channel_and_defect_match_dense_sums(self, rng, trace_preserving):
        basis = FockBasis(5)
        d = basis.dim
        for _ in range(5):
            entries = random_entries(rng, d, 7, trace_preserving)
            channel = KrausChannel(basis, entries, trace_preserving=trace_preserving)
            rho = random_density(rng, d)
            reference, defect = dense_kraus_sums(channel, rho)
            out = apply_channel(populations(rho), channel)
            assert_diagonal_matches(out, reference, 1e-14)
            assert abs(channel.completeness_defect - defect) < 1e-14

    def test_measure_matches_dense_trace(self, rng):
        # p(n_d, n_p) = tr(rho |n_d, n_p><n_d, n_p|) for every basis state
        basis = FockBasis(5)
        rho = random_density(rng, basis.dim)
        dist = measure(populations(rho), number_povm(basis))
        assert list(dist.probabilities) == list(basis.occupations)
        for i, label in enumerate(basis.occupations):
            projector = np.zeros((basis.dim, basis.dim))
            projector[i, i] = 1.0
            assert dist.get(label) == np.trace(rho @ projector).real

    def test_measure_memory_at_experimental_size(self):
        # FockBasis(110) has dim 6216: one dim^2 float array would be 309 MB
        basis = FockBasis(110)
        pops = coherent_state(basis, math.sqrt(55.0) * 0.8, 0.6j * math.sqrt(55.0)).to_density()
        peak = tracemalloc_peak(lambda: measure(pops, number_povm(basis)).marginal("d"))
        assert peak < 5e6


def lowering(dest, src, coeffs):
    return (np.array(dest), np.array(src), np.array(coeffs, dtype=complex))


def channel_of(basis, *operators, trace_preserving=False):
    """Channel of (dest, src, coeffs) operators, by default not trace preserving."""
    return KrausChannel(basis, entry_table(*operators), trace_preserving=trace_preserving)


class TestLoweringForm:
    def test_repeated_index_rejected(self):
        basis = FockBasis(2)
        with pytest.raises(ValueError, match="repeats"):
            channel_of(basis, lowering([0, 0], [1, 2], [0.5, 0.5]))
        with pytest.raises(ValueError, match="repeats"):
            channel_of(basis, lowering([0, 1], [2, 2], [0.5, 0.5]))

    def test_repeat_in_last_operator_rejected(self):
        basis = FockBasis(2)
        ops = (lowering([0, 1], [1, 2], [0.5, 0.5]), lowering([3, 4], [3, 4], [0.5, 0.5]))
        for repeat in (lowering([5, 5], [0, 5], [0.5, 0.5]), lowering([0, 5], [5, 5], [0.5, 0.5])):
            with pytest.raises(ValueError, match="repeats"):
                channel_of(basis, *ops, repeat)

    def test_same_index_in_two_operators_accepted(self):
        # the loss channel's operators share sources and destinations; so do these
        basis = FockBasis(2)
        ops = (lowering([0, 1], [1, 2], [0.6, 0.6]), lowering([0, 1], [1, 2], [0.8, 0.8]))
        assert channel_of(basis, *ops).completeness_defect == pytest.approx(1.0)

    def test_index_range_and_dtype_rejected(self):
        basis = FockBasis(2)
        good = lowering([0], [0], [1.0])
        for bad in (lowering([0, 6], [1, 2], [0.5, 0.5]), lowering([0, 1], [-1, 2], [0.5, 0.5])):
            with pytest.raises(ValueError, match="basis indices below 6"):
                channel_of(basis, good, bad)
        # a float or boolean index array; concatenation would promote these
        op, dest, src, coeffs = entry_table(good, lowering([1], [1], [0.5]))
        for entries in (
            (op, dest.astype(float), src, coeffs),
            (op, dest, src.astype(bool), coeffs),
        ):
            with pytest.raises(ValueError, match="basis indices below 6"):
                KrausChannel(basis, entries, trace_preserving=False)
        # an empty table may carry any index dtype; it is the zero map
        empty = (np.array([]),) * 3 + (np.array([], dtype=complex),)
        assert KrausChannel(basis, empty, trace_preserving=False).completeness_defect == 1.0
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel(basis, empty)

    def test_operator_labels_validated(self):
        basis = FockBasis(2)
        _, dest, src, coeffs = entry_table(lowering([0, 1], [1, 2], [0.5, 0.5]))
        for op in (np.array([0, -1]), np.array([0.0, 1.0]), np.array([0, 2**62])):
            with pytest.raises(ValueError, match="labels must be integers in"):
                KrausChannel(basis, (op, dest, src, coeffs), trace_preserving=False)
        # labels need not be contiguous
        channel = KrausChannel(basis, (np.array([3, 7]), dest, src, coeffs), trace_preserving=False)
        assert channel.completeness_defect == 1.0

    def test_destination_lookup(self):
        # K lowers (n_d, n_p) by (1, 0) on |2,1> and |1,0>; |0,1> cannot be lowered
        basis = FockBasis(3)
        lowered = np.array([[0, 0], [1, 0]])
        src = np.array([basis.index_of(2, 1), basis.index_of(1, 0)])
        dest = fockspace._lowered_destinations(basis, lowered, np.array([1, 1]), src)
        assert dest.tolist() == [basis.index_of(1, 1), basis.index_of(0, 0)]
        with pytest.raises(ValueError, match="cannot be lowered"):
            fockspace._lowered_destinations(
                basis, lowered, np.array([1]), np.array([basis.index_of(0, 1)])
            )

    def test_length_mismatch_rejected(self):
        basis = FockBasis(2)
        pair = np.array([0, 1])
        for entries in (
            (pair, pair, np.array([2, 3]), np.array([0.5])),
            (pair, np.array([0]), np.array([2, 3]), np.array([0.5, 0.5])),
            (np.array([0]), pair, np.array([2, 3]), np.array([0.5, 0.5])),
            (pair, pair, pair[:, None], np.array([0.5, 0.5])),  # a 2-D index array
        ):
            with pytest.raises(ValueError, match="differ in length"):
                KrausChannel(basis, entries, trace_preserving=False)

    def test_non_tables_rejected(self):
        # a dense matrix, or a 2-D array of four rows, must not be unpacked as a table
        basis = FockBasis(1)
        table = entry_table(identity_triple(basis))
        for bad in (np.eye(basis.dim), np.stack(table), list(table), table[:3], (*table, table[3])):
            with pytest.raises(ValueError, match="entries must be"):
                KrausChannel(basis, bad)
        with pytest.raises(ValueError, match="entries must be"):
            KrausChannel(FockBasis(2), np.eye(FockBasis(2).dim))
        with pytest.raises(ValueError, match="entries must be"):
            KrausChannel(basis, (identity_triple(basis),))  # a tuple of triples

    def test_completeness_on_the_form(self):
        # |c|^2 summed per source: 0.36 + 0.64 on source 1, 1.2 on source 2
        basis = FockBasis(1)
        ops = (lowering([0, 1], [1, 2], [0.6, 1.2**0.5]), lowering([2], [1], [0.8j]))
        with pytest.raises(ValueError, match="exceeds identity"):
            channel_of(basis, *ops)
        ident = (lowering([0, 1, 2], [0, 1, 2], [1.0, 0.6, 1.0]), lowering([2], [1], [0.8j]))
        assert channel_of(basis, *ident, trace_preserving=True).completeness_defect < 1e-15

    def test_partial_operators_match_dense_reference(self, rng):
        # three operators on 8 of 21 sources each, so some sources carry no
        # weight; |c| <= 0.5 keeps sum K^dag K at most 0.75 of the identity
        basis = FockBasis(5)
        d = basis.dim
        ops = []
        for _ in range(3):
            coeffs = 0.5 * rng.uniform(size=8) * np.exp(2j * np.pi * rng.uniform(size=8))
            ops.append(lowering(rng.permutation(d)[:8], rng.permutation(d)[:8], coeffs))
        channel = channel_of(basis, *ops)
        rho = random_density(rng, d)
        reference, defect = dense_kraus_sums(channel, rho)
        assert_diagonal_matches(apply_channel(populations(rho), channel), reference, 1e-15)
        assert abs(channel.completeness_defect - defect) <= 1e-14
        assert channel.completeness_defect == 1.0  # a source without weight

    @pytest.mark.parametrize("n_max", [2, 9, 14])
    @pytest.mark.parametrize("eta", [0.0, 0.41, 1.0])
    def test_loss_matches_dense_reference(self, rng, n_max, eta):
        basis = FockBasis(n_max)
        channel = detection_loss_channel(basis, eta)
        rho = random_density(rng, basis.dim)
        reference, defect = dense_kraus_sums(channel, rho)
        assert_diagonal_matches(apply_channel(populations(rho), channel), reference, 1e-15)
        assert abs(channel.completeness_defect - defect) <= 1e-14

    def test_loss_builds_without_dense_stack(self):
        # one dense (J, dim, dim) stack at FockBasis(14) would take 27 MB
        basis = FockBasis(14)
        assert tracemalloc_peak(lambda: detection_loss_channel(basis, 0.41)) <= 2e6

    def test_loss_build_memory_at_sixty(self):
        # 6.4e5 entries: the kept table (four arrays and the weights) is 25 MB
        basis = FockBasis(60)
        assert tracemalloc_peak(lambda: detection_loss_channel(basis, 0.41)) < 60e6


class TestDetectionLoss:
    def test_eta_one_is_identity(self, rng):
        basis = FockBasis(3)
        channel = detection_loss_channel(basis, 1.0)
        vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        assert np.allclose(dense_kraus_sums(channel, rho)[0], rho)
        out = apply_channel(populations(rho), channel)
        assert np.allclose(out, np.abs(vec) ** 2)

    def test_eta_zero_maps_to_vacuum(self):
        basis = FockBasis(2)
        channel = detection_loss_channel(basis, 0.0)
        pair, vacuum = basis_state(basis, 2, 0), basis_state(basis, 0, 0)
        out = dense_kraus_sums(channel, dense_density(pair))[0]
        assert np.allclose(out, dense_density(vacuum))
        out = apply_channel(pair.to_density(), channel)
        assert np.allclose(out, vacuum.to_density())

    def test_half_on_single_excitation(self):
        # |1,0><1,0| -> 0.5 |1,0><1,0| + 0.5 |0,0><0,0|
        basis = FockBasis(2)
        channel = detection_loss_channel(basis, 0.5)
        one, vacuum = basis_state(basis, 1, 0), basis_state(basis, 0, 0)
        expected = 0.5 * dense_density(one) + 0.5 * dense_density(vacuum)
        assert np.max(np.abs(dense_kraus_sums(channel, dense_density(one))[0] - expected)) < 1e-12
        assert_diagonal_matches(apply_channel(one.to_density(), channel), expected, 1e-12)

    def test_product_binomial_on_number_state(self):
        basis = FockBasis(3)
        eta = 0.37
        out = apply_channel(
            basis_state(basis, 2, 1).to_density(), detection_loss_channel(basis, eta)
        )
        for i, (nd, np_) in enumerate(basis.occupations):
            expected = 0.0
            if nd <= 2 and np_ <= 1:
                expected = (
                    math.comb(2, nd) * eta**nd * (1 - eta) ** (2 - nd)
                    * math.comb(1, np_) * eta**np_ * (1 - eta) ** (1 - np_)
                )
            assert out[i] == pytest.approx(expected, abs=1e-12)

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
            rho = dense_density(basis_state(basis, *occ))
            a = dense_kraus_sums(second, dense_kraus_sums(first, rho)[0])[0]
            b = dense_kraus_sums(direct, rho)[0]
            assert np.max(np.abs(a - b)) < 1e-10
            pops = populations(rho)
            a = apply_channel(apply_channel(pops, first), second)
            assert np.max(np.abs(a - apply_channel(pops, direct))) < 1e-10

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            detection_loss_channel(FockBasis(1), 1.2)


class TestMeasure:
    def test_projective_on_number_state(self):
        basis = FockBasis(2)
        dist = measure(basis_state(basis, 2, 0).to_density(), number_povm(basis))
        assert dist.get((2, 0)) == pytest.approx(1.0, abs=1e-12)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_lossless_counting_of_rotated_pair(self):
        # squared amplitudes of the rotated pair state at theta = pi/2
        basis = FockBasis(2)
        pops = populations(rotated_pair_family(basis)(math.pi / 2))
        dist = lossy_counts(basis, pops, 1.0)
        assert dist.get((2, 0)) == pytest.approx(0.25, abs=1e-12)
        assert dist.get((1, 1)) == pytest.approx(0.5, abs=1e-12)
        assert dist.get((0, 2)) == pytest.approx(0.25, abs=1e-12)

    def test_completeness_for_random_state(self, rng):
        basis = FockBasis(2)
        vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        vec /= np.linalg.norm(vec)
        pops = populations(np.outer(vec, vec.conj()))
        for dist in (measure(pops, number_povm(basis)), lossy_counts(basis, pops, 0.41)):
            assert dist.total() == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        pops = basis_state(FockBasis(2), 0, 0).to_density()
        with pytest.raises(ValueError, match=r"shape \(6,\), expected \(10,\)"):
            measure(pops, number_povm(FockBasis(3)))


class TestClassicalFi:
    def test_constant_family_is_zero(self):
        dist = CountDistribution({0: 0.25, 1: 0.75})
        assert classical_fi(lambda t: dist, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_lossy_pair_measurement_equals_two_eta(self):
        basis = FockBasis(2)
        family = rotated_pair_family(basis)
        fi = classical_fi(lambda t: lossy_counts(basis, populations(family(t)), 0.3), 1.0)
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

        assert classical_fi(family, 0.0) == pytest.approx(4.0, rel=1e-6)

    def test_halving_the_step_moves_the_value_by_less_than_1e_4(self, monkeypatch):
        basis = FockBasis(2)
        family = rotated_pair_family(basis)
        angles = []

        def counts(theta):
            angles.append(theta)
            return lossy_counts(basis, populations(family(theta)), 0.3)

        fi = classical_fi(counts, 1.0)
        half = fockspace.FI_STEP / 2.0
        monkeypatch.setattr(fockspace, "FI_STEP", half)
        fi_half = classical_fi(counts, 1.0)
        assert angles[-2:] == [1.0 + half, 1.0 - half]
        assert abs(fi_half - fi) <= 1e-4 * fi_half


class TestQfi:
    def test_pure_rotated_pair_family(self):
        basis = FockBasis(2)
        assert qfi(rotated_pair_family(basis), 0.8) == pytest.approx(2.0, abs=1e-6)

    def test_theta_independent_family_is_zero(self):
        basis = FockBasis(2)
        rho = dense_density(basis_state(basis, 1, 1))
        assert qfi(lambda t: rho, 0.8) == pytest.approx(0.0, abs=1e-9)

    def test_dominates_classical_fi_after_losses(self):
        basis = FockBasis(2)
        pure = rotated_pair_family(basis)
        prevention = toy_error_prevention(basis)
        loss = detection_loss_channel(basis, 0.02)

        def family(theta):
            return dense_kraus_sums(loss, dense_kraus_sums(prevention, pure(theta))[0])[0]

        q = qfi(family, math.pi / 2)
        povm = number_povm(basis)
        c = classical_fi(lambda t: measure(populations(family(t)), povm), math.pi / 2)
        assert c <= q + 1e-6

    def test_monotonicity_for_random_povms(self, rng):
        basis = FockBasis(2)
        family = rotated_pair_family(basis)
        q = qfi(family, 1.1)
        for _ in range(3):
            rows = random_diagonal_povm(rng, basis.dim, 4)
            assert povm_fi(family, rows, 1.1) <= q + 1e-6

    def test_non_hermitian_rejected(self):
        basis = FockBasis(1)
        bad = np.array([[0.5, 0.4, 0.0], [0.1, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
        assert bad.shape == (basis.dim, basis.dim)

        with pytest.raises(ValueError, match="Hermitian"):
            qfi(lambda theta: bad, 0.3)


class TestTypedInvariants:
    def test_kraus_completeness_enforced(self):
        basis = FockBasis(1)
        op, dest, src, ones = entry_table(identity_triple(basis))
        bad = (op, dest, src, 0.5 * ones)
        with pytest.raises(ValueError):
            KrausChannel(basis, bad, trace_preserving=True)
        # but acceptable as a non-trace-preserving channel
        KrausChannel(basis, bad, trace_preserving=False)
        over = (op, dest, src, 1.2 * ones)
        with pytest.raises(ValueError):
            KrausChannel(basis, over, trace_preserving=False)
        nan = (op, dest, src, np.array([1.0, np.nan, 1.0]))
        for trace_preserving in (True, False):
            with pytest.raises(ValueError, match="nan"):
                KrausChannel(basis, nan, trace_preserving=trace_preserving)

    @pytest.mark.parametrize("operation", ["apply_channel", "measure"])
    def test_population_checks(self, operation):
        # apply_channel and measure share one check of their populations
        basis = FockBasis(1)
        channel = KrausChannel(basis, entry_table(identity_triple(basis)))

        def run(pops):
            if operation == "apply_channel":
                out = apply_channel(pops, channel)
                assert out.dtype == float
                return out.tolist()
            return list(measure(pops, number_povm(basis)).probabilities.values())

        for bad in (
            np.eye(basis.dim) / basis.dim,  # a dense matrix, not populations
            np.full(basis.dim + 1, 0.25),
            np.array([0.6, 0.5, -0.1]),
            np.array([0.5, np.nan, 0.5]),
            np.array([0.5, np.inf, 0.5]),
        ):
            with pytest.raises(ValueError, match="populations"):
                run(bad)
        # rounding-level negatives and unnormalized totals are accepted;
        # a count distribution clips the negative to 0
        clipped = -1e-11 if operation == "apply_channel" else 0.0
        assert run([0.5, 1.0, -1e-11]) == [0.5, 1.0, clipped]

    def test_coherent_state_tail_enforced(self):
        small = FockBasis(2)
        with pytest.raises(ValueError):
            coherent_state(small, 1.5, 0.5)
        basis = FockBasis(14)
        state = coherent_state(basis, 1.0, 1.0j)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        # product Poisson(1) populations, renormalized over the basis
        occ = np.array(basis.occupations)
        reference = poisson.pmf(occ[:, 0], 1.0) * poisson.pmf(occ[:, 1], 1.0)
        assert 1.0 - reference.sum() < 1e-8
        pops = state.to_density()
        assert np.max(np.abs(pops - reference / reference.sum())) < 1e-15

    @pytest.mark.parametrize("alpha", [math.sqrt(150.0), 1j * math.sqrt(150.0)])
    def test_coherent_state_on_a_large_basis(self, alpha):
        # alpha^300 passes the float range although the basis holds the state
        basis = FockBasis(300)
        pops = coherent_state(basis, alpha, 0.0).to_density()
        occ = np.array(basis.occupations)
        reference = poisson.pmf(occ[:, 0], 150.0) * (occ[:, 1] == 0)
        assert 1.0 - reference.sum() < 1e-8
        np.testing.assert_allclose(pops, reference / reference.sum(), rtol=1e-10, atol=1e-16)

    @pytest.mark.parametrize("alpha_d,alpha_p", [(-0.7 + 0.2j, 0.5j), (0.0, -1.2), (0.0, 0.0)])
    def test_coherent_amplitudes_match_the_power_form(self, alpha_d, alpha_p):
        basis = FockBasis(14)
        expected = np.array([
            alpha_d**nd * alpha_p**np_ / math.sqrt(math.factorial(nd) * math.factorial(np_))
            for nd, np_ in basis.occupations
        ])
        amplitudes = coherent_state(basis, alpha_d, alpha_p).amplitudes
        np.testing.assert_allclose(
            amplitudes, expected / np.linalg.norm(expected), rtol=1e-13, atol=1e-17
        )

    @pytest.mark.parametrize(
        "alpha", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)]
    )
    def test_coherent_state_non_finite_rejected(self, alpha):
        basis = FockBasis(4)
        with pytest.raises(ValueError, match="finite"):
            coherent_state(basis, alpha, 0.5)
        with pytest.raises(ValueError, match="finite"):
            coherent_state(basis, 0.5, alpha)

    @pytest.mark.parametrize("alpha", [1e200, complex(0.0, 1e200), 1e154])
    def test_coherent_amplitude_too_large_for_basis(self, alpha):
        # |alpha|^2 or |alpha|^4 overflows a float
        basis = FockBasis(4)
        with pytest.raises(ValueError, match="tail mass"):
            coherent_state(basis, alpha, 0.5)
        with pytest.raises(ValueError, match="tail mass"):
            coherent_state(basis, 0.5, alpha)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValueError, match="negative or not finite"):
            CountDistribution({0: bad, 1: 1.0})
        with pytest.raises(ValueError, match="negative or not finite"):
            classical_fi(lambda theta: CountDistribution({0: theta * bad}), 0.5)

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
