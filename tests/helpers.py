"""Reference computations that only the tests use.

None of these has a caller in the package, the demos or the benchmark, so
they live next to the tests: the dense Kraus operators and Kraus sums
that the lowering form is checked against, random lowering-form channels
and diagonal POVMs, the finite-difference quantum Fisher information, the
matrix-pipeline means of the error-prevention toy, shot sampling and the
field / Rabi-frequency conversions.
"""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from rydsense.error_prevention import error_prevention_channel, rotated_state, two_excitation_basis
from rydsense.estimation import HBAR, _draw_counts
from rydsense.fockspace import (
    FI_STEP,
    MODES,
    FockBasis,
    KrausChannel,
    TwoModeFockState,
    apply_channel,
    classical_fi,
    measure,
    mode_operator,
)
from rydsense.multiparticle import ProtocolParams

# Eigenvalue pairs of qfi whose sum is at most this are left out.
QFI_EIG_FLOOR = 1e-12


def random_density(rng, d):
    """Random full-rank density matrix of dimension ``d``."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return mat / np.trace(mat)


def tracemalloc_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_operators(channel: KrausChannel) -> list:
    """The channel's Kraus operators as dim x dim matrices.

    The operator (dest, src, coeffs) becomes the matrix with
    K[dest_i, src_i] = coeffs_i and zeros elsewhere.
    """
    d = channel.basis.dim
    out = []
    for dest, src, coeffs in channel.operators:
        k = np.zeros((d, d), dtype=complex)
        k[dest, src] = coeffs
        out.append(k)
    return out


def dense_kraus_sums(channel: KrausChannel, rho: np.ndarray) -> tuple:
    """Sum K rho K^dag and the defect max |sum K^dag K - I| over dense operators."""
    ops = dense_operators(channel)
    out = sum(k @ rho @ k.conj().T for k in ops)
    defect = np.max(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(channel.basis.dim)))
    return out, float(defect)


def random_triples(rng, d, count, trace_preserving):
    """Random injective (dest, src, coeffs) operators on dimension ``d``.

    Each operator maps a random subset of the basis indices, all of them for
    the first, onto a random permutation of destinations with complex
    coefficients.  They are scaled so that sum |c|^2 per source is one if
    ``trace_preserving`` and otherwise at most one.
    """
    ops = []
    for j in range(count):
        size = d if j == 0 else int(rng.integers(1, d + 1))
        coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
        ops.append((rng.permutation(d)[:size], rng.permutation(d)[:size], coeffs))
    weight = np.zeros(d)
    for _, src, coeffs in ops:
        weight[src] += np.abs(coeffs) ** 2
    top = weight if trace_preserving else np.full(d, weight.max())
    return tuple((dest, src, coeffs / np.sqrt(top[src])) for dest, src, coeffs in ops)


def random_diagonal_povm(rng, d, count):
    """Random non-negative diagonal rows normalized per column; some zeros."""
    rows = rng.uniform(size=(count, d)) * (rng.random((count, d)) < 0.7)
    rows[0] += 1e-3  # no column left empty
    return rows / rows.sum(axis=0)


def creation_overflow_norm(basis: FockBasis, mode: str, state: TwoModeFockState) -> float:
    """Norm of the component a creation operator would push past n_max."""
    axis = MODES.index(mode)
    leaked = 0.0
    for i, occ in enumerate(basis.occupations):
        if sum(occ) == basis.n_max:
            leaked += (occ[axis] + 1) * abs(state.amplitudes[i]) ** 2
    return math.sqrt(leaked)


def povm_fi(rho_family, povm, theta: float):
    """Classical FI of measuring ``povm`` on a density-operator family."""
    return classical_fi(lambda t: measure(rho_family(t), povm), theta)


def qfi(rho_family, theta: float, *, full_output: bool = False):
    """Quantum Fisher information of a density-operator family.

    Uses the symmetric-logarithmic-derivative eigendecomposition formula
    F_Q = sum_{i,j: l_i + l_j > QFI_EIG_FLOOR} 2 |<i| drho |j>|^2 / (l_i + l_j)
    with drho a central finite difference of step ``FI_STEP``.
    ``full_output`` also returns the step and the eigenvalues of rho.
    """
    rho0 = rho_family(theta)
    rp = rho_family(theta + FI_STEP)
    rm = rho_family(theta - FI_STEP)
    drho = (rp.matrix - rm.matrix) / (2.0 * FI_STEP)
    evals, evecs = np.linalg.eigh(rho0.matrix)
    m = evecs.conj().T @ drho @ evecs
    pair_sums = evals[:, None] + evals[None, :]
    mask = pair_sums > QFI_EIG_FLOOR
    value = float(np.sum(2.0 * np.abs(m[mask]) ** 2 / pair_sums[mask]))
    if full_output:
        return value, {"step": FI_STEP, "eigenvalues": evals}
    return value


def expectation_oracle(eta: float, theta: float) -> tuple[float, float, float, float]:
    """Matrix-pipeline evaluation of the four detected means at one angle.

    Independent check for ``expectation_curves``: builds the rotated
    state, applies the error-prevention channel where applicable, and takes
    eta-scaled number-operator expectations.
    """
    basis = two_excitation_basis()
    nd_op = mode_operator(basis, "d", "number")
    np_op = mode_operator(basis, "p", "number")
    rho_bare = rotated_state(theta).to_density()
    rho_prev = apply_channel(rho_bare, error_prevention_channel())
    return (
        eta * rho_prev.expectation(nd_op),
        eta * rho_prev.expectation(np_op),
        eta * rho_bare.expectation(nd_op),
        eta * rho_bare.expectation(np_op),
    )


@dataclass(frozen=True)
class ShotBatch:
    """Detected counts from repeated shots at one true angle."""

    counts: np.ndarray
    theta_true: float
    params: ProtocolParams
    seed: int | None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or (counts.size and counts.min() < 0):
            raise ValueError("counts must be a 1-d array of non-negative integers")
        object.__setattr__(self, "counts", counts)


def sample_shots(
    params: ProtocolParams, theta: float, n_shots: int, seed: int | None = None
) -> ShotBatch:
    """Draw ``n_shots`` detected counts by inverse-CDF sampling.

    Deterministic under a fixed seed; the empirical distribution converges
    to ``multiparticle.count_distribution``.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return ShotBatch(_draw_counts(params, theta, n_shots, rng), theta, params, seed)


def electric_field_to_rabi(field_v_per_m: float, dipole_moment: float) -> float:
    """Rabi frequency d E / hbar in rad/s."""
    return dipole_moment * field_v_per_m / HBAR


def rabi_to_electric_field(rabi_rad_s: float, dipole_moment: float) -> float:
    """Electric field hbar Omega / d in V/m."""
    return rabi_rad_s * HBAR / dipole_moment
