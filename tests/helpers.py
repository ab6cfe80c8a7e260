"""Reference computations that only the tests use.

None of these has a caller in the package, the demos or the benchmark, so
they live next to the tests: dense ladder and number operators, the dense
Rabi rotation that pins the toy's closed-form rotated pair, dense density
matrices, the dense Kraus operators and Kraus sums that the channels'
entry tables and the population path are checked against, the mode-d
damping that gives the d counts of the mutual decay on large bases, entry
tables assembled from per-operator triples, random entry tables and
diagonal POVMs, lossy counting through the detection-loss channel, the
finite-difference quantum Fisher information, the matrix-pipeline means of
the error-prevention toy, shot sampling, the full-grid ML search that the
pruned one is checked against, the closed-form eta -> 0 limit of the
normalized Fisher information, the field / Rabi-frequency conversions and
the quadrature of the excluded-volume constant J.
"""

import functools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.stats import binom

from rydsense.error_prevention import error_prevention_channel
from rydsense.estimation import HBAR, _draw_counts, _refine_argmax
from rydsense.fockspace import (
    FI_STEP,
    MODES,
    CountDistribution,
    DensityOperator,
    FockBasis,
    KrausChannel,
    TwoModeFockState,
    apply_channel,
    classical_fi,
    detection_loss_channel,
    measure,
    number_povm,
)
from rydsense.multiparticle import BLOCK_ELEMENTS, ProtocolParams

OPERATOR_KINDS = ("annihilate", "create", "number")

# Eigenvalue pairs of qfi whose sum is at most this are left out.
QFI_EIG_FLOOR = 1e-12

# The quadrature of J: composite Gauss-Legendre angular rule of
# ANGULAR_PANELS panels of PANEL_ORDER nodes, radial cut-off S_MAX in units
# of the natural phase scale, at most QUAD_LIMIT subintervals per scipy quad
# call, and the accuracy contract on the real part.
ANGULAR_PANELS = 256
PANEL_ORDER = 10
S_MAX = 1200.0
QUAD_LIMIT = 800
J_RE_MAX_REL_ERROR = 5e-3


def mode_operator(basis: FockBasis, mode: str, kind: str) -> np.ndarray:
    """Dense ladder or number operator for one mode.

    ``annihilate`` maps |n, m> to sqrt(n) |n-1, m> (mode ``d``; mode ``p``
    acts on the second slot).  ``create`` maps |n, m> to sqrt(n+1) |n+1, m>
    and silently drops the components that would exceed the truncation.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    axis = MODES.index(mode)
    op = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, occ in enumerate(basis.occupations):
        n = occ[axis]
        if kind == "number":
            op[i, i] = n
        elif kind == "annihilate":
            if n > 0:
                target = list(occ)
                target[axis] = n - 1
                op[basis.index_of(*target), i] = math.sqrt(n)
        else:  # create
            if sum(occ) < basis.n_max:
                target = list(occ)
                target[axis] = n + 1
                op[basis.index_of(*target), i] = math.sqrt(n + 1)
    return op


def rabi_rotation(basis: FockBasis, theta: float) -> np.ndarray:
    """Dense unitary of a microwave Rabi rotation by ``theta`` between the modes.

    exp(i (theta/2) G) with the generator G = d^dag p + p^dag d from the
    dense ladder operators; the sign fixes the phase convention in which
    |2,0> rotates to cos^2(theta/2)|2,0> + (i/sqrt(2)) sin(theta)|1,1>
    - sin^2(theta/2)|0,2>.  G is real symmetric, so one ``eigh``
    G = V diag(w) V^T gives the exponential as V diag(e^(i theta w / 2)) V^T.
    G conserves the total excitation number, so the matrix stays exactly
    unitary on the truncated space.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    hop = mode_operator(basis, "d", "create") @ mode_operator(basis, "p", "annihilate")
    w, v = np.linalg.eigh((hop + hop.T).real)
    return (v * np.exp(0.5j * theta * w)) @ v.T


def random_density(rng, d):
    """Random full-rank density matrix of dimension ``d``."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = g @ g.conj().T
    return mat / np.trace(mat)


def dense_density(state: TwoModeFockState) -> np.ndarray:
    """Density matrix |psi><psi| of a state vector."""
    return np.outer(state.amplitudes, state.amplitudes.conj())


def populations(basis: FockBasis, rho: np.ndarray) -> DensityOperator:
    """The populations of a dense density matrix, its diagonal."""
    return DensityOperator(basis, np.diagonal(rho).real)


def tracemalloc_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_operators(channel: KrausChannel) -> list:
    """The channel's Kraus operators as dim x dim matrices, in label order.

    The entries with the label j make up the matrix K_j with
    K_j[dest_e, src_e] = coeffs_e and zeros elsewhere.
    """
    op, dest, src, coeffs = channel.entries
    d = channel.basis.dim
    out = []
    for label in np.unique(op):
        mine = op == label
        k = np.zeros((d, d), dtype=complex)
        k[dest[mine], src[mine]] = coeffs[mine]
        out.append(k)
    return out


def entry_table(*operators) -> tuple:
    """(op, dest, src, coeffs) entries of operators given as (dest, src, coeffs) triples.

    Operator j of the list gets the label j.
    """
    op = np.repeat(np.arange(len(operators)), [len(coeffs) for _, _, coeffs in operators])
    dest, src, coeffs = (np.concatenate(part) for part in zip(*operators))
    return op, dest, src, coeffs


def d_damping_channel(basis: FockBasis, gamma_tau: float) -> KrausChannel:
    """Mode d thinned with survival s = e^(-gamma_tau n_p), mode p kept.

    K_l lowers n_d by l with weight C(n_d, l) (1 - s)^l s^(n_d - l), the
    number operators evaluated on the input state.  The mutual decay of
    ``interaction_channel_kraus`` thins the two modes independently at
    these rates, so this channel leaves the same d counts; on
    ``FockBasis(110)`` it has 2.3e5 entries where the mutual decay keeps
    5.5e6.
    """
    occ = np.array(basis.occupations)
    src = np.repeat(np.arange(basis.dim), occ[:, 0] + 1)
    lost = np.concatenate([np.arange(n_d + 1) for n_d in occ[:, 0]])
    n_d, n_p = occ[src, 0], occ[src, 1]
    weights = binom.pmf(lost, n_d, -np.expm1(-gamma_tau * n_p))
    kept = weights > 0
    dest = basis._index_table[n_d - lost, n_p]
    entries = (lost[kept], dest[kept], src[kept], np.sqrt(weights[kept]))
    return KrausChannel(basis, entries, trace_preserving=True)


def dense_kraus_sums(channel: KrausChannel, rho: np.ndarray) -> tuple:
    """Sum K rho K^dag and the defect max |sum K^dag K - I| over dense operators."""
    ops = dense_operators(channel)
    out = sum(k @ rho @ k.conj().T for k in ops)
    defect = np.max(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(channel.basis.dim)))
    return out, float(defect)


def random_entries(rng, d, count, trace_preserving):
    """Entry table of ``count`` random injective operators on dimension ``d``.

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
    op, dest, src, coeffs = entry_table(*ops)
    weight = np.bincount(src, weights=np.abs(coeffs) ** 2, minlength=d)
    top = weight if trace_preserving else np.full(d, weight.max())
    return op, dest, src, coeffs / np.sqrt(top[src])


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


def povm_fi(rho_family, rows, theta: float):
    """Classical FI of a number-diagonal POVM on a family of dense density matrices.

    ``rows`` is a real (outcomes, dim) array whose row j is the diagonal of
    element j, so outcome j has probability rows[j] . diag(rho).
    """

    def family(t):
        probs = rows @ np.diagonal(rho_family(t)).real
        return CountDistribution(dict(enumerate(probs.tolist())))

    return classical_fi(family, theta)


def qfi(rho_family, theta: float):
    """Quantum Fisher information of a family of dense density matrices.

    Uses the symmetric-logarithmic-derivative eigendecomposition formula
    F_Q = sum_{i,j: l_i + l_j > QFI_EIG_FLOOR} 2 |<i| drho |j>|^2 / (l_i + l_j)
    with drho a central finite difference of step ``FI_STEP``.  A family
    matrix that is not Hermitian within 1e-12 raises ``ValueError``.
    """
    rho0, rp, rm = (rho_family(t) for t in (theta, theta + FI_STEP, theta - FI_STEP))
    for rho in (rho0, rp, rm):
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
    drho = (rp - rm) / (2.0 * FI_STEP)
    evals, evecs = np.linalg.eigh(rho0)
    m = evecs.conj().T @ drho @ evecs
    pair_sums = evals[:, None] + evals[None, :]
    mask = pair_sums > QFI_EIG_FLOOR
    return float(np.sum(2.0 * np.abs(m[mask]) ** 2 / pair_sums[mask]))


def lossy_counts(rho: DensityOperator, eta: float):
    """Counts of both modes at efficiency ``eta``: the loss channel, then ``number_povm``."""
    basis = rho.basis
    return measure(apply_channel(rho, detection_loss_channel(basis, eta)), number_povm(basis))


def expectation_oracle(eta: float, theta: float) -> tuple[float, float, float, float]:
    """Matrix-pipeline evaluation of the four detected means at one angle.

    Independent check for ``expectation_curves``: builds the dense density
    matrix of |2,0> rotated by the dense :func:`rabi_rotation`, applies the
    dense error-prevention Kraus sum, and takes eta-scaled number-operator
    expectations tr(rho N).
    """
    basis = FockBasis(2)
    nd_op = mode_operator(basis, "d", "number")
    np_op = mode_operator(basis, "p", "number")
    psi = rabi_rotation(basis, theta) @ basis.state(2, 0).amplitudes
    rho_bare = dense_density(TwoModeFockState(basis, psi))
    rho_prev, _ = dense_kraus_sums(error_prevention_channel(), rho_bare)
    return tuple(
        eta * float(np.trace(rho @ op).real) for rho in (rho_prev, rho_bare) for op in (nd_op, np_op)
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


def void_view_unique_rows(hists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence indices of the distinct rows of ``hists``, and each row's distinct index.

    Each row is viewed as one opaque byte string and sorted by np.unique.
    """
    keys = hists.view(np.dtype((np.void, hists.dtype.itemsize * hists.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def full_grid_estimates(hists: np.ndarray, grid: np.ndarray, log_table: np.ndarray) -> np.ndarray:
    """ML estimate of each histogram row from its log-likelihood on every grid angle.

    The reference of the pruned search in
    ``estimation._estimates_for_histograms``: the distinct rows, in
    near-equal matmul blocks of at most ``BLOCK_ELEMENTS`` log-likelihood
    values, each refined by ``estimation._refine_argmax``.
    """
    first, inverse = void_view_unique_rows(hists)
    distinct = hists[first]
    blocks = -(-distinct.shape[0] * grid.size // BLOCK_ELEMENTS)
    hats = np.concatenate(
        [
            _refine_argmax(grid, block @ log_table.T)
            for block in np.array_split(distinct, max(1, blocks))
        ]
    )
    return hats[inverse]


def small_eta_normalized_fi(x: float, theta):
    """The eta -> 0 limit f_x of F / (n0 eta), in closed form.

    As eta -> 0 only P(0) and P(1) matter, and P(1) -> mu =
    D e^(-B (1 - e^(-gamma_tau))), so F -> mu'^2 / mu.  With loss after the
    interaction that is f_x(u) = u (1 + x (1 - u))^2 e^(-x u), with
    u = sin^2(theta/2) and x = n0 (1 - e^(-gamma_tau)).  With loss before
    it B is thinned too, so x -> 0 and f_0 = u.
    """
    u = np.sin(np.asarray(theta, dtype=float) / 2.0) ** 2
    return u * (1.0 + x * (1.0 - u)) ** 2 * np.exp(-x * u)


def electric_field_to_rabi(field_v_per_m: float, dipole_moment: float) -> float:
    """Rabi frequency d E / hbar in rad/s."""
    return dipole_moment * field_v_per_m / HBAR


def rabi_to_electric_field(rabi_rad_s: float, dipole_moment: float) -> float:
    """Electric field hbar Omega / d in V/m."""
    return rabi_rad_s * HBAR / dipole_moment


def angular_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule over c = cos(vartheta)."""
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    edges = np.linspace(-1.0, 1.0, ANGULAR_PANELS + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def angular_abs_integral() -> float:
    """Solid-angle integral of |angular factor| by the angular rule.

    Its exact value 8 pi / (3 sqrt(3)) enters the closed form for Q.
    """
    c, w = angular_nodes()
    f = (3.0 * c**2 - 1.0) / 2.0  # angular factor expressed in cos(vartheta)
    return 2.0 * math.pi * float(np.sum(w * np.abs(f)))


@functools.cache
def quadrature_j() -> tuple[complex, float]:
    """The excluded-volume constant J = int_0^inf g(s)/s^2 ds by quadrature.

    Returns J and the estimated relative error of its real part, the
    radial quadrature error plus the tail bound.

    g(s) = int_{-1}^{1} [1 - exp(-i s f(c))] dc with f(c) = (3 c^2 - 1)/2.
    The angular integration runs inside the radial one, so the signed
    angular lobes cancel the conditionally convergent (logarithmic)
    imaginary tail, which is the principal-value handling the bare
    per-angle radial integral would need near the angular zeros; the radial
    variable s is proportional to 1/r^3, which regularizes the oscillatory
    tail.  Beyond ``S_MAX`` the tail is analytic.  Only the real part
    carries the accuracy contract ``J_RE_MAX_REL_ERROR``, asserted here;
    the imaginary part is reported as computed.  It agrees with
    ``dipolar.J_CLOSED_FORM`` within about 4e-8 (Re) and 3e-7 (Im)
    relative.  J does not depend on the parameters, so it is computed once.
    """
    c_nodes, c_weights = angular_nodes()
    f_nodes = (3.0 * c_nodes**2 - 1.0) / 2.0

    def g(s: float) -> complex:
        # angular integral of 1 - exp(-i s f(c)) over c in [-1, 1]
        return complex(np.sum(c_weights * (1.0 - np.exp(-1j * s * f_nodes))))

    # split at s = 1; smooth near zero since the angular average of f
    # vanishes (g ~ s^2/5)
    def integrand(s, part):
        val = g(s) / s**2 if s > 0 else 0.2
        return val.real if part == "re" else val.imag

    parts = []
    for part in ("re", "im"):
        lo, err_lo = quad(integrand, 0.0, 1.0, args=(part,), limit=QUAD_LIMIT)
        hi, err_hi = quad(integrand, 1.0, S_MAX, args=(part,), limit=QUAD_LIMIT)
        parts.append((lo + hi, err_lo + err_hi))
    (re, err_re), (im, _) = parts
    # Tail beyond S_MAX: g -> 2 plus an oscillatory remainder bounded by
    # stationary-phase decay ~ sqrt(2 pi / 3 s).
    tail_bound = math.sqrt(2.0 * math.pi / 3.0) * (2.0 / 3.0) * S_MAX**-1.5
    j = complex(re + 2.0 / S_MAX, im)
    rel = (err_re + tail_bound) / abs(j.real)
    assert rel <= J_RE_MAX_REL_ERROR, f"quadrature of J reached {rel:.2e} on the real part"
    return j, rel
