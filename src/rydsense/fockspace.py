"""Exact linear algebra for two bosonic modes on a truncated Fock space.

The two collective spinwave modes are labelled ``d`` and ``p``.  States are
plain complex vectors over the occupation basis {|n_d, n_p>, n_d + n_p <=
n_max}, observables are dense matrices, quantum operations are explicit
Kraus lists and measurements are tables of POVM element diagonals.
Dimensions stay below ~150, so everything is exact; this module serves as
the brute-force oracle for the analytic photon statistics implemented
elsewhere in the package.

Every operation of the protocol maps number states to number states, and
every read-out counts photons, so channels and measurements each have one
form.  A Kraus operator is given in lowering form, the triple
(dest, src, coeffs) with K|src_i> = coeffs_i |dest_i> and K zero on every
other basis state, no source or destination repeated: K rho K^dag adds
c_i c_j^* rho[src_i, src_j] onto (dest_i, dest_j) elementwise, and K^dag K
is diagonal with the entries |c_i|^2 on src, so no dense operator is
formed.  A POVM element is diagonal in the number basis and given by its
diagonal m, so tr(rho M) is m . diag(rho).  These identities are exact, so
the results are those of the dense formulas.

All values are immutable after construction and all operations are pure
functions, so parameter sweeps can be evaluated in parallel without shared
state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "FockBasis",
    "TwoModeFockState",
    "DensityOperator",
    "KrausChannel",
    "PovmSet",
    "CountDistribution",
    "mode_operator",
    "rabi_rotation",
    "apply_channel",
    "detection_loss_channel",
    "number_povm",
    "lossy_number_povm",
    "measure",
    "classical_fi",
    "coherent_state",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
# Outcomes of classical_fi below this probability contribute their limit
# 2 p'' instead of (p')^2 / p.
PROB_FLOOR = 1e-15
# Central finite-difference step (radians) of classical_fi.
FI_STEP = 1e-5
# Largest relative gap allowed where a caller checks an exact or closed-form
# FI against classical_fi.
FI_CROSS_CHECK_MAX = 1e-6
COHERENT_TAIL_TOL = 1e-8

MODES = ("d", "p")
OPERATOR_KINDS = ("annihilate", "create", "number")


class FockBasis:
    """Occupation basis for two modes truncated at ``n_max`` total excitations.

    The basis index runs over pairs (n_d, n_p) with n_d + n_p <= n_max in
    lexicographic order, giving dimension (n_max + 1)(n_max + 2) / 2.
    """

    def __init__(self, n_max: int):
        if n_max < 0 or int(n_max) != n_max:
            raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
        self.n_max = int(n_max)
        self.occupations = tuple(
            (nd, np_)
            for nd in range(self.n_max + 1)
            for np_ in range(self.n_max + 1 - nd)
        )
        self._index = {occ: i for i, occ in enumerate(self.occupations)}
        self.dim = len(self.occupations)

    def index_of(self, n_d: int, n_p: int) -> int:
        """Basis index of |n_d, n_p>."""
        try:
            return self._index[(n_d, n_p)]
        except KeyError:
            raise ValueError(
                f"occupation ({n_d}, {n_p}) outside basis with n_max={self.n_max}"
            ) from None

    def occupation(self, index: int) -> tuple[int, int]:
        """Occupation pair (n_d, n_p) of a basis index."""
        return self.occupations[index]

    def state(self, n_d: int, n_p: int) -> "TwoModeFockState":
        """Basis ket |n_d, n_p> as a normalized state."""
        amp = np.zeros(self.dim, dtype=complex)
        amp[self.index_of(n_d, n_p)] = 1.0
        return TwoModeFockState(self, amp)

    def vacuum(self) -> "TwoModeFockState":
        return self.state(0, 0)

    def __eq__(self, other):
        return isinstance(other, FockBasis) and other.n_max == self.n_max

    def __hash__(self):
        return hash(("FockBasis", self.n_max))

    def __repr__(self):
        return f"FockBasis(n_max={self.n_max}, dim={self.dim})"


@dataclass(frozen=True)
class TwoModeFockState:
    """Complex state vector over a :class:`FockBasis`."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, expected ({self.basis.dim},)"
            )
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.basis, np.outer(self.amplitudes, self.amplitudes.conj()))

    def expectation(self, operator: np.ndarray) -> complex:
        return complex(self.amplitudes.conj() @ operator @ self.amplitudes)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian density matrix over a :class:`FockBasis`.

    Hermiticity is checked on construction.  Trace normalization and
    positivity are contract checks for normalized operators; operations
    producing unnormalized operators document that explicitly.
    """

    basis: FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"matrix has shape {mat.shape}, expected square of dim {self.basis.dim}"
            )
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", mat)

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def expectation(self, operator: np.ndarray) -> float:
        return float(np.real(np.trace(self.matrix @ operator)))

    def validate(self, normalized: bool = True) -> "DensityOperator":
        """Assert trace and positivity contracts, returning self."""
        if normalized and abs(self.trace() - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {self.trace()} deviates from 1 beyond 1e-10")
        eigs = np.linalg.eigvalsh(self.matrix)
        if eigs.min() < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {eigs.min():.3e} below -1e-10")
        return self


@dataclass(frozen=True)
class KrausChannel:
    """Quantum operation given by a list of Kraus operators on one basis.

    Each operator is a triple ``(dest, src, coeffs)`` of equal-length
    arrays (see the module docstring); anything else, a dense matrix
    included, or a triple that repeats a source or a destination index
    raises ``ValueError``.  The completeness sum K^dag K is the diagonal
    of sum |c|^2 per source.  If ``trace_preserving`` it must equal the
    identity within 1e-10; otherwise it must not exceed the identity.
    ``operators`` holds the validated triples.
    """

    basis: FockBasis
    operators: tuple
    trace_preserving: bool = True

    def __post_init__(self):
        if not self.operators:
            raise ValueError("channel needs at least one Kraus operator")
        dim = self.basis.dim
        ops = tuple(_checked_lowering(k, dim) for k in self.operators)
        # index checks over all operators at once: operator j's index i is
        # key j * dim + i, so a repeat counts only within one operator
        lengths = [coeffs.size for _, _, coeffs in ops]
        owner = np.repeat(np.arange(len(ops)) * dim, lengths)
        src_all = np.concatenate([src for _, src, _ in ops])
        for idx in (np.concatenate([dest for dest, _, _ in ops]), src_all):
            if not idx.size:
                continue
            if idx.min() < 0 or idx.max() >= dim:
                raise ValueError(f"lowering-form indices must be basis indices below {dim}")
            if np.bincount(owner + idx).max() > 1:
                raise ValueError("lowering-form operator repeats a source or destination index")
        weights = np.abs(np.concatenate([coeffs for _, _, coeffs in ops])) ** 2
        total = np.bincount(src_all, weights=weights, minlength=dim)
        defect = float(np.max(np.abs(total - 1.0)))
        if self.trace_preserving:
            if defect > TRACE_TOL:
                raise ValueError(
                    f"Kraus completeness defect {defect:.3e} exceeds 1e-10"
                )
        elif total.max() > 1.0 + TRACE_TOL:
            raise ValueError(
                f"non-trace-preserving channel exceeds identity by {total.max() - 1.0:.3e}"
            )
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "completeness_defect", defect)

    def __len__(self):
        return len(self.operators)


def _checked_lowering(op: tuple, dim: int) -> tuple:
    """(dest, src, coeffs) arrays of a lowering-form operator, shape and dtype checked.

    Only a 3-tuple is accepted, so a dense matrix with three rows is not
    mistaken for a triple.  The index range and repeated indices, which the
    scatter of :func:`apply_channel` would silently drop, are checked by
    :class:`KrausChannel` over all operators at once.
    """
    if not (isinstance(op, tuple) and len(op) == 3):
        raise ValueError("a Kraus operator must be a (dest, src, coeffs) triple")
    dest, src, coeffs = (np.asarray(a) for a in op)
    if not dest.shape == src.shape == coeffs.shape == (coeffs.size,):
        raise ValueError("lowering-form index and coefficient arrays differ in length")
    if coeffs.size and (dest.dtype.kind not in "iu" or src.dtype.kind not in "iu"):
        raise ValueError(f"lowering-form indices must be basis indices below {dim}")
    return dest.astype(np.intp), src.astype(np.intp), coeffs.astype(complex)


@dataclass(frozen=True)
class PovmSet:
    """Number-diagonal positive operator valued measure with labelled outcomes.

    ``elements`` is a real (outcomes, dim) array whose row j is the
    diagonal of the element with label ``labels[j]``.  On construction the
    rows must be real within 1e-12 (Hermitian), non-negative within 1e-10
    (positive semidefinite) and sum to one in every column within 1e-10
    (complete); otherwise ``ValueError`` is raised.
    """

    basis: FockBasis
    elements: np.ndarray
    labels: tuple

    def __post_init__(self):
        els = np.asarray(self.elements)
        d = self.basis.dim
        if els.ndim != 2 or els.shape[1] != d:
            raise ValueError(f"POVM elements have shape {els.shape}, expected (outcomes, {d})")
        if len(els) != len(self.labels):
            raise ValueError("one label per POVM element required")
        if np.max(np.abs(els.imag)) > HERMITICITY_TOL:
            raise ValueError("POVM element is not Hermitian: its diagonal is complex")
        els = els.real.astype(float)
        if els.min() < -PSD_TOL:
            raise ValueError("POVM element is not positive semidefinite within 1e-10")
        if np.max(np.abs(els.sum(axis=0) - 1.0)) > COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity within 1e-10")
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self):
        return len(self.elements)


@dataclass
class CountDistribution:
    """Probability mass function over measurement outcome labels.

    Labels are either detected occupation pairs (n_d, n_p) or plain photon
    numbers n_d.  ``theta`` optionally records the rotation angle the
    distribution was evaluated at.
    """

    probabilities: dict
    theta: float | None = None

    def __post_init__(self):
        for label, p in self.probabilities.items():
            if p < -1e-12:
                raise ValueError(f"negative probability {p} for outcome {label!r}")
        self.probabilities = {k: max(float(v), 0.0) for k, v in self.probabilities.items()}

    def get(self, label, default=0.0) -> float:
        return self.probabilities.get(label, default)

    def total(self) -> float:
        return float(sum(self.probabilities.values()))

    def mean(self) -> float:
        """Mean outcome for integer-labelled distributions."""
        return float(sum(n * p for n, p in self.probabilities.items()))

    def marginal(self, mode: str = "d") -> "CountDistribution":
        """Collapse (n_d, n_p) labels onto one mode's photon number."""
        axis = MODES.index(mode)
        out: dict = {}
        for label, p in self.probabilities.items():
            n = label[axis]
            out[n] = out.get(n, 0.0) + p
        return CountDistribution(out, theta=self.theta)

    def tv_distance(self, other: "CountDistribution") -> float:
        labels = set(self.probabilities) | set(other.probabilities)
        return 0.5 * sum(abs(self.get(l) - other.get(l)) for l in labels)

    def sorted_items(self):
        return sorted(self.probabilities.items())


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
    """Unitary of a microwave Rabi rotation by ``theta`` between the modes.

    Implemented as expm(i (theta/2) (d^dag p + p^dag d)); the sign fixes
    the phase convention in which |2,0> rotates to cos^2(theta/2)|2,0> +
    (i/sqrt(2)) sin(theta)|1,1> - sin^2(theta/2)|0,2>.  The generator
    conserves total excitation number, so the matrix stays exactly unitary
    on the truncated space.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    dd = mode_operator(basis, "d", "create")
    pp = mode_operator(basis, "p", "create")
    d_ = mode_operator(basis, "d", "annihilate")
    p_ = mode_operator(basis, "p", "annihilate")
    gen = dd @ p_ + pp @ d_
    return expm(1j * (theta / 2.0) * gen)


def apply_channel(rho: DensityOperator, channel: KrausChannel) -> DensityOperator:
    """Apply a Kraus channel: rho -> sum_k K rho K^dag.

    Each operator adds the elementwise product c_i rho[src_i, src_j] c_j^*
    onto the (dest, dest) block, with no matmul.
    """
    if channel.basis != rho.basis:
        raise ValueError("channel and state are defined on different bases")
    out = np.zeros_like(rho.matrix)
    for dest, src, coeffs in channel.operators:
        out[dest[:, None], dest] += coeffs[:, None] * rho.matrix[src[:, None], src] * coeffs.conj()
    out = 0.5 * (out + out.conj().T)  # suppress roundoff asymmetry
    return DensityOperator(rho.basis, out)


def _lowering_operators(basis: FockBasis, lowered, coeffs) -> tuple:
    """Lowering-form operators K_j |n_d, n_p> = coeffs[j, i] |n_d - a_j, n_p - b_j>.

    ``lowered`` is a (J, 2) integer array of the pairs (a_j, b_j) and
    ``coeffs`` a (J, dim) array over the basis index i of |n_d, n_p>.  A
    nonzero coefficient on a state with n_d < a_j or n_p < b_j raises
    ``ValueError``.  Operators without a nonzero coefficient are left out;
    the others are (dest, src, coeffs) triples for :class:`KrausChannel`.
    """
    occ = np.array(basis.occupations)
    index = np.zeros((basis.n_max + 1,) * 2, dtype=int)
    index[occ[:, 0], occ[:, 1]] = np.arange(basis.dim)
    op, src = np.nonzero(coeffs)
    dest = occ[src] - lowered[op]
    if dest.min(initial=0) < 0:
        raise ValueError("nonzero coefficient on a state that cannot be lowered")
    # np.nonzero runs row-major, so each operator's entries are contiguous
    cuts = np.flatnonzero(np.diff(op)) + 1
    parts = (np.split(a, cuts) for a in (index[dest[:, 0], dest[:, 1]], src, coeffs[op, src]))
    return tuple(zip(*parts))


def _thinning_weights(n_max: int, eta: float) -> np.ndarray:
    """w[n, l] = C(n, l) eta^(n - l) (1 - eta)^l: l of n excitations lost, zero for l > n."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    n = np.arange(n_max + 1)
    comb = np.array([[math.comb(a, b) for b in n] for a in n], dtype=float)
    kept = np.maximum(n[:, None] - n[None, :], 0)
    return comb * eta**kept * (1.0 - eta) ** n[None, :]


def detection_loss_channel(basis: FockBasis, eta: float) -> KrausChannel:
    """Independent binomial thinning of both modes with efficiency ``eta``.

    Standard beam-splitter loss with a vacuum ancilla; Kraus operators are
    indexed by the number of excitations lost per mode, with amplitudes the
    square roots of the thinning weights, and built in lowering form (no
    dense operator is formed).  Losses only lower occupation numbers, so
    the channel is exactly trace preserving on the truncated space.
    """
    amp = np.sqrt(_thinning_weights(basis.n_max, eta))
    # the operators are indexed by the lost pairs (l_d, l_p), which run over
    # the occupation pairs of the basis
    occ = np.array(basis.occupations)
    coeffs = amp[occ[None, :, 0], occ[:, None, 0]] * amp[occ[None, :, 1], occ[:, None, 1]]
    return KrausChannel(basis, _lowering_operators(basis, occ, coeffs), trace_preserving=True)


def number_povm(basis: FockBasis) -> PovmSet:
    """Projective measurement of both occupation numbers.

    The element diagonals of |i><i| are the rows of the identity.
    """
    return PovmSet(basis, np.eye(basis.dim), basis.occupations)


def lossy_number_povm(basis: FockBasis, eta: float) -> PovmSet:
    """Photon counting preceded by efficiency-``eta`` loss, as one POVM.

    The element for detected pair (i, j) has the diagonal entry
    w[n_d, n_d - i] w[n_p, n_p - j] on every occupation (n_d, n_p) with
    n_d >= i and n_p >= j, and zero elsewhere, where w is the
    thinning-weight table of :func:`detection_loss_channel`.  This is the
    Heisenberg picture of that channel followed by :func:`number_povm`.
    """
    w = _thinning_weights(basis.n_max, eta)
    n = np.arange(basis.n_max + 1)
    lost = n[:, None] - n[None, :]
    # detected[n, i]: weight of detecting i of n excitations
    detected = np.where(lost >= 0, w[n[:, None], lost], 0.0)
    occ = np.array(basis.occupations)
    els = detected[occ[None, :, 0], occ[:, None, 0]] * detected[occ[None, :, 1], occ[:, None, 1]]
    return PovmSet(basis, els, basis.occupations)


def measure(rho: DensityOperator, povm: PovmSet) -> CountDistribution:
    """Outcome distribution p(label) = tr(rho M_label) = m_label . diag(rho)."""
    if povm.basis != rho.basis:
        raise ValueError("POVM and state are defined on different bases")
    probs = povm.elements @ rho.matrix.diagonal().real
    return CountDistribution(dict(zip(povm.labels, probs.tolist())))


def _family_probabilities(dist_family, thetas):
    dists = [dist_family(t) for t in thetas]
    labels = sorted(set().union(*(d.probabilities.keys() for d in dists)))
    table = np.array([[d.get(l) for l in labels] for d in dists])
    if table.min() < -1e-12:
        raise ValueError("distribution family produced negative probabilities")
    return labels, np.clip(table, 0.0, None)


def _fi_once(dist_family, theta, step):
    labels, table = _family_probabilities(
        dist_family, (theta, theta + step, theta - step)
    )
    p0, pp, pm = table
    dp = (pp - pm) / (2.0 * step)
    live = p0 >= PROB_FLOOR
    # For outcomes whose probability vanishes (generically quadratically in
    # theta), the limiting contribution (p')^2/p equals 2 p'' and is
    # recovered from the second central difference.
    curv = np.clip(pp + pm - 2.0 * p0, 0.0, None) * 2.0 / step**2
    skipped = [labels[i] for i in np.nonzero(~live)[0]]
    bound = float(np.sum(curv[~live]))
    fi = float(np.sum(dp[live] ** 2 / p0[live])) + bound
    diagnostics = {
        "step": step,
        "skipped_labels": skipped,
        "skipped_bound": bound,
        "degenerate": bool(skipped),
    }
    return fi, diagnostics


def classical_fi(
    dist_family,
    theta: float,
    *,
    check_step: bool = False,
    full_output: bool = False,
):
    """Classical Fisher information of ``dist_family`` at ``theta``.

    The derivatives are central finite differences with the step
    ``FI_STEP`` (1e-5 rad).  Outcomes with probability below
    ``PROB_FLOOR`` (1e-15) leave the sum of (p')^2 / p; their limit 2 p'',
    from the second difference, is added instead, which makes the result
    correct at angles where probabilities vanish quadratically.  The
    diagnostics list them as ``skipped_labels`` with their total
    contribution ``skipped_bound``.

    Parameters
    ----------
    dist_family : callable
        Maps an angle to a :class:`CountDistribution`.
    theta : float
        Evaluation point (radians).
    check_step : bool
        Re-evaluate at half the step and warn if the result moves by more
        than 1e-4 relative (step-robustness check).
    full_output : bool
        Also return the diagnostics dict.

    Returns
    -------
    float or (float, dict)
        Fisher information in 1/radian^2 (non-negative).
    """
    fi, diag = _fi_once(dist_family, theta, FI_STEP)
    if check_step:
        fi_half, _ = _fi_once(dist_family, theta, FI_STEP / 2.0)
        rel = abs(fi_half - fi) / max(abs(fi_half), 1e-30)
        diag["step_check_rel_change"] = rel
        if rel > 1e-4:
            warnings.warn(
                f"Fisher information changed by {rel:.2e} when halving the step; "
                "result may not be converged",
                stacklevel=2,
            )
    return (fi, diag) if full_output else fi


def coherent_state(
    basis: FockBasis,
    alpha_d: complex,
    alpha_p: complex,
    *,
    full_output: bool = False,
):
    """Truncated two-mode coherent state |alpha_d, alpha_p>.

    The truncated tail mass must stay below ``COHERENT_TAIL_TOL`` (1e-8;
    the basis is otherwise too small to serve as an oracle) and the
    retained amplitudes are renormalized.  ``full_output`` also returns
    the tail mass.
    """
    amp = np.zeros(basis.dim, dtype=complex)
    log_norm = -0.5 * (abs(alpha_d) ** 2 + abs(alpha_p) ** 2)
    for i, (nd, np_) in enumerate(basis.occupations):
        coeff = alpha_d**nd * alpha_p**np_
        amp[i] = coeff * math.exp(
            log_norm - 0.5 * (math.lgamma(nd + 1) + math.lgamma(np_ + 1))
        )
    captured = float(np.sum(np.abs(amp) ** 2))
    tail = 1.0 - captured
    if tail > COHERENT_TAIL_TOL:
        raise ValueError(
            f"basis with n_max={basis.n_max} truncates coherent tail mass "
            f"{tail:.3e} > {COHERENT_TAIL_TOL:.0e}"
        )
    state = TwoModeFockState(basis, amp / math.sqrt(captured))
    if full_output:
        return state, tail
    return state
