"""Exact Kraus channels and number measurements of two bosonic modes on a truncated Fock space.

The two collective spinwave modes are labelled ``d`` and ``p``.  States are
plain float arrays of populations, aligned with the occupation basis
{|n_d, n_p>, n_d + n_p <= n_max} of ``basis.occupations``; quantum
operations are explicit Kraus lists and the measurement counts both
occupation numbers.  Nothing is approximated, so this module serves as the
brute-force oracle for the analytic photon statistics elsewhere.

Every operation of the protocol maps number states to number states, and
every read-out counts photons, so channels and measurements each have one
form and only the number-basis populations of a state are carried.  A
channel is one table of entries (op, dest, src, coeffs): entry e states
K_op[e] |src[e]> = coeffs[e] |dest[e]>, every operator is zero on the
basis states it has no entry for, and no operator repeats a source or a
destination.  Each such K maps the diagonal of rho to the diagonal of
K rho K^dag by moving |c_e|^2 rho[src_e, src_e] onto dest_e, and K^dag K
is diagonal with the entries |c_e|^2 on src, so no coherence of rho
reaches a population and no dense operator is formed.  The number
measurement has the projectors |n_d, n_p><n_d, n_p| onto the basis states
as its elements, so the probability of outcome (n_d, n_p) is the
population of that state and a measurement labels the populations by
their occupations.  These identities are exact, so the results are those
of the dense density-matrix formulas.

Bases, states and channels are immutable after construction, and all
operations are pure functions that return new population arrays, so
parameter sweeps can be evaluated in parallel without shared state.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockBasis",
    "TwoModeFockState",
    "KrausChannel",
    "CountDistribution",
    "apply_channel",
    "detection_loss_channel",
    "number_povm",
    "measure",
    "classical_fi",
    "coherent_state",
]

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
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


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool.

    The rule of ``rydsense.errors._is_integer``, restated here because the
    oracle imports nothing from the package.
    """
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class FockBasis:
    """Occupation basis for two modes truncated at ``n_max`` total excitations.

    The basis index runs over pairs (n_d, n_p) with n_d + n_p <= n_max in
    lexicographic order, giving dimension (n_max + 1)(n_max + 2) / 2.
    """

    def __init__(self, n_max: int):
        if not _is_integer(n_max) or n_max < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
        self.n_max = int(n_max)
        self.occupations = tuple(
            (nd, np_)
            for nd in range(self.n_max + 1)
            for np_ in range(self.n_max + 1 - nd)
        )
        self.dim = len(self.occupations)
        # basis index of (n_d, n_p), -1 outside the basis
        occ = np.array(self.occupations)
        self._index_table = np.full((self.n_max + 1,) * 2, -1, dtype=np.intp)
        self._index_table[occ[:, 0], occ[:, 1]] = np.arange(self.dim)

    def index_of(self, n_d: int, n_p: int) -> int:
        """Basis index of |n_d, n_p>; ``ValueError`` for a non-integer occupation."""
        if not (_is_integer(n_d) and _is_integer(n_p)):
            raise ValueError(f"occupations must be integers, got ({n_d!r}, {n_p!r})")
        # range first: the table would wrap negative occupations around
        if 0 <= min(n_d, n_p) and max(n_d, n_p) <= self.n_max:
            index = int(self._index_table[int(n_d), int(n_p)])
            if index >= 0:
                return index
        raise ValueError(f"occupation ({n_d}, {n_p}) outside basis with n_max={self.n_max}")

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

    def to_density(self) -> np.ndarray:
        """Number-basis populations |amplitudes|^2, aligned with ``basis.occupations``."""
        return (self.amplitudes * self.amplitudes.conj()).real


@dataclass(frozen=True)
class KrausChannel:
    """Quantum operation given by one table of Kraus entries on one basis.

    ``entries`` is the tuple ``(op, dest, src, coeffs)`` of four 1-D
    arrays of one length (see the module docstring); operators are labelled
    by non-negative integers.  Anything else, a dense matrix included, or a
    table that repeats a source or a destination within one operator raises
    ``ValueError``.  The completeness sum K^dag K is the diagonal of
    sum |c|^2 per source.  If ``trace_preserving`` it must equal the
    identity within 1e-10; otherwise it must not exceed the identity.
    ``entries`` holds the validated arrays, not copies, with intp
    indices, and ``weights`` = |coeffs|^2 the population transfer that
    :func:`apply_channel` applies.
    """

    basis: FockBasis
    entries: tuple
    trace_preserving: bool = True

    def __post_init__(self):
        if not (isinstance(self.entries, tuple) and len(self.entries) == 4):
            raise ValueError("Kraus entries must be an (op, dest, src, coeffs) tuple")
        op, dest, src, coeffs = (np.asarray(a) for a in self.entries)
        if not op.shape == dest.shape == src.shape == coeffs.shape == (coeffs.size,):
            raise ValueError("lowering-form index and coefficient arrays differ in length")
        dim = self.basis.dim
        # labels below intp max // dim keep the keys below from overflowing
        stop = np.iinfo(np.intp).max // dim
        op = _checked_indices(op, stop, f"Kraus operator labels must be integers in [0, {stop})")
        indices = f"lowering-form indices must be basis indices below {dim}"
        dest, src = (_checked_indices(idx, dim, indices) for idx in (dest, src))
        # entry e has the key op[e] * dim + idx[e], so only a repeat within
        # one operator puts two equal keys next to each other once sorted
        for idx in (dest, src):
            keys = op * dim
            keys += idx
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("lowering-form operator repeats a source or destination index")
        weights = np.abs(coeffs) ** 2
        total = np.bincount(src, weights=weights, minlength=dim)
        defect = float(np.max(np.abs(total - 1.0)))
        # negated, so that a NaN coefficient fails both checks
        if self.trace_preserving:
            if not defect <= TRACE_TOL:
                raise ValueError(
                    f"Kraus completeness defect {defect:.3e} exceeds 1e-10"
                )
        elif not total.max() <= 1.0 + TRACE_TOL:
            raise ValueError(
                f"non-trace-preserving channel exceeds identity by {total.max() - 1.0:.3e}"
            )
        object.__setattr__(self, "entries", (op, dest, src, coeffs))
        object.__setattr__(self, "completeness_defect", defect)
        object.__setattr__(self, "weights", weights)


def _checked_indices(a: np.ndarray, stop: int, message: str) -> np.ndarray:
    """``a`` as intp, if it is empty or an integer array with entries in [0, stop)."""
    if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= stop):
        raise ValueError(message)
    return a.astype(np.intp, copy=False)


@dataclass
class CountDistribution:
    """Probability mass function over measurement outcome labels.

    Labels are either detected occupation pairs (n_d, n_p) or plain photon
    numbers n_d.
    """

    probabilities: dict

    def __post_init__(self):
        for label, p in self.probabilities.items():
            # negated, so that a NaN probability fails too
            if not -1e-12 <= p < math.inf:
                raise ValueError(f"probability {p} for outcome {label!r} is negative or not finite")
        self.probabilities = {k: max(float(v), 0.0) for k, v in self.probabilities.items()}

    def get(self, label, default=0.0) -> float:
        return self.probabilities.get(label, default)

    def total(self) -> float:
        return float(sum(self.probabilities.values()))

    def marginal(self, mode: str = "d") -> "CountDistribution":
        """Collapse (n_d, n_p) labels onto one mode's photon number."""
        axis = MODES.index(mode)
        out: dict = {}
        for label, p in self.probabilities.items():
            n = label[axis]
            out[n] = out.get(n, 0.0) + p
        return CountDistribution(out)

    def tv_distance(self, other: "CountDistribution") -> float:
        labels = set(self.probabilities) | set(other.probabilities)
        return 0.5 * sum(abs(self.get(l) - other.get(l)) for l in labels)


def _checked_populations(populations, basis: FockBasis) -> np.ndarray:
    """``populations`` as a float array of shape ``(basis.dim,)``, each entry finite and >= -1e-10.

    Anything else raises ``ValueError``; populations on another basis have
    another length.  Any total passes: a lossy channel lowers it.
    """
    pops = np.asarray(populations, dtype=float)
    if pops.shape != (basis.dim,):
        raise ValueError(f"populations have shape {pops.shape}, expected ({basis.dim},)")
    if not np.all(np.isfinite(pops)) or pops.min() < -PSD_TOL:
        raise ValueError("populations must be finite and at least -1e-10")
    return pops


def apply_channel(populations, channel: KrausChannel) -> np.ndarray:
    """Apply a Kraus channel to populations: P -> diag(sum_k K rho K^dag).

    Every operator maps number states one-to-one, so the diagonal of
    sum_k K rho K^dag is sum_e |c_e|^2 P[src_e] placed at dest_e, over the
    channel's entries: one weighted ``bincount``, exact for any rho with
    populations P.  ``populations`` are checked as in :func:`measure`.
    """
    pops = _checked_populations(populations, channel.basis)
    _, dest, src, _ = channel.entries
    return np.bincount(dest, weights=channel.weights * pops[src], minlength=channel.basis.dim)


def _lowered_destinations(basis: FockBasis, lowered, op, src) -> np.ndarray:
    """Basis index of K_op[e] |src[e]> = c |n_d - a, n_p - b> for each entry e.

    ``lowered[j]`` is the pair (a, b) of operator j.  An entry on a state
    with n_d < a or n_p < b raises ``ValueError``.
    """
    occ = np.array(basis.occupations)
    n_d = occ[src, 0] - lowered[op, 0]
    n_p = occ[src, 1] - lowered[op, 1]
    if min(n_d.min(initial=0), n_p.min(initial=0)) < 0:
        raise ValueError("nonzero coefficient on a state that cannot be lowered")
    return basis._index_table[n_d, n_p]


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
    square roots of the thinning weights, and built as one entry table (no
    dense operator is formed).  Losses only lower occupation numbers, so
    the channel is exactly trace preserving on the truncated space.
    """
    amp = np.sqrt(_thinning_weights(basis.n_max, eta))
    # operator j loses the pair occ[j]; it acts on the sources i with
    # l <= n in each mode, and zero amplitudes (eta = 0 or 1) are left out
    occ = np.array(basis.occupations)
    j, i = np.nonzero((occ[:, None, 0] <= occ[None, :, 0]) & (occ[:, None, 1] <= occ[None, :, 1]))
    coeffs = amp[occ[i, 0], occ[j, 0]] * amp[occ[i, 1], occ[j, 1]]
    nonzero = coeffs != 0.0
    j, i, coeffs = j[nonzero], i[nonzero], coeffs[nonzero]
    dest = _lowered_destinations(basis, occ, j, i)
    return KrausChannel(basis, (j, dest, i, coeffs), trace_preserving=True)


def number_povm(basis: FockBasis) -> FockBasis:
    """Projective measurement of both occupation numbers.

    Its elements are the projectors |n_d, n_p><n_d, n_p| onto the states of
    ``basis``, so the basis itself is the measurement.
    """
    return basis


def measure(populations, povm: FockBasis) -> CountDistribution:
    """Outcome distribution p(n_d, n_p) = <n_d, n_p| rho |n_d, n_p> of ``number_povm``.

    Each outcome's probability is the population of its basis state, so
    the populations are labelled by their occupations.  Populations of
    another shape than ``(povm.dim,)``, or below -1e-10, NaN or infinite,
    raise ``ValueError``; rounding-level negatives count as 0.
    """
    pops = np.maximum(_checked_populations(populations, povm), 0.0)
    return CountDistribution(dict(zip(povm.occupations, pops.tolist())))


def classical_fi(dist_family, theta: float) -> float:
    """Classical Fisher information of ``dist_family`` at ``theta``.

    ``dist_family`` maps an angle (radians) to a :class:`CountDistribution`;
    the result is in 1/radian^2 and non-negative.  The derivatives are
    central finite differences with the step ``FI_STEP`` (1e-5 rad).
    Outcomes with probability below ``PROB_FLOOR`` (1e-15) leave the sum of
    (p')^2 / p; their limit 2 p'', from the second difference, is added
    instead, which makes the result correct at angles where probabilities
    vanish quadratically.
    """
    step = FI_STEP
    dists = [dist_family(t) for t in (theta, theta + step, theta - step)]
    labels = sorted(set().union(*(d.probabilities.keys() for d in dists)))
    table = np.array([[d.get(l) for l in labels] for d in dists])
    if table.min() < -1e-12:
        raise ValueError("distribution family produced negative probabilities")
    p0, pp, pm = np.clip(table, 0.0, None)
    dp = (pp - pm) / (2.0 * step)
    live = p0 >= PROB_FLOOR
    # For outcomes whose probability vanishes (generically quadratically in
    # theta), the limiting contribution (p')^2/p equals 2 p'' and is
    # recovered from the second central difference.
    curv = np.clip(pp + pm - 2.0 * p0, 0.0, None) * 2.0 / step**2
    return float(np.sum(dp[live] ** 2 / p0[live])) + float(np.sum(curv[~live]))


def coherent_state(basis: FockBasis, alpha_d: complex, alpha_p: complex) -> TwoModeFockState:
    """Truncated two-mode coherent state |alpha_d, alpha_p>.

    Non-finite amplitudes raise ``ValueError``, and so does a truncated
    tail mass above ``COHERENT_TAIL_TOL`` (1e-8; the basis is otherwise too
    small to serve as an oracle).  The retained amplitudes are
    renormalized.
    """
    if not (cmath.isfinite(alpha_d) and cmath.isfinite(alpha_p)):
        raise ValueError(f"coherent amplitudes must be finite, got {alpha_d!r}, {alpha_p!r}")
    # the total excitation number is Poisson(m), m = |alpha_d|^2 + |alpha_p|^2,
    # with a median of at least m - ln 2: from m = n_max + 2 on, half of its
    # mass lies beyond the basis (and |alpha|^2 may overflow a float)
    if math.hypot(abs(alpha_d), abs(alpha_p)) >= math.sqrt(basis.n_max + 2):
        raise ValueError(
            f"basis with n_max={basis.n_max} truncates coherent tail mass "
            f">= 0.5 > {COHERENT_TAIL_TOL:.0e}"
        )
    # log of alpha_d^n_d alpha_p^n_p e^(-m/2) / sqrt(n_d! n_p!): a power
    # alone passes the float range once |alpha|^n_max > 1.8e308
    occ = np.array(basis.occupations)
    log_fact = np.array([math.lgamma(n + 1) for n in range(basis.n_max + 1)])
    m = abs(alpha_d) ** 2 + abs(alpha_p) ** 2
    log_amp = (-0.5 * (m + log_fact[occ].sum(axis=1))).astype(complex)
    for n, alpha in zip(occ.T, (alpha_d, alpha_p)):
        if alpha:
            log_amp += n * cmath.log(alpha)
        else:
            log_amp[n > 0] = -math.inf
    amp = np.exp(log_amp)
    captured = float(np.sum(np.abs(amp) ** 2))
    tail = 1.0 - captured
    # negated, so that a NaN tail fails too
    if not tail <= COHERENT_TAIL_TOL:
        raise ValueError(
            f"basis with n_max={basis.n_max} truncates coherent tail mass "
            f"{tail:.3e} > {COHERENT_TAIL_TOL:.0e}"
        )
    return TwoModeFockState(basis, amp / math.sqrt(captured))
