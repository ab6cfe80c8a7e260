"""Photon-count statistics of interacting bi-coherent spinwave states.

A weak coherent state with mean excitation number n0 is Rabi-rotated by the
angle theta, splitting into a bi-coherent state with intrinsic populations
n0 cos^2(theta/2) and n0 sin^2(theta/2).  Each excitation in one mode damps
the phase-matched read-out of the other at the rate gamma, accumulated over
the interaction time into the dimensionless product gamma_tau.  The detected
photon number in the read-out mode then follows a Poisson mixture

    P(n) = sum_k Poisson(k; B) Poisson(n; D exp(-gamma_tau k))

where B is the mean of the mode driving the decay and D the detected mean
of the read-out mode.  Detection loss eta enters as Poisson thinning and can
be placed after the interaction (experimental situation: B stays intrinsic,
only D is thinned) or before it (B is thinned too, destroying the
advantage).

One batched kernel evaluates the mixture for rows of means (B, D) in the
factored form (D^n / n!) sum_k Pois(k; B) e^(-mu_k) e^(-gamma_tau k n):
one exp of the k weights per block of rows, one matmul with the shared
e^(-gamma_tau k n) per block of counts.  It returns the pmf, or log P for
likelihood tables, and raises :class:`NumericalError` when a truncation or
a full-window row could lose probability mass.  The exact Fisher
information takes the B and D derivatives of P from the same kernel, as
differences of pmfs at shifted means.

The read-out is mode d.  Mode p at theta is mode d at pi - theta, where
cos^2((pi - theta)/2) = sin^2(theta/2) swaps the two populations;
:func:`super_rabi_means` still reports both modes' means.

The same physics is available as explicit Kraus channels on the truncated
Fock space, which the analytic formulas are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fockspace import CountDistribution, FockBasis, KrausChannel, _lowered_destinations

__all__ = [
    "LOSS_AFTER",
    "LOSS_BEFORE",
    "ProtocolParams",
    "super_rabi_means",
    "count_distribution",
    "count_pmf",
    "interaction_channel_kraus",
    "fisher_information",
    "normalized_fi",
    "fit_exponential_decay",
]

LOSS_AFTER = "after_interaction"
LOSS_BEFORE = "before_interaction"

# Largest probability mass a truncated Poisson-mixture sum may neglect.
TAIL_MASS_MAX = 1e-12
# Elements of each (angle, k) or (angle, n) block the kernel evaluates at once.
BLOCK_ELEMENTS = 1 << 17
# Largest shortfall below 1 of the mass of a pmf row on its full count window.
ROW_MASS_DEFECT_MAX = 1e-10
# Largest exponent gamma_tau k j spanned within one block of counts (about
# half the normal double range, so the kernel's sums never underflow).
_EXP_SPAN = -0.5 * math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class ProtocolParams:
    """Inputs of the multi-particle counting model.

    n0 is the intrinsic mean excitation number, eta the detection
    efficiency, gamma_tau the decay-time product, loss_order the placement
    of the detection loss relative to the interaction.
    """

    n0: float
    eta: float
    gamma_tau: float
    loss_order: str = LOSS_AFTER

    def __post_init__(self):
        if not 0.0 <= self.n0 < math.inf:
            raise ValueError(f"n0 must be finite and non-negative, got {self.n0}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.gamma_tau < math.inf:
            raise ValueError(
                f"gamma_tau must be finite and non-negative, got {self.gamma_tau}"
            )
        if self.loss_order not in (LOSS_AFTER, LOSS_BEFORE):
            raise ValueError(
                f"loss_order must be {LOSS_AFTER!r} or {LOSS_BEFORE!r}, "
                f"got {self.loss_order!r}"
            )

    @property
    def detected_mean(self) -> float:
        return self.n0 * self.eta


def _populations(theta):
    """Rabi populations cos^2(theta/2) of mode d and sin^2(theta/2) of mode p."""
    # both directly: 1 - cos^2(theta/2) keeps no digits near 0
    return np.cos(theta / 2.0) ** 2, np.sin(theta / 2.0) ** 2


def _means(params: ProtocolParams, pop_read, pop_ctrl):
    """(B, D) from the populations of the read-out and the decay-driving mode."""
    scale = params.n0 if params.loss_order == LOSS_AFTER else params.eta * params.n0
    return scale * pop_ctrl, params.eta * params.n0 * pop_read


def _mixture_means(params: ProtocolParams, theta, order: int = 0):
    """(B, D) of the mode-d read-out at scalar or array ``theta``.

    ``order=1`` gives their theta-derivatives instead.
    """
    if order == 0:
        return _means(params, *_populations(theta))
    slope = 0.5 * np.sin(theta)  # cos^2(theta/2) = (1 + cos theta) / 2
    return _means(params, -slope, slope)


def super_rabi_means(params: ProtocolParams, theta):
    """Detected mean photon numbers (<n_d>, <n_p>) at scalar or array ``theta``.

    Exact mean of the Poisson mixture: D exp[-B (1 - exp(-gamma_tau))]
    for each mode, which for losses after the interaction reads
    eta n0 cos^2(theta/2) exp[-n0 (1 - e^-gamma_tau) sin^2(theta/2)] in
    mode d and its mirror image in mode p, whose means swap the two
    populations.  Reduces to the plain Rabi populations at gamma_tau = 0.
    A scalar ``theta`` gives two floats, an array two arrays of its shape;
    every element equals the scalar call.
    """
    thetas = np.asarray(theta, dtype=float)
    decay = 1.0 - math.exp(-params.gamma_tau)
    cos2, sin2 = _populations(thetas)
    means = []
    for b, d in (_means(params, cos2, sin2), _means(params, sin2, cos2)):
        means.append(d * np.exp(-b * decay))
    if thetas.ndim == 0:
        return float(means[0]), float(means[1])
    return means[0], means[1]


def _log_factorials(size: int) -> np.ndarray:
    """log k! for k = 0..size - 1, sliced from a cached power-of-two table."""
    return _log_factorial_table(1 << (size - 1).bit_length())[:size]


@functools.cache
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.flags.writeable = False
    return table


def _window(mean: float) -> int:
    """Last index kept of a sum over a Poisson(mean) variable."""
    return math.ceil(mean + 8.0 * math.sqrt(mean) + 10.0)


def _tail_bound(mean: float, cut: int) -> float:
    """Upper bound on P(X > cut) for X ~ Poisson(mean).

    Beyond cut + 1 consecutive terms shrink by at least mean / (cut + 2),
    so the tail is at most Poisson(cut + 1; mean) / (1 - mean / (cut + 2)).
    """
    if mean <= 0:
        return 0.0
    if cut + 2 <= mean:
        return math.inf
    log_head = (cut + 1) * math.log(mean) - mean - math.lgamma(cut + 2)
    return math.exp(log_head) / (1.0 - mean / (cut + 2))


def _mixture_table(b, d, gamma_tau: float, n_cut: int | None = None, log: bool = False):
    """Mixture pmfs P(n; B, D) for n = 0..n_cut on every row, shape (T, n_cut + 1).

    ``b`` and ``d`` are 1-D arrays of T means: B of the decay-driving mode
    and D of the detected read-out mode.  Rows run in blocks, and in each
    block k runs to the window of that block's largest B; without
    ``n_cut``, n runs to the window of the largest D.
    :class:`NumericalError` if a block's neglected mass could exceed
    ``TAIL_MASS_MAX``.  The sum is factored as

        P(n) = (D^n / n!) sum_k Pois(k; B) e^(-mu_k) e^(-gamma_tau k n),

    mu_k = D e^(-gamma_tau k).  For a block of rows and a block of counts
    from n_b on, the weights a_k = log Pois(k; B) - mu_k - gamma_tau k n_b
    are exponentiated once, shifted by their row maximum alpha, and one
    matmul with the shared e^(-gamma_tau k j), j = n - n_b, gives S; then
    log P = alpha + n log D - log n! + log S.  Count blocks are narrow
    enough that gamma_tau k j stays below ``_EXP_SPAN``, so the largest
    term of S never underflows, and D = 0 or B = 0 give exact point
    masses.  ``log`` returns log P, which is -inf only where P is exactly 0.
    Without ``n_cut`` each row must hold its mass: a shortfall beyond
    ``ROW_MASS_DEFECT_MAX`` raises :class:`NumericalError`.

    Count blocks keep every (row, k) and (row, n) temporary within
    ``BLOCK_ELEMENTS``, and row blocks within a quarter of it, so that the
    k windows of a grid follow B.
    """
    k_cut = _window(float(b.max(initial=0.0)))
    full_window = n_cut is None
    n_neglected = 0.0
    if full_window:
        d_max = float(d.max(initial=0.0))
        n_cut = _window(d_max)
        n_neglected = _tail_bound(d_max, n_cut)
    gt = gamma_tau
    k = np.arange(k_cut + 1)
    n = np.arange(n_cut + 1)
    log_fact = _log_factorials(max(k.size, n.size))
    neg_damp = -np.exp(-gt * k)
    with np.errstate(divide="ignore"):
        log_b, log_d = np.log(b)[:, None], np.log(d)[:, None]
    # n log D - log n!, with n log D = 0 at n = 0 also where D = 0
    head = np.zeros((b.size, n.size))
    np.multiply(log_d, n[1:], out=head[:, 1:])
    head -= log_fact[: n.size]
    width = min(n.size, max(1, BLOCK_ELEMENTS // k.size))
    if gt * k_cut * (width - 1) > _EXP_SPAN:
        width = 1 + int(_EXP_SPAN / (gt * k_cut))
    shared = np.exp(-gt * np.outer(k, np.arange(width)))
    # log Pois and the weights of one row block share a quarter of the
    # budget, so that the blocks' k windows can follow B along the grid
    rows = max(1, BLOCK_ELEMENTS // (8 * max(k.size, width)))
    table = np.empty((b.size, n.size))
    buffer = np.empty(min(rows, b.size) * 2 * k.size)
    for r0 in range(0, b.size, rows):
        rs = slice(r0, r0 + rows)
        b_top = float(b[rs].max())
        block_cut = _window(b_top)
        neglected = _tail_bound(b_top, block_cut) + n_neglected
        if neglected > TAIL_MASS_MAX:
            raise NumericalError(
                f"Poisson-mixture truncation at k <= {block_cut}, n <= {n_cut} may "
                f"neglect mass {neglected:.3e} > {TAIL_MASS_MAX:.0e}"
            )
        kb = k[: block_cut + 1]
        m = b[rs].size
        # log Pois(k; B), with k log B = 0 at k = 0 also where B = 0
        log_pois = buffer[: m * kb.size].reshape(m, kb.size)
        log_pois[:, 0] = 0.0
        np.multiply(log_b[rs], kb[1:], out=log_pois[:, 1:])
        log_pois -= b[rs, None]
        log_pois -= log_fact[: kb.size]
        a = buffer[m * kb.size : 2 * m * kb.size].reshape(m, kb.size)
        for n0 in range(0, n.size, width):
            cs = slice(n0, n0 + width)
            np.multiply(d[rs, None], neg_damp[: kb.size], out=a)
            if n0:
                a -= (gt * n0) * kb
            a += log_pois
            alpha = a.max(axis=1, keepdims=True)
            a -= alpha
            np.exp(a, out=a)
            s = a @ shared[: kb.size, : n[cs].size]
            table[rs, cs] = alpha + head[rs, cs] + np.log(s)
    if log and not full_window:
        return table
    p = np.exp(table)
    if full_window:
        defect = float(np.max(1.0 - p.sum(axis=1), initial=0.0))
        if defect > ROW_MASS_DEFECT_MAX:
            raise NumericalError(
                f"Poisson-mixture rows lost mass {defect:.3e} > "
                f"{ROW_MASS_DEFECT_MAX:.0e} on the full count window"
            )
    return table if log else p


def count_pmf(params: ProtocolParams, theta: float) -> np.ndarray:
    """Dense pmf over detected counts 0..n_cut (inclusive) in mode d.

    n_cut is the kernel's window of the read-out mean D, so the neglected
    tail stays below 1e-12.
    """
    b, d = _mixture_means(params, np.atleast_1d(np.asarray(theta, dtype=float)))
    return _mixture_table(b, d, params.gamma_tau)[0]


def count_distribution(params: ProtocolParams, theta: float) -> CountDistribution:
    """Distribution of the detected photon number in mode d at ``theta``.

    Truncated so that the neglected Poisson tails stay below 1e-12 in both
    the count and the decay-driving sums; raises :class:`NumericalError`
    if the result is not normalized within 1e-9.
    """
    pmf = count_pmf(params, theta)
    dist = CountDistribution({int(n): float(p) for n, p in enumerate(pmf)})
    defect = abs(dist.total() - 1.0)
    if defect > 1e-9:
        raise NumericalError(
            f"count distribution not normalized: total mass defect {defect:.3e}"
        )
    return dist


def _log_expm1(x: float) -> float:
    """log(exp(x) - 1), stable for large x."""
    if x <= 0:
        return -math.inf
    if x < 30.0:
        return math.log(math.expm1(x))
    return x + math.log1p(-math.exp(-x))


def interaction_channel_kraus(
    basis: FockBasis, gamma_tau: float, symmetric: bool = True
) -> KrausChannel:
    """Mutual interaction-induced decay as a Kraus channel on ``basis``.

    The asymmetric variant damps mode d at a rate set by the occupation of
    mode p, with operators indexed by the number l of lost d excitations:

        K_l = d^l sqrt((e^(gt n_p) - 1)^l / l!) e^(-gt n_p n_d / 2)

    (gt = gamma_tau, number operators evaluated on the input state).  The
    symmetric variant K_{k,m} damps both modes mutually and recovers the
    two-excitation error-prevention pair in the limit gamma_tau -> inf.
    All operators only lower occupations, so the channel is trace
    preserving on the truncated space up to the weights below 1e-14 that
    are dropped.  The feasible (operator, source) pairs are the entry
    table of :class:`~rydsense.fockspace.KrausChannel`, with no dense
    operator or coefficient array formed.  The completeness defect is
    checked once, on the returned channel (built as not trace preserving,
    so it is checked not to exceed the identity): above 1e-6 it raises
    ``ValueError``, as does a negative or non-finite ``gamma_tau``.
    """
    if not 0.0 <= gamma_tau < math.inf:
        raise ValueError(f"gamma_tau must be finite and non-negative, got {gamma_tau}")
    gt = float(gamma_tau)
    occ = np.array(basis.occupations)
    n = np.arange(basis.n_max + 1)
    if gt == 0.0:
        lowered = np.zeros((1, 2), dtype=int)
    elif symmetric:
        # K_{k,m} lowers (n_d, n_p) by (m, k); (k, m) runs in basis order
        lowered = occ[:, ::-1]
    else:
        lowered = np.stack((n, np.zeros_like(n)), axis=1)
    log_fact = _log_factorials(n.size)
    log_rate = np.array([_log_expm1(gt * i) for i in n])
    nd, np_ = occ[:, 0], occ[:, 1]
    lost_d, lost_p = lowered[:, :1], lowered[:, 1:]
    feasible = (nd >= lost_d) & (np_ >= lost_p)
    feasible &= ((lost_p == 0) | (nd > 0)) & ((lost_d == 0) | (np_ > 0))
    j, i = np.nonzero(feasible)
    nd_i, np_i = nd[i], np_[i]
    log_amp2 = -(2.0 if symmetric else 1.0) * gt * nd_i * np_i
    # lose l of the m excitations of one mode at the rate driven by the
    # other mode's occupation c: (e^(gt c) - 1)^l / l! * m! / (m - l)!
    for lost, pool, other in ((lost_p[j, 0], np_i, nd_i), (lost_d[j, 0], nd_i, np_i)):
        rate = np.multiply(lost, log_rate[other], out=np.zeros(lost.shape), where=lost > 0)
        log_amp2 += rate - log_fact[lost]
        log_amp2 += log_fact[pool] - log_fact[pool - lost]
    amp = np.exp(0.5 * log_amp2)
    kept = amp > 1e-14
    j, i, amp = j[kept], i[kept], amp[kept]
    dest = _lowered_destinations(basis, lowered, j, i)
    channel = KrausChannel(basis, (j, dest, i, amp), trace_preserving=False)
    if channel.completeness_defect > 1e-6:
        raise ValueError(
            f"basis too small for gamma_tau={gamma_tau}: "
            f"leakage {channel.completeness_defect:.3e}"
        )
    return channel


def fisher_information(params: ProtocolParams, theta):
    """Per-shot Fisher information of the detected counts, exact and angle-batched.

    F(theta) = sum_n (dP/dtheta)^2 / P with dP/dtheta = B' dP/dB + D' dP/dD.
    With P(n; B, D) the mixture and c = e^(-gamma_tau), the ladder
    identities

        dP/dB(n) = P(n; B, c D) - P(n; B, D),
        dP/dD(n) = e^(-B (1 - c)) [P(n - 1; c B, D) - P(n; c B, D)]

    (the second from Pois(k; B) c^k = e^(-B (1 - c)) Pois(k; c B)) divide by
    neither B nor D, so one kernel call on the stacked rows (B, D),
    (B, c D) and (c B, D) of all angles gives F; every row keeps the
    kernel's mass check.  Outcomes whose P underflows to 0 add nothing.  A
    scalar ``theta`` gives a float, an array an array of its shape.  With
    n0 eta = 0 nothing is detected and F is exactly 0.
    """
    thetas = np.asarray(theta, dtype=float)
    column = thetas.reshape(-1, 1)
    if params.detected_mean == 0:
        fi = np.zeros(column.shape[0])
    else:
        db, dd = _mixture_means(params, column, order=1)
        b, d = _mixture_means(params, column[:, 0])
        c = math.exp(-params.gamma_tau)
        # the three rows of an angle sit together, so that each block's k
        # window follows B along the grid
        rows = _mixture_table(
            np.stack((b, b, c * b), axis=1).ravel(),
            np.stack((d, c * d, d), axis=1).ravel(),
            params.gamma_tau,
        )
        p, p_lower_d, p_lower_b = rows.reshape(b.size, 3, -1).transpose(1, 0, 2)
        dp_db = p_lower_d - p
        dp_dd = np.diff(p_lower_b, prepend=0.0, axis=1)
        dp_dd *= -np.exp(np.expm1(-params.gamma_tau) * b)[:, None]
        grad = db * dp_db + dd * dp_dd
        fi = np.sum(np.divide(grad**2, p, out=np.zeros_like(p), where=p > 0.0), axis=1)
    return float(fi[0]) if thetas.ndim == 0 else fi.reshape(thetas.shape)


def normalized_fi(params: ProtocolParams, theta):
    """Fisher information per mean detected photon, F / (n0 eta)."""
    if params.detected_mean <= 0:
        raise ValueError("normalized FI undefined for zero mean photon number")
    return fisher_information(params, theta) / params.detected_mean


def fit_exponential_decay(times, values) -> tuple[float, float]:
    """Least-squares fit of values ~ amplitude * exp(-rate * times).

    Closed-form least-squares line through (times, log values); exact on
    noiseless exponential data.  Returns (rate, amplitude).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.size < 2:
        raise ValueError("need matching time/value arrays with at least two points")
    if np.any(values <= 0):
        raise ValueError("exponential fit requires positive values")
    offsets = times - times.mean()
    spread = float(offsets @ offsets)
    if not spread > 0:
        raise ValueError("exponential fit needs at least two distinct times")
    log_values = np.log(values)
    mean_log = float(log_values.mean())
    rate = float(offsets @ (mean_log - log_values)) / spread
    return rate, math.exp(mean_log + rate * float(times.mean()))
