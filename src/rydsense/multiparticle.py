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

One angle-batched kernel evaluates the mixture in the factored form
(D^n / n!) sum_k Pois(k; B) e^(-mu_k) e^(-gamma_tau k n): one exp of the k
weights per block of angles, one matmul with the shared e^(-gamma_tau k n)
per block of counts.  It returns the pmf, its B and D derivatives for the
exact Fisher information, or log P for likelihood tables, and raises
:class:`NumericalError` when a truncation or a full-window row could lose
probability mass.

The same physics is available as explicit Kraus channels on the truncated
Fock space, which the analytic formulas are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NumericalError
from .fockspace import CountDistribution, FockBasis, KrausChannel, _lowering_operators

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


def _mixture_means(params: ProtocolParams, theta, mode: str, order: int = 0):
    """(B, D) at scalar or array ``theta``: decay-driving and detected read-out means.

    ``order`` 1 or 2 gives their first or second theta-derivative instead.
    """
    if mode not in ("d", "p"):
        raise ValueError(f"mode must be 'd' or 'p', got {mode!r}")
    if order == 0:
        pop_read = np.cos(theta / 2.0) ** 2 if mode == "d" else np.sin(theta / 2.0) ** 2
        pop_ctrl = 1.0 - pop_read
    else:
        # cos^2(theta/2) = (1 + cos theta) / 2 and sin^2(theta/2) = (1 - cos theta) / 2
        slope = 0.5 * (np.sin(theta) if order == 1 else np.cos(theta))
        pop_read = -slope if mode == "d" else slope
        pop_ctrl = -pop_read
    d = params.eta * params.n0 * pop_read
    if params.loss_order == LOSS_AFTER:
        b = params.n0 * pop_ctrl
    else:
        b = params.eta * params.n0 * pop_ctrl
    return b, d


def super_rabi_means(params: ProtocolParams, theta: float) -> tuple[float, float]:
    """Detected mean photon numbers (<n_d>, <n_p>) at angle ``theta``.

    Exact mean of the Poisson mixture: D exp[-B (1 - exp(-gamma_tau))]
    for each mode, which for losses after the interaction reads
    eta n0 cos^2(theta/2) exp[-n0 (1 - e^-gamma_tau) sin^2(theta/2)] in
    mode d and its mirror image in mode p.  Reduces to the plain Rabi
    populations at gamma_tau = 0.
    """
    decay = 1.0 - math.exp(-params.gamma_tau)
    out = []
    for mode in ("d", "p"):
        b, d = _mixture_means(params, theta, mode)
        out.append(d * math.exp(-b * decay))
    return tuple(out)


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


def _mixture_table(
    params: ProtocolParams,
    thetas,
    mode: str = "d",
    n_cut: int | None = None,
    derivatives: bool = False,
    log: bool = False,
):
    """P(n | theta) for n = 0..n_cut on every angle, shape (T, n_cut + 1).

    k runs to the window of the largest B and, without ``n_cut``, n to that
    of the largest D; :class:`NumericalError` if the neglected mass could
    exceed ``TAIL_MASS_MAX``.  The sum is factored as

        P(n) = (D^n / n!) sum_k Pois(k; B) e^(-mu_k) e^(-gamma_tau k n),

    mu_k = D e^(-gamma_tau k).  For a block of angles and a block of counts
    from n_b on, the weights a_k = log Pois(k; B) - mu_k - gamma_tau k n_b
    are exponentiated once, shifted by their row maximum alpha, and one
    matmul with the shared e^(-gamma_tau k j), j = n - n_b, gives S; then
    log P = alpha + n log D - log n! + log S.  Count blocks are narrow
    enough that gamma_tau k j stays below ``_EXP_SPAN``, so the largest
    term of S never underflows, and D = 0 or B = 0 give exact point
    masses.  ``log`` returns log P, which is -inf only where P is exactly 0.
    Without ``n_cut`` each row must hold its mass: a shortfall beyond
    ``ROW_MASS_DEFECT_MAX`` raises :class:`NumericalError`.

    Blocks keep every (angle, k) and (angle, n) temporary within
    ``BLOCK_ELEMENTS``.  With ``derivatives`` the matmul takes three weight
    rows, Pois(k; B), Pois(k - 1; B) - Pois(k; B) and Pois(k; B)
    e^(-gamma_tau k), each times e^(-mu_k - gamma_tau k n_b - alpha), into
    S1, S2, S3, and the call returns (P, dP/dB, dP/dD), each
    (T, n_cut + 1), from the shift forms dP/dB = P S2 / S1 and
    dP/dD(n) = Q(n - 1) - Q(n), Q = P S3 / S1, which divide by neither B
    nor D.
    """
    b, d = _mixture_means(params, np.atleast_1d(np.asarray(thetas, dtype=float)), mode)
    b_max = float(b.max(initial=0.0))
    k_cut = _window(b_max)
    neglected = _tail_bound(b_max, k_cut)
    full_window = n_cut is None
    if full_window:
        d_max = float(d.max(initial=0.0))
        n_cut = _window(d_max)
        neglected += _tail_bound(d_max, n_cut)
    if neglected > TAIL_MASS_MAX:
        raise NumericalError(
            f"Poisson-mixture truncation at k <= {k_cut}, n <= {n_cut} may "
            f"neglect mass {neglected:.3e} > {TAIL_MASS_MAX:.0e}"
        )
    gt = params.gamma_tau
    k = np.arange(k_cut + 1)
    n = np.arange(n_cut + 1)
    log_fact = gammaln(k + 1)
    damp = np.exp(-gt * k)
    with np.errstate(divide="ignore"):
        log_b, log_d = np.log(b)[:, None], np.log(d)[:, None]
    # n log D - log n!, with n log D = 0 at n = 0 also where D = 0
    head = np.zeros((b.size, n.size))
    np.multiply(log_d, n[1:], out=head[:, 1:])
    head -= gammaln(n + 1)
    width = min(n.size, max(1, BLOCK_ELEMENTS // k.size))
    if gt * k_cut * (width - 1) > _EXP_SPAN:
        width = 1 + int(_EXP_SPAN / (gt * k_cut))
    shared = np.exp(-gt * np.outer(k, np.arange(width)))
    weights = 3 if derivatives else 1
    # log Pois and the weights of one angle block share the budget
    rows = max(1, BLOCK_ELEMENTS // ((weights + 1) * max(k.size, width)))
    table = np.empty((b.size, n.size))
    if derivatives:
        ratio_b, ratio_q = np.empty_like(table), np.empty_like(table)
    pois_buffer = np.empty((min(rows, b.size), k.size))
    weight_buffer = np.empty((min(rows, b.size), weights, k.size))
    for r0 in range(0, b.size, rows):
        rs = slice(r0, r0 + rows)
        # log Pois(k; B), with k log B = 0 at k = 0 also where B = 0
        log_pois = pois_buffer[: b[rs].size]
        log_pois[:, 0] = 0.0
        np.multiply(log_b[rs], k[1:], out=log_pois[:, 1:])
        log_pois -= b[rs, None]
        log_pois -= log_fact
        w = weight_buffer[: log_pois.shape[0]]
        for n0 in range(0, n.size, width):
            cs = slice(n0, n0 + width)
            a = w[:, 0]
            np.multiply(d[rs, None], -damp, out=a)
            a -= (gt * n0) * k
            if derivatives:
                w[:, 1] = a
            a += log_pois
            alpha = a.max(axis=1, keepdims=True)
            a -= alpha
            np.exp(a, out=a)
            if derivatives:
                prev = w[:, 1]  # Pois(k - 1; B) times the same factors, 0 at k = 0
                prev[:, 1:] += log_pois[:, :-1]
                prev -= alpha
                prev[:, 0] = -np.inf
                np.exp(prev, out=prev)
                prev -= a
                np.multiply(a, damp, out=w[:, 2])
            s = (w.reshape(-1, k.size) @ shared[:, : n[cs].size]).reshape(
                w.shape[0], weights, -1
            )
            table[rs, cs] = alpha + head[rs, cs] + np.log(s[:, 0])
            if derivatives:
                ratio_b[rs, cs] = s[:, 1] / s[:, 0]
                ratio_q[rs, cs] = s[:, 2] / s[:, 0]
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
    if derivatives:
        return p, p * ratio_b, -np.diff(p * ratio_q, prepend=0.0, axis=1)
    return table if log else p


def count_pmf(
    params: ProtocolParams, theta: float, mode: str = "d", n_cut: int | None = None
) -> np.ndarray:
    """Dense pmf over detected counts 0..n_cut (inclusive) in one mode."""
    return _mixture_table(params, theta, mode, n_cut)[0]


def count_distribution(
    params: ProtocolParams, theta: float, mode: str = "d"
) -> CountDistribution:
    """Distribution of the detected photon number in ``mode`` at ``theta``.

    Truncated so that the neglected Poisson tails stay below 1e-12 in both
    the count and the decay-driving sums; raises :class:`NumericalError`
    if the result is not normalized within 1e-9.
    """
    pmf = count_pmf(params, theta, mode)
    dist = CountDistribution({int(n): float(p) for n, p in enumerate(pmf)}, theta=theta)
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
    are dropped.  They are built in the lowering form of
    :class:`~rydsense.fockspace.KrausChannel`, with no dense operator
    formed.  The completeness defect is checked once, on the returned
    channel (built as not trace preserving, so it is checked not to exceed
    the identity): above 1e-6 it raises ``ValueError``.
    """
    if gamma_tau < 0:
        raise ValueError("gamma_tau must be non-negative")
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
    log_fact = np.array([math.lgamma(i + 1) for i in n])
    log_rate = np.array([_log_expm1(gt * i) for i in n])
    nd, np_ = occ[:, 0], occ[:, 1]
    lost_d, lost_p = lowered[:, :1], lowered[:, 1:]
    feasible = (nd >= lost_d) & (np_ >= lost_p)
    feasible &= ((lost_p == 0) | (nd > 0)) & ((lost_d == 0) | (np_ > 0))
    j, i = np.nonzero(feasible)
    log_amp2 = -(2.0 if symmetric else 1.0) * gt * nd[i] * np_[i]
    # lose l of the m excitations of one mode at the rate driven by the
    # other mode's occupation c: (e^(gt c) - 1)^l / l! * m! / (m - l)!
    for lost, pool, other in ((lost_p[j, 0], np_[i], nd[i]), (lost_d[j, 0], nd[i], np_[i])):
        rate = np.multiply(lost, log_rate[other], out=np.zeros(lost.shape), where=lost > 0)
        log_amp2 += rate - log_fact[lost]
        log_amp2 += log_fact[pool] - log_fact[pool - lost]
    amp = np.exp(0.5 * log_amp2)
    coeffs = np.zeros((len(lowered), basis.dim))
    coeffs[j, i] = np.where(amp > 1e-14, amp, 0.0)
    channel = KrausChannel(
        basis, _lowering_operators(basis, lowered, coeffs), trace_preserving=False
    )
    if channel.completeness_defect > 1e-6:
        raise ValueError(
            f"basis too small for gamma_tau={gamma_tau}: "
            f"leakage {channel.completeness_defect:.3e}"
        )
    return channel


def fisher_information(params: ProtocolParams, theta, mode: str = "d"):
    """Per-shot Fisher information of the detected counts, exact and angle-batched.

    F(theta) = sum_n (dP/dtheta)^2 / P with dP/dtheta = B' dP/dB + D' dP/dD
    from one kernel pass over all angles.  Outcomes with P = 0 at an angle
    where B' = D' = 0 (mode p at theta = 0) contribute their limit
    2 d^2P/dtheta^2 = 2 (B'' dP/dB + D'' dP/dD).  A scalar ``theta`` gives a
    float, an array an array of its shape.  With n0 eta = 0 nothing is
    detected and F is exactly 0.

    Rounding sets a floor: the n = 0 term of dP/dB is a telescoping sum that
    cancels to rounding noise once mu_k is below an ulp, so F is accurate
    to near machine precision only above about 1e-20 per shot.
    """
    thetas = np.asarray(theta, dtype=float)
    column = thetas.reshape(-1, 1)
    db, dd = _mixture_means(params, column, mode, order=1)  # also checks mode
    if params.detected_mean == 0:
        fi = np.zeros(column.shape[0])
    else:
        p, dp_db, dp_dd = _mixture_table(params, column[:, 0], mode, derivatives=True)
        d2b, d2d = _mixture_means(params, column, mode, order=2)
        live = p > 0.0
        grad = db * dp_db + dd * dp_dd
        fi = np.sum(np.divide(grad**2, p, out=np.zeros_like(p), where=live), axis=1)
        stationary = (db == 0.0) & (dd == 0.0)
        limit = 2.0 * (d2b * dp_db + d2d * dp_dd)
        fi += np.sum(limit, axis=1, where=~live & stationary)
    return float(fi[0]) if thetas.ndim == 0 else fi.reshape(thetas.shape)


def normalized_fi(params: ProtocolParams, theta, mode: str = "d"):
    """Fisher information per mean detected photon, F / (n0 eta)."""
    if params.detected_mean <= 0:
        raise ValueError("normalized FI undefined for zero mean photon number")
    return fisher_information(params, theta, mode) / params.detected_mean


def fit_exponential_decay(times, values) -> tuple[float, float]:
    """Least-squares fit of values ~ amplitude * exp(-rate * times).

    Linear fit in log space; exact on noiseless exponential data.  Returns
    (rate, amplitude).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.size < 2:
        raise ValueError("need matching time/value arrays with at least two points")
    if np.any(values <= 0):
        raise ValueError("exponential fit requires positive values")
    slope, intercept = np.polyfit(times, np.log(values), 1)
    return -float(slope), float(math.exp(intercept))
