"""Dipolar pair interaction, excluded-volume integral and decay rate.

A pair of unlike Rydberg excitations interacts through the resonant dipolar
potential V(r, vartheta) = (C3 / r^3) (3 cos(2 vartheta) + 1) / 4.  After an
interaction time t the region of the cloud dephased by one control
excitation is the complex excluded volume

    A(t) = integral over space of [1 - exp(-i t V(x) / hbar)] d^3x.

It is exactly linear in t and has a closed form (see
:func:`excluded_volume_integral`).  Its real part is Re A(t) = Q t with
Q = (4 pi^2 / 9 sqrt(3)) C3/hbar, and the per-control-excitation decay rate
of the phase-matched read-out is gamma = 2 Q / V_eff for an ensemble of
effective volume V_eff.

Unit conventions: lengths in micrometres, times in microseconds internally;
the public API takes C3/hbar in rad/s um^3 (i.e. 2 pi times the tabulated
GHz um^3 number), returns Q in um^3/s and gamma in 1/s.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CloudGeometry",
    "DipolarParams",
    "McReadout",
    "pair_potential",
    "excluded_volume_integral",
    "volumetric_rate_q",
    "decay_rate_gamma",
    "readout_expectation_mc",
]

# Q = Q_COEFF * C3/hbar; exact coefficient of the closed form.
Q_COEFF = 4.0 * math.pi**2 / (9.0 * math.sqrt(3.0))
# Dimensionless excluded-volume constant J of A(t) = (2 pi / 3) t (C3/hbar) J.
J_CLOSED_FORM = complex(
    2.0 * math.pi / (3.0 * math.sqrt(3.0)),
    (2.0 * math.sqrt(3.0) / 9.0) * math.log(2.0 + math.sqrt(3.0)) - 2.0 / 3.0,
)

CLOUD_KINDS = ("box", "gaussian")
MIN_MC_SAMPLES = 10_000
# Samples per Monte-Carlo shard of readout_expectation_mc.
MC_SHARD_SIZE = 1 << 13


@dataclass(frozen=True)
class CloudGeometry:
    """Atomic cloud shape with its effective volume 1 / integral(p^2).

    ``dimensions`` are the three box edge lengths, or the three gaussian
    standard deviations, in micrometres.  The effective volume is the
    product of the edges for a box and (4 pi)^(3/2) sx sy sz for a
    gaussian density.
    """

    kind: str
    dimensions: tuple

    def __post_init__(self):
        if self.kind not in CLOUD_KINDS:
            raise ValueError(f"kind must be one of {CLOUD_KINDS}, got {self.kind!r}")
        dims = tuple(float(x) for x in self.dimensions)
        # negated, so that NaN fails too
        if len(dims) != 3 or not all(0.0 < x < math.inf for x in dims):
            raise ValueError("dimensions must be three positive finite lengths in um")
        object.__setattr__(self, "dimensions", dims)

    @property
    def effective_volume(self) -> float:
        """Effective ensemble volume in um^3."""
        prod = self.dimensions[0] * self.dimensions[1] * self.dimensions[2]
        if self.kind == "box":
            return prod
        return (4.0 * math.pi) ** 1.5 * prod


@dataclass(frozen=True)
class DipolarParams:
    """Interaction strength C3/hbar (rad/s um^3) and cloud geometry."""

    c3_over_hbar: float
    cloud: CloudGeometry

    def __post_init__(self):
        if not 0.0 < self.c3_over_hbar < math.inf:
            raise ValueError("c3_over_hbar must be positive and finite")

    @classmethod
    def from_tabulated(cls, c3_over_2pi_hbar_ghz_um3: float, cloud: CloudGeometry):
        """Build from the tabulated C3 / (2 pi hbar) value in GHz um^3."""
        return cls(2.0 * math.pi * 1e9 * c3_over_2pi_hbar_ghz_um3, cloud)


def pair_potential(r: float, vartheta: float, params: DipolarParams) -> float:
    """Pair interaction energy over hbar in rad/s at separation r (um).

    The orientation dependence is (3 cos(2 vartheta) + 1) / 4: positive
    along the quantization axis, changing sign where cos^2(vartheta) = 1/3.
    The potential falls off as 1/r^3.
    """
    if not 0.0 < r < math.inf:
        raise ValueError("separation r must be positive and finite")
    if not math.isfinite(vartheta):
        raise ValueError("vartheta must be finite")
    return params.c3_over_hbar / r**3 * ((3.0 * float(np.cos(2.0 * vartheta)) + 1.0) / 4.0)


def excluded_volume_integral(t: float, params: DipolarParams) -> complex:
    """Complex excluded volume A(t) in um^3 for interaction time t (us).

    The pure 1/r^3 potential makes A exactly linear in t:
    A(t) = (2 pi / 3) t (C3/hbar) J with the dimensionless constant
    J = int_0^inf g(s)/s^2 ds, g(s) = int_{-1}^{1} [1 - exp(-i s f(c))] dc and
    f(c) = (3 c^2 - 1)/2 the angular factor over c = cos(vartheta).  J has
    the closed form ``J_CLOSED_FORM``

        J = 2 pi / (3 sqrt 3) + i [(2 sqrt 3 / 9) ln(2 + sqrt 3) - 2/3],

    whose real part gives Re A = Q t and whose imaginary part is
    -int_{-1}^{1} f ln|f| dc.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("interaction time t must be positive and finite")
    phase_volume = t * params.c3_over_hbar * 1e-6  # rad um^3 at time t in us
    return (2.0 * math.pi / 3.0) * phase_volume * J_CLOSED_FORM


def volumetric_rate_q(params: DipolarParams) -> float:
    """Closed-form expansion rate Q = (4 pi^2 / 9 sqrt(3)) C3/hbar in um^3/s."""
    return Q_COEFF * params.c3_over_hbar


def decay_rate_gamma(params: DipolarParams) -> float:
    """Interaction-induced decay rate gamma = 2 Q / V_eff in 1/s.

    This is the rate appearing directly in exp(-gamma tau) per control
    excitation in the other mode.
    """
    return 2.0 * volumetric_rate_q(params) / params.cloud.effective_volume


@dataclass(frozen=True)
class McReadout:
    """Monte-Carlo estimate of the phase-matched read-out expectation."""

    value: float
    stderr: float


def _pair_phase(delta: np.ndarray, t: float, c3_int: float) -> np.ndarray:
    # accumulated phase t V/hbar for separations with components as rows
    # (um), t in us: t c3_int f / (r^2 sqrt(r^2)), f = 1.5 z^2 / r^2 - 0.5,
    # in that order of operations.  The rows are the scratch, so the phase
    # is returned in delta[1].
    z2, r2, phase = delta[2], delta[0], delta[1]
    np.square(delta, out=delta)
    r2 += phase
    r2 += z2
    np.multiply(z2, 1.5, out=phase)
    phase /= r2
    phase -= 0.5
    phase *= t * c3_int
    np.sqrt(r2, out=z2)
    z2 *= r2
    phase /= z2
    return phase


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class _Shard:
    """One shard between controls: its stream, read-out rows and phase sum.

    ``rng``, ``x_rows`` and ``phase`` are made by the first control and
    dropped by the last, which leaves the (sum est, sum est^2) in ``sums``.
    """

    def __init__(self, child, n):
        self.child = child
        self.n = n
        self.done = 0  # controls applied
        self.held = False
        self.rng = self.x_rows = self.phase = self.sums = None


def _advance(shard, n_p, draw, delta, t, sigma_col, c3_int):
    """Apply the next control to ``shard``, drawing into a worker's scratch.

    ``draw`` and ``delta`` are flat buffers of at least 3 n; their first
    3 n entries hold the draws and the separations.  Runs in a worker
    thread that holds the shard, so it calls only private helpers.
    """
    n = shard.n
    draw = draw[: 3 * n].reshape(n, 3)
    delta = delta[: 3 * n].reshape(3, n)
    if shard.rng is None:
        # the read-out positions as contiguous component rows, the same
        # draws as rng.normal(scale=sigma, size=(n, 3)) bit for bit
        shard.rng = np.random.default_rng(shard.child)
        shard.rng.standard_normal(out=draw)
        shard.x_rows = np.empty((3, n))
        np.multiply(draw.T, sigma_col, out=shard.x_rows)
        shard.phase = np.zeros(n)
    # draw in place and form x - y in delta
    shard.rng.standard_normal(out=draw)
    np.multiply(draw.T, sigma_col, out=delta)
    np.subtract(shard.x_rows, delta, out=delta)
    # the product of exp(-i phi) over the first n_p controls and
    # exp(+i phi) over the next n_p, as one real phase sum
    if shard.done < n_p:
        shard.phase -= _pair_phase(delta, t, c3_int)
    else:
        shard.phase += _pair_phase(delta, t, c3_int)
    shard.done += 1
    if shard.done == 2 * n_p:
        phase = shard.phase
        np.cos(phase, out=phase)  # est, then est^2, in place
        total = float(np.sum(phase))
        np.square(phase, out=phase)
        shard.sums = (total, float(np.sum(phase)))
        shard.rng = shard.x_rows = shard.phase = None


def readout_expectation_mc(
    t: float,
    n_p: int,
    params: DipolarParams,
    samples: int = 100_000,
    seed: int | None = None,
    method: str = "direct",
) -> McReadout:
    """Read-out expectation per excitation with ``n_p`` control excitations.

    Estimates the dephasing integral for a gaussian cloud by Monte Carlo:
    it samples the read-out position and all control positions and averages
    the exact pair phases, which is unbiased for the independent-control
    model.  Decays approximately as exp(-n_p gamma t).  ``method`` names
    this estimator; any value other than ``"direct"`` raises ``ValueError``.

    Sampling is split into shards of ``MC_SHARD_SIZE`` (8192) samples, the
    last one shorter, each drawing from its own seed spawned from ``seed``.
    A thread pool that lives for the call runs one worker per CPU, at most
    one per shard.  Workers take the next control of any free shard, the
    one with the most work left, so the load evens out across them.  A
    shard is held by one worker at a time and applies its controls in
    order, and the shards' sums are combined in shard order, so the result
    does not depend on the worker count or the interleaving.  The first
    error in a worker stops the others after their current control and
    reaches the caller.

    ``n_p`` and ``samples`` must be integers (not bool), and ``seed``
    non-negative; otherwise ``ValueError`` is raised.
    """
    if method != "direct":
        raise ValueError(f"method must be 'direct', got {method!r}")
    if params.cloud.kind != "gaussian":
        raise ValueError("Monte-Carlo read-out requires a gaussian cloud")
    if not _is_integer(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"at least {MIN_MC_SAMPLES} samples required, got {samples}")
    if not _is_integer(n_p) or n_p < 0:
        raise ValueError(f"n_p must be a non-negative integer, got {n_p!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be non-negative and finite")
    if t == 0 or n_p == 0:
        return McReadout(1.0, 0.0)

    sigma_col = np.asarray(params.cloud.dimensions)[:, None]
    c3_int = params.c3_over_hbar * 1e-6  # rad/us um^3
    shard_size = MC_SHARD_SIZE
    children = np.random.SeedSequence(seed).spawn(math.ceil(samples / shard_size))
    shards = [
        _Shard(child, min(shard_size, samples - i * shard_size))
        for i, child in enumerate(children)
    ]
    controls = 2 * n_p
    lock = threading.Lock()
    stop = threading.Event()

    def work_left(shard):
        return shard.n * (controls - shard.done)

    def worker():
        # per-worker scratch for the draws and separations of one control
        draw = np.empty(3 * shards[0].n)
        delta = np.empty(3 * shards[0].n)
        shard = None
        try:
            while True:
                with lock:
                    if shard is not None:
                        shard.held = False
                    shard = max(
                        (s for s in shards if not s.held and s.done < controls),
                        key=work_left, default=None,
                    )
                    if stop.is_set() or shard is None:
                        return
                    shard.held = True
                _advance(shard, n_p, draw, delta, t, sigma_col, c3_int)
        except BaseException:
            stop.set()
            raise

    workers = min(os.cpu_count() or 1, len(shards))
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(worker) for _ in range(workers)]
    for future in futures:
        future.result()
    # summed in shard order by a plain loop: sum() of floats is compensated
    # from Python 3.12 on, which would change the last bits
    total = 0.0
    total_sq = 0.0
    for shard in shards:
        part_sum, part_sq = shard.sums
        total += part_sum
        total_sq += part_sq
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    stderr = math.sqrt(var / samples)
    return McReadout(mean, stderr)
