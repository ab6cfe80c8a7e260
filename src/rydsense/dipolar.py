"""Dipolar pair interaction, excluded-volume integral and decay rate.

A pair of unlike Rydberg excitations interacts through the resonant dipolar
potential V(r, vartheta) = (C3 / r^3) (3 cos(2 vartheta) + 1) / 4.  After an
interaction time t the region of the cloud dephased by one control
excitation is the complex excluded volume

    A(t) = integral over space of [1 - exp(-i t V(x) / hbar)] d^3x.

It is exactly linear in t and has a closed form (see
:func:`excluded_volume_integral`; the adaptive quadrature that checks it
runs only on request).  Its real part is Re A(t) = Q t with
Q = (4 pi^2 / 9 sqrt(3)) C3/hbar, and the per-control-excitation decay rate
of the phase-matched read-out is gamma = 2 Q / V_eff for an ensemble of
effective volume V_eff.

Unit conventions: lengths in micrometres, times in microseconds internally;
the public API takes C3/hbar in rad/s um^3 (i.e. 2 pi times the tabulated
GHz um^3 number), returns Q in um^3/s and gamma in 1/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import warnings

import numpy as np

from .errors import NumericalError

__all__ = [
    "ConvergenceError",
    "CloudGeometry",
    "DipolarParams",
    "QuadratureSpec",
    "McReadout",
    "pair_potential",
    "angular_factor",
    "angular_abs_integral",
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
MC_SHARD_SIZE = 1 << 14
# Subinterval limit of each adaptive scipy quad call of the quadrature.
QUAD_LIMIT = 800


class ConvergenceError(NumericalError):
    """Quadrature failed to meet its accuracy contract."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


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
        if len(dims) != 3 or any(x <= 0 for x in dims):
            raise ValueError("dimensions must be three positive lengths in um")
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
        if self.c3_over_hbar <= 0:
            raise ValueError("c3_over_hbar must be positive")

    @classmethod
    def from_tabulated(cls, c3_over_2pi_hbar_ghz_um3: float, cloud: CloudGeometry):
        """Build from the tabulated C3 / (2 pi hbar) value in GHz um^3."""
        return cls(2.0 * math.pi * 1e9 * c3_over_2pi_hbar_ghz_um3, cloud)


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the excluded-volume quadrature.

    The angular rule is composite Gauss-Legendre with ``angular_panels``
    panels of ``panel_order`` nodes over cos(vartheta); the radial
    integral runs adaptively in the substituted variable u proportional to
    1/r^3 up to ``s_max`` (in units of the natural phase scale), with at
    most ``QUAD_LIMIT`` subintervals per piece, and an analytic tail
    beyond.  Only the real part carries the accuracy contract
    ``max_rel_error``.
    """

    angular_panels: int = 256
    panel_order: int = 10
    s_max: float = 1200.0
    max_rel_error: float = 5e-3

    def __post_init__(self):
        if self.angular_panels < 1 or self.panel_order < 2:
            raise ValueError("angular rule needs at least 1 panel of order 2")
        if self.s_max <= 1.0:
            raise ValueError("s_max must exceed 1")


def angular_factor(vartheta) -> np.ndarray:
    """Orientation dependence (3 cos(2 vartheta) + 1) / 4 of the pair potential."""
    return (3.0 * np.cos(2.0 * np.asarray(vartheta)) + 1.0) / 4.0


def pair_potential(r: float, vartheta: float, params: DipolarParams) -> float:
    """Pair interaction energy over hbar in rad/s at separation r (um).

    Positive along the quantization axis, changes sign where
    cos^2(vartheta) = 1/3 and falls off as 1/r^3.
    """
    if r <= 0:
        raise ValueError("separation r must be positive")
    return params.c3_over_hbar / r**3 * float(angular_factor(vartheta))


def _angular_nodes(spec: QuadratureSpec):
    # composite Gauss-Legendre rule over c = cos(vartheta) in [-1, 1]
    x, w = np.polynomial.legendre.leggauss(spec.panel_order)
    edges = np.linspace(-1.0, 1.0, spec.angular_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def angular_abs_integral(spec: QuadratureSpec | None = None) -> float:
    """Quadrature value of the solid-angle integral of |angular factor|.

    The exact value 8 pi / (3 sqrt(3)) enters the closed form for Q; this
    helper exposes the module's angular rule for verification.
    """
    spec = spec or QuadratureSpec()
    c, w = _angular_nodes(spec)
    f = (3.0 * c**2 - 1.0) / 2.0  # angular factor expressed in cos(vartheta)
    return 2.0 * math.pi * float(np.sum(w * np.abs(f)))


def _quadrature_j(spec: QuadratureSpec):
    """J = int_0^inf g(s)/s^2 ds by quadrature: (J, Re rel. error, Im abs. error, tail)."""
    from scipy.integrate import quad

    c_nodes, c_weights = _angular_nodes(spec)
    f_nodes = (3.0 * c_nodes**2 - 1.0) / 2.0

    def g(s: float) -> complex:
        # angular integral of 1 - exp(-i s f(c)) over c in [-1, 1]
        return complex(np.sum(c_weights * (1.0 - np.exp(-1j * s * f_nodes))))

    # J = int_0^inf g(s)/s^2 ds, split at s = 1; smooth near zero since the
    # angular average of f vanishes (g ~ s^2/5).
    def integrand(s, part):
        val = g(s) / s**2 if s > 0 else 0.2
        return val.real if part == "re" else val.imag

    pieces = {}
    errs = {}
    for part in ("re", "im"):
        lo, err_lo = quad(integrand, 0.0, 1.0, args=(part,), limit=QUAD_LIMIT)
        hi, err_hi = quad(integrand, 1.0, spec.s_max, args=(part,), limit=QUAD_LIMIT)
        pieces[part] = lo + hi
        errs[part] = err_lo + err_hi
    # Tail beyond s_max: g -> 2 plus an oscillatory remainder bounded by
    # stationary-phase decay ~ sqrt(2 pi / 3 s).
    tail_bound = math.sqrt(2.0 * math.pi / 3.0) * (2.0 / 3.0) * spec.s_max**-1.5
    j = complex(pieces["re"] + 2.0 / spec.s_max, pieces["im"])
    rel = (errs["re"] + tail_bound) / abs(j.real)
    if rel > spec.max_rel_error:
        raise ConvergenceError(
            f"excluded volume quadrature reached relative error {rel:.2e} "
            f"on the real part, contract is {spec.max_rel_error:.1e}",
            achieved=rel,
        )
    return j, rel, errs["im"] + tail_bound, tail_bound


def excluded_volume_integral(
    t: float,
    params: DipolarParams,
    quadrature: QuadratureSpec | None = None,
    full_output: bool = False,
):
    """Complex excluded volume A(t) in um^3 for interaction time t (us).

    The pure 1/r^3 potential makes A exactly linear in t:
    A(t) = (2 pi / 3) t (C3/hbar) J with the dimensionless constant
    J = int_0^inf g(s)/s^2 ds, g(s) = int_{-1}^{1} [1 - exp(-i s f(c))] dc and
    f(c) = (3 c^2 - 1)/2 the angular factor over c = cos(vartheta).  J has
    the closed form

        J = 2 pi / (3 sqrt 3) + i [(2 sqrt 3 / 9) ln(2 + sqrt 3) - 2/3],

    whose real part gives Re A = Q t and whose imaginary part is
    -int_{-1}^{1} f ln|f| dc.  By default A uses it, and the error entries
    of ``full_output`` are 0.

    An explicit ``quadrature`` spec evaluates J numerically instead, as an
    independent check: the angular integration runs inside the radial one,
    so the signed angular lobes cancel the conditionally convergent
    (logarithmic) imaginary tail, which is the principal-value handling the
    bare per-angle radial integral would need near the angular zeros; the
    radial variable is substituted as u ~ 1/r^3, which regularizes the
    oscillatory tail.  Only the real part carries an accuracy contract
    (``max_rel_error``, 0.5% relative by default); the imaginary part is
    reported as computed.

    Raises
    ------
    ConvergenceError
        If the quadrature's estimated relative error of Re A exceeds the
        contract.
    """
    if t <= 0:
        raise ValueError("interaction time t must be positive")
    if quadrature is None:
        j, rel, err_im, tail_bound = J_CLOSED_FORM, 0.0, 0.0, 0.0
    else:
        j, rel, err_im, tail_bound = _quadrature_j(quadrature)
    phase_volume = t * params.c3_over_hbar * 1e-6  # rad um^3 at time t in us
    a = (2.0 * math.pi / 3.0) * phase_volume * j
    if full_output:
        info = {
            "j_re": j.real,
            "j_im": j.imag,
            "re_rel_error": rel,
            "im_abs_error": (2.0 * math.pi / 3.0) * phase_volume * err_im,
            "tail_bound": tail_bound,
        }
        return a, info
    return a


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
    samples: int
    method: str


def _gaussian_pdf(points: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    norm = (2.0 * math.pi) ** 1.5 * float(np.prod(sigma))
    q = np.sum((points / sigma) ** 2, axis=-1)
    return np.exp(-0.5 * q) / norm


def _pair_phase(delta: np.ndarray, t: float, c3_int: float) -> np.ndarray:
    # accumulated phase t V/hbar for separations with components as rows
    # (delta[0], delta[1], delta[2] in um), t in us; the angular factor is
    # (3 cos^2 - 1)/2 with cos^2 = z^2 / r^2
    z2 = delta[2] ** 2
    r2 = delta[0] ** 2 + delta[1] ** 2 + z2
    f = 1.5 * z2 / r2 - 0.5
    return t * c3_int * f / (r2 * np.sqrt(r2))


def readout_expectation_mc(
    t: float,
    n_p: int,
    params: DipolarParams,
    samples: int = 100_000,
    seed: int | None = None,
    method: str = "lda",
    quadrature: QuadratureSpec | None = None,
) -> McReadout:
    """Read-out expectation per excitation with ``n_p`` control excitations.

    Estimates the dephasing integral for a gaussian cloud by Monte Carlo.
    ``method="lda"`` samples the outer position from the density and uses
    the local-density approximation |1 - p(x) A(t)|^(2 n_p) with the
    closed-form A(t), or its quadrature value when ``quadrature`` is
    given; ``method="direct"`` samples all control
    positions and averages the exact pair phases, which is unbiased for the
    independent-control model.  Decays approximately as exp(-n_p gamma t).
    The LDA warns where a factor |1 - p(x) A(t)| exceeds 1, which an
    average of unit phases cannot.

    Sampling is sharded into ``MC_SHARD_SIZE`` (16384) samples per shard,
    with seeds spawned from ``seed``, so that shards are reproducible and
    independent of evaluation order.
    """
    if params.cloud.kind != "gaussian":
        raise ValueError("Monte-Carlo read-out requires a gaussian cloud")
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"at least {MIN_MC_SAMPLES} samples required, got {samples}")
    if n_p < 0:
        raise ValueError("n_p must be non-negative")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0 or n_p == 0:
        return McReadout(1.0, 0.0, samples, method)
    if method not in ("lda", "direct"):
        raise ValueError(f"method must be 'lda' or 'direct', got {method!r}")

    sigma = np.asarray(params.cloud.dimensions)
    sigma_col = sigma[:, None]
    c3_int = params.c3_over_hbar * 1e-6  # rad/us um^3
    a_t = excluded_volume_integral(t, params, quadrature) if method == "lda" else None

    seed_seq = np.random.SeedSequence(seed)
    total = 0.0
    total_sq = 0.0
    lda_factor_max = 0.0
    remaining = samples
    shards = seed_seq.spawn(math.ceil(samples / MC_SHARD_SIZE))
    for child in shards:
        n = min(MC_SHARD_SIZE, remaining)
        remaining -= n
        rng = np.random.default_rng(child)
        # the same draws as rng.normal(scale=sigma, size=(n, 3)), bit for bit
        x = rng.standard_normal((n, 3)) * sigma
        if method == "lda":
            factor = np.abs(1.0 - _gaussian_pdf(x, sigma) * a_t)
            lda_factor_max = max(lda_factor_max, float(factor.max()))
            est = factor ** (2 * n_p)
        else:
            # per control: draw in place, then form x - y with the components
            # as contiguous rows
            x_rows = x.T.copy()
            draw = np.empty((n, 3))
            delta = np.empty((3, n))

            def control_phase():
                rng.standard_normal(out=draw)
                np.multiply(draw.T, sigma_col, out=delta)
                np.subtract(x_rows, delta, out=delta)
                return _pair_phase(delta, t, c3_int)

            # the product of exp(-i phi) over the first n_p controls and
            # exp(+i phi) over the next n_p, as one real phase sum
            phase = np.zeros(n)
            for _ in range(n_p):
                phase -= control_phase()
            for _ in range(n_p):
                phase += control_phase()
            est = np.cos(phase)
        total += float(np.sum(est))
        total_sq += float(np.sum(est**2))
    if lda_factor_max > 1.0:
        warnings.warn(
            f"LDA factor |1 - p(x) A(t)| reaches {lda_factor_max:.3g}, but a read-out "
            "averaging unit phases cannot exceed 1; the LDA is invalid here",
            RuntimeWarning,
            stacklevel=2,
        )
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    stderr = math.sqrt(var / samples)
    return McReadout(mean, stderr, samples, method)
