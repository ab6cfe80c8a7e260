"""Two-excitation error-prevention protocol and its Fisher-information curves.

A pair of excitations starts in |2,0>, is Rabi-rotated by the angle theta to
be estimated, optionally passes the non-unitary error-prevention operation
(which dumps the |1,1> component into the vacuum), and is finally counted by
a detector of efficiency eta.  Without the operation the Fisher information
per shot is 2 eta for every angle; with it the peak value rises to
2 eta (2 - eta) at theta = pi/2, which saturates the known optimality bound
eta (2 - eta) times the quantum Fisher information of the pure state.

Both Fisher informations and the detected means are closed forms over
arrays of angles (no events are post-selected), and the curves are plain
arrays in the shape of the angle grid.  The Kraus pipeline (rotated state,
operation, detection-loss channel, number measurement, finite-difference
FI) remains their oracle: :func:`enhancement_curve` checks its peak row
against it on every call.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .fockspace import (
    FI_CROSS_CHECK_MAX,
    CountDistribution,
    FockBasis,
    KrausChannel,
    TwoModeFockState,
    apply_channel,
    classical_fi,
    detection_loss_channel,
    measure,
    number_povm,
    rabi_rotation,
)

__all__ = [
    "optimality_bound",
    "fi_without_prevention",
    "fi_with_prevention",
    "enhancement_curve",
    "expectation_curves",
]

# QFI of the rotated two-excitation pure state, independent of theta.
PURE_STATE_QFI = 2.0

# the six-dimensional basis with at most two total excitations
_BASIS = FockBasis(2)


def rotated_state(theta: float) -> TwoModeFockState:
    """|2,0> Rabi-rotated by ``theta``, carrying the angle in its amplitudes."""
    u = rabi_rotation(_BASIS, theta)
    return TwoModeFockState(_BASIS, u @ _BASIS.state(2, 0).amplitudes)


def error_prevention_channel() -> KrausChannel:
    """Non-unitary operation transferring |1,1> to the vacuum.

    Kraus pair K0 = |0,0><1,1| and K1 = 1 - |1,1><1,1| on ``FockBasis(2)``,
    as the (op, dest, src, coeffs) entries of
    :class:`~rydsense.fockspace.KrausChannel`: K0 maps |1,1> to |0,0> and
    K1 keeps every other basis state.  Trace preserving and idempotent as
    a channel.
    """
    i11 = _BASIS.index_of(1, 1)
    kept = np.delete(np.arange(_BASIS.dim), i11)
    op = np.repeat([0, 1], [1, kept.size])
    dest = np.append(_BASIS.index_of(0, 0), kept)
    src = np.append(i11, kept)
    return KrausChannel(_BASIS, (op, dest, src, np.ones(src.size)), trace_preserving=True)


def optimality_bound(eta: float) -> float:
    """Upper bound eta (2 - eta) * F_Q on the FI of any pre-measurement operation."""
    return eta * (2.0 - eta) * PURE_STATE_QFI


def _fi_brute_force(eta, theta):
    """Kraus-pipeline FI with the operation at one angle, on populations.

    The oracle of :func:`fi_with_prevention`.
    """
    loss = detection_loss_channel(_BASIS, eta)
    povm = number_povm(_BASIS)
    channel = error_prevention_channel()

    def family(t: float) -> CountDistribution:
        rho = apply_channel(rotated_state(t).to_density(), channel)
        return measure(apply_channel(rho, loss), povm)

    return classical_fi(family, theta)


def _check_eta(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")


def _shaped_like(theta, fi):
    # a float for a scalar angle, an array of its shape for an array
    return float(fi) if np.ndim(theta) == 0 else fi


def fi_without_prevention(eta: float, theta):
    """Per-shot FI of the lossy measurement on the bare rotated state.

    Equals 2 eta at every angle, including multiples of pi where some
    outcome probabilities vanish (the FI there is their limit).  A scalar
    ``theta`` gives a float, an array an array of its shape.
    """
    _check_eta(eta)
    return _shaped_like(theta, np.full(np.shape(theta), 2.0 * eta))


def fi_with_prevention(eta: float, theta):
    """Per-shot FI after the error-prevention operation.

    With g = eta (2 - eta) the six outcomes give

        F = 2 g sin^2(theta) + g^2 cos^2(theta) sin^2(theta) / p_00,
        p_00 = (1 - eta)^2 + g sin^2(theta) / 2,

    the second term coming from the vacuum outcome.  At eta = 1 and
    sin(theta) = 0 it is 0/0 and takes its limit 2 g cos^2(theta), so F = 2
    there.  F peaks at theta = pi/2 + k pi with the value 2 eta (2 - eta)
    and stays below the optimality bound everywhere.  Scalar/array calls
    as in :func:`fi_without_prevention`.
    """
    _check_eta(eta)
    thetas = np.asarray(theta, dtype=float)
    g = eta * (2.0 - eta)
    sin2 = np.sin(thetas) ** 2
    cos2 = np.cos(thetas) ** 2
    vacuum = (1.0 - eta) ** 2 + 0.5 * g * sin2
    with np.errstate(divide="ignore", invalid="ignore"):
        vacuum_term = np.where(vacuum > 0.0, g * g * cos2 * sin2 / vacuum, 2.0 * g * cos2)
    return _shaped_like(theta, 2.0 * g * sin2 + vacuum_term)


def enhancement_curve(eta: float, thetas) -> tuple[np.ndarray, np.ndarray]:
    """FI without and with the operation, ``(fi_without, fi_with)``, over ``thetas``.

    Both arrays have the shape of the angle grid, which may hold any
    angles in any order; the bound they obey is :func:`optimality_bound`.
    An empty grid raises ``ValueError``.  Each closed form runs once over
    the grid, and their values are checked together: an FI below -1e-9,
    an ``fi_with`` above the bound by more than 1e-6, or a NaN raises
    :class:`NumericalError`.  The peak row of ``fi_with`` is checked
    against the Kraus pipeline; a gap above ``FI_CROSS_CHECK_MAX`` of the
    bound (the peak value, or the scale of the curve where the grid misses
    the peak) raises :class:`NumericalError` too.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise ValueError("the angle grid must not be empty")
    without = np.asarray(fi_without_prevention(eta, thetas))
    with_op = np.asarray(fi_with_prevention(eta, thetas))
    bound = optimality_bound(eta)
    if not (min(without.min(), with_op.min()) >= -1e-9 and with_op.max() <= bound + 1e-6):
        raise NumericalError(
            f"an FI at eta = {eta} leaves [0, {bound:.12g}], "
            "the range the optimality bound allows"
        )
    peak = int(np.argmax(with_op))
    theta_peak, fi_peak = float(thetas.flat[peak]), float(with_op.flat[peak])
    fi_fd = _fi_brute_force(eta, theta_peak)
    gap = abs(fi_peak - fi_fd) / bound
    if not gap <= FI_CROSS_CHECK_MAX:
        raise NumericalError(
            f"closed-form F = {fi_peak:.12g} and finite-difference F = "
            f"{fi_fd:.12g} at theta = {theta_peak:.6g} differ by {gap:.2e} "
            "of the optimality bound"
        )
    return without, with_op


def expectation_curves(eta: float, thetas) -> tuple[np.ndarray, ...]:
    """Detected mean excitation numbers in both modes versus angle.

    Returns ``(nd_with, np_with, nd_without, np_without)`` in the shape of
    ``thetas``: with the operation the means are 2 eta cos^4(theta/2) and
    2 eta sin^4(theta/2); without it 2 eta cos^2(theta/2) and
    2 eta sin^2(theta/2).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    theta = np.asarray(thetas, dtype=float)
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    return 2.0 * eta * c2**2, 2.0 * eta * s2**2, 2.0 * eta * c2, 2.0 * eta * s2
