import numpy as np
import pytest
from hypothesis import settings

from rydsense.fockspace import (
    FockBasis,
    apply_channel,
    coherent_state,
    detection_loss_channel,
    measure,
    number_povm,
)
from rydsense.multiparticle import LOSS_AFTER, LOSS_BEFORE, interaction_channel_kraus

# A failing property test prints its @reproduce_failure blob, so the case can
# be replayed without the local example database.  Every other setting is
# inherited from the profile that was active.
settings.register_profile("rydsense", print_blob=True)
settings.load_profile("rydsense")


def kraus_pipeline_family(n0, eta, gamma_tau, n_max=14, loss_order=LOSS_AFTER, mode="d"):
    """Angle -> brute-force count distribution via the full Fock-space pipeline.

    Populations of a coherent input, the mutual-decay Kraus channel,
    binomial detection loss and a projective number measurement,
    marginalized onto one mode.  The channels act on the number-basis
    populations only, which is exact because every operator maps number
    states one-to-one.  Serves as the independent oracle for the analytic
    Poisson-mixture model.  The channels and the measurement are built once
    for all angles.
    """
    basis = FockBasis(n_max)
    channels = [interaction_channel_kraus(basis, gamma_tau, symmetric=True)]
    if loss_order == LOSS_AFTER:
        channels.append(detection_loss_channel(basis, eta))
    povm = number_povm(basis)

    def distribution(theta):
        alpha_d = np.sqrt(n0) * np.cos(theta / 2.0)
        alpha_p = 1j * np.sqrt(n0) * np.sin(theta / 2.0)
        if loss_order == LOSS_BEFORE:
            alpha_d *= np.sqrt(eta)
            alpha_p *= np.sqrt(eta)
        pops = coherent_state(basis, alpha_d, alpha_p).to_density()
        for channel in channels:
            pops = apply_channel(pops, channel)
        return measure(pops, povm).marginal(mode)

    return distribution


def kraus_pipeline_distribution(n0, eta, gamma_tau, theta, n_max=14, loss_order=LOSS_AFTER, mode="d"):
    """Brute-force count distribution at one angle; see :func:`kraus_pipeline_family`."""
    return kraus_pipeline_family(n0, eta, gamma_tau, n_max, loss_order, mode)(theta)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
