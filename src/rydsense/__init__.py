"""Interaction-enhanced microwave metrology with Rydberg spinwave ensembles.

Simulation and estimation toolkit covering the truncated two-mode Fock
space engine, the two-excitation error-prevention protocol, dipolar
excluded-volume decay rates, photon-count statistics of interacting
bi-coherent spinwaves, and maximum-likelihood field estimation with
sensitivity figures.
"""

from .fockspace import (
    CountDistribution,
    DensityOperator,
    FockBasis,
    KrausChannel,
    TwoModeFockState,
    apply_channel,
    classical_fi,
    coherent_state,
    detection_loss_channel,
    measure,
    number_povm,
)
from .error_prevention import (
    enhancement_curve,
    expectation_curves,
    fi_with_prevention,
    fi_without_prevention,
    optimality_bound,
)
from .dipolar import (
    CloudGeometry,
    DipolarParams,
    decay_rate_gamma,
    excluded_volume_integral,
    pair_potential,
    readout_expectation_mc,
    volumetric_rate_q,
)
from .errors import NumericalError
from .multiparticle import (
    LOSS_AFTER,
    LOSS_BEFORE,
    ProtocolParams,
    count_distribution,
    fisher_information,
    interaction_channel_kraus,
    normalized_fi,
    super_rabi_means,
)
from .estimation import (
    EstimationResult,
    SensitivityReport,
    field_precision,
    run_estimation,
    sensitivity_from_model,
)

__version__ = "0.1.0"
