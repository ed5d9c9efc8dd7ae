"""Robust distributed detection for parallel sensor networks.

Builds least favorable distribution pairs for several uncertainty classes
(Gaussian mean bands, KL-divergence balls, epsilon-contamination), designs
likelihood-ratio quantizers and the fusion rule, evaluates error
probabilities exactly, and verifies the stochastic-ordering and
saddle-point conditions that make the design minimax robust.
"""

from .distributions import AtomPmf, DiscretePmf, GaussianSpec, pmf_from_weights
from .lfd import (
    BoundednessReport,
    EpsContaminationClass,
    GaussianBandClass,
    KlBallClass,
    LfdPair,
    gaussian_band_lfd,
    huber_clipped_lfd,
    joint_boundedness_check,
    kl_dabak_lfd,
)
from .ordering import convolve, convolve_many
from .sensor import (
    Quantizer,
    SensorChannel,
    SensorRule,
    channel_from_pmfs,
    channel_from_quantizer,
    channel_from_rule,
    default_quantizer,
    member_laws,
)
from .fusion import (
    DesignResult,
    ErrorReport,
    NetworkModel,
    SaddleReport,
    exact_error,
    k_sweep,
    monte_carlo,
    optimize_thresholds,
    saddle_verify,
)
from .scenario import Certificate, Scenario, certify, load_scenario

__version__ = "0.1.0"
