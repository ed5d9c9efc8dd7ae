"""Robust distributed detection for parallel sensor networks.

Builds least favorable distribution pairs for several uncertainty classes
(Gaussian mean bands, KL-divergence balls, epsilon-contamination), designs
likelihood-ratio quantizers and the fusion rule, evaluates error
probabilities exactly, and verifies the stochastic-ordering and
saddle-point conditions that make the design minimax robust.
"""

from .distributions import (
    AtomPmf,
    DiscretePmf,
    GaussianSpec,
    GridFunction,
    default_grid,
    gaussian_cdf,
    pmf_from_weights,
    sample,
)
from .lfd import (
    AffinityReport,
    BoundednessReport,
    ContaminatedGaussian,
    EpsContaminationClass,
    GaussianBandClass,
    KlBallClass,
    LfdPair,
    dabak_affinity_check,
    gaussian_band_lfd,
    huber_clipped_lfd,
    joint_boundedness_check,
    kl_dabak_lfd,
    kl_divergence,
    robust_lr_cdf,
)
from .ordering import (
    CdfView,
    DominanceReport,
    convolve,
    convolve_many,
    dominates,
    monotone_map_preserves,
    sum_dominance_check,
)
from .sensor import (
    Quantizer,
    RandomizedBinaryRule,
    SensorChannel,
    SensorRule,
    block_sensor_llr,
    channel_from_pmfs,
    channel_from_quantizer,
    channel_from_rule,
    default_quantizer,
    llr_monotone_check,
    member_channel,
    quantize,
    randomized_binary_admissible,
)
from .fusion import (
    DesignResult,
    ErrorReport,
    NetworkModel,
    SaddleReport,
    exact_error,
    fuse,
    k_sweep,
    monte_carlo,
    optimize_thresholds,
    saddle_verify,
)
from .scenario import Scenario, load_scenario, save_scenario

__version__ = "0.1.0"
