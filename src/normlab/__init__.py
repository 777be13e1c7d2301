"""normlab: numerical experiments on randomized sign-averaged norms.

A norm on R^n is built by averaging ||sum_i eps_i x_i v_i|| over sign
patterns; this package computes that average exactly (Gray-code
enumeration), estimates it from N sampled sign columns, and measures how
faithfully the sampled version reproduces the exact one: weak variance,
theta-nets and certified sup bounds, distortion sweeps over the
oversampling ratio, the scalar special case, and exact concentration
diagnostics.
"""

__version__ = "0.1.0"

from .concentration import (
    AmplificationResult,
    ExactDistribution,
    MedianMeanGap,
    TailFit,
    amplification_check,
    default_t_grid,
    exact_distribution,
    median_vs_mean,
    tail_check,
)
from .distortion import (
    ConstantsProfile,
    DistortionReport,
    FailureStats,
    ProbeSpec,
    SphereSplit,
    UVStats,
    XiSummary,
    failure_probability,
    run_trial,
    run_trials,
    sphere_sample,
    split_UV,
    xi_sweep,
)
from .errors import (
    CapacityError,
    ConfigError,
    CoveringViolationError,
    DimensionMismatchError,
    NonFiniteInputError,
    NormLabError,
    ZeroVectorError,
)
from .harness import ExperimentConfig, RunReport, load_config, run_experiment, validate_config
from .nets import (
    CertifiedBound,
    NetDecomposition,
    NetPoints,
    build_net,
    certified_sup_bound,
    load_net,
    net_decompose,
    save_net,
)
from .scalar import (
    ScalarSweepResult,
    ScalarTrialReport,
    ScalarXiSummary,
    scalar_empirical_norm,
    scalar_min_max,
    scalar_xi_sweep,
)
from .seeding import derive_seed
from .signs import (
    SeedRecord,
    SignMatrix,
    dump_sign_matrix,
    enumerate_signs,
    enumeration_matrix,
    load_sign_matrix,
    sample_sign_matrix,
)
from .spaces import (
    NormSpec,
    VectorFamily,
    family_from_json,
    family_to_json,
    load_family,
    lp_space,
    make_family,
    norm_eval,
    norming_functional,
    polytope_space,
    save_family,
    space_from_json,
    space_to_json,
    validate_family,
)
from .symmetrize import (
    EmpiricalNormInstance,
    NormInstance,
    batch_empirical_norm,
    empirical_norm,
    exact_unconditional_norm,
    exact_unconditional_norm_many,
)
from .weakvar import (
    KhinchinBounds,
    SigmaResult,
    VarianceRatio,
    khinchin_bounds,
    largest_singular_value,
    sigma,
    variance_norm_ratio,
)
