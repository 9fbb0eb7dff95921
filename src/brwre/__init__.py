"""Monte Carlo simulator for heavy-tailed branching random walks in i.i.d.
random environment, with samplers for the limiting extremal objects and a
statistics layer that compares the two at desk scale."""

from .brw import (
    BrwOutcome,
    SimConfig,
    diagnostics_report,
    replication_rng,
    run_replications,
    simulate,
    simulate_naive,
)
from .displacement import (
    DisplacementModel,
    exceedance_masses,
    norming_constant,
)
from .environment import (
    AssumptionReport,
    EnvironmentModel,
    EnvSequence,
    check_assumptions,
    sample_env,
)
from .errors import (
    ArgumentOrder,
    BrwreError,
    ConfigError,
    NonGeometricGrowth,
    NoSurvivingReplication,
    PopulationCapExceeded,
    RejectionCapExceeded,
    SupportBelowRetention,
    UnboundedProgenyInGeneralMode,
)
from .limit_laws import (
    ClusterSampler,
    EnvStream,
    LimitConfig,
    QSample,
    SeriesValue,
    cluster_norm_series,
    joint_min_max_cdf,
    limit_max_cdf,
    sample_limit_point_process,
    sample_martingale_limit,
    sample_q,
    top_two_cdf_multiplicity_adjusted,
)
from .measures import MeasureBlock, PointMeasure
from .offspring import (
    Binomial,
    Deterministic,
    Finite,
    Geometric,
    OffspringLaw,
    Poisson,
    extinct_prob_by_gen,
)
from .stats import Ecdf, TestFunction, count_distribution_tv, ks_distance, laplace_estimate

__version__ = "0.1.0"
