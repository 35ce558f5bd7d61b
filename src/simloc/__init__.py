"""Near-field channel estimation and single-anchor localization with a
multiport stacked-metasurface front end."""

from .channel import (
    CovarianceModel,
    covariance_from_matrix,
    estimate_covariance,
    reduce_subspace,
    steering_matrix,
    steering_vector,
)
from .errors import (
    ConditioningError,
    ConfigurationError,
    EstimationError,
    OptimizationError,
    SimlocError,
)
from .geometry import (
    ArrayGeometry,
    GainModel,
    GeometryConfig,
    UncertaintyRegion,
    build_sim_geometry,
    fraunhofer_distance,
    region_at,
)
from .multiport import (
    ImpedanceParams,
    SimNetwork,
    build_impedance,
    build_output_coupling,
    build_sim_network,
    effective_projection_matrix,
    row_orthonormality_gap,
)
from .simopt import (
    CalibratedProjection,
    OptimizationTrace,
    OptimizerConfig,
    calibrate_projection,
    gradient,
    objective,
    optimize,
    optimize_multistart,
)
from .estimation import (
    LinearEstimator,
    digital_baseline,
    estimator_suite,
    mmse_full,
    mmse_post_sim,
    mmse_reduced,
    monte_carlo_mse,
    rsls_ideal,
    rsls_post_sim,
)
from .bounds import (
    MismatchMetrics,
    PebReport,
    channel_jacobian,
    fim_peb,
    mismatch_metrics,
    mse_ratio_bound,
    mse_ratio_check,
    noise_inflation,
)
from .localizer import LocalizerConfig, localize
from .config import ScenarioConfig, load_config, load_preset
from .sweep import ResultRecord, load_records, plot_tables, run_cell, run_sweep, save_records

__version__ = "0.1.0"
