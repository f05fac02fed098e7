"""Spatial sign covariance matrices with estimated location.

Estimators (fixed-location, plug-in, trace-1 and symmetrized SSCM), the
spatial median, elliptical model samplers with population oracles,
limit-covariance machinery for the plug-in estimator, and a deterministic
parallel Monte Carlo harness with a CLI front end.
"""

__version__ = "0.1.0"

import types

from .asymptotics import (
    AsymptoticsBundle,
    compute_bundle,
    element_variance,
    fixed_location_cov,
    joint_mean_cov,
    location_sensitivity,
    sandwich_cov,
    vec_sign_outers,
)
from .errors import DegenerateSampleError, InvalidInputError
from .linalg import (
    kron,
    row_norms,
    sign_outer,
    spatial_sign,
    spatial_signs,
    symmetrize,
    vec,
)
from .location import (
    LocationResult,
    MedianOptions,
    l1_objective,
    locate,
    sample_mean,
    spatial_median,
)
from .models import (
    EllipticalModel,
    SeededStream,
    SignMoments,
    gaussian_model,
    population_sscm_closed_p2,
    population_sscm_mc,
    sample,
    sign_moments,
    singularity_model,
    student_t_model,
)
from .scatter import (
    CoincidenceReport,
    ScatterMatrix,
    coincidence_report,
    frobenius_error_gram,
    sscm_fixed,
    sscm_plugin,
    sscm_star,
    ssscm,
)
from .simharness import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    QQCellResult,
    ks_statistic,
    run_experiment,
    run_gamma_sweep,
    run_qq_experiment,
    run_table_experiment,
    write_metadata_json,
    write_result_csv,
)

# the public API is every name imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
