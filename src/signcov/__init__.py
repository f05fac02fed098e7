"""Spatial sign covariance matrices with estimated location.

Estimators (fixed-location, plug-in, trace-1 and symmetrized SSCM), the
spatial median, elliptical model samplers with population oracles,
limit-covariance machinery for the plug-in estimator, and a deterministic
parallel Monte Carlo harness with a CLI front end.

``import signcov`` loads no submodule: each public name, and each submodule
read as an attribute, loads its module on first use (PEP 562).
"""

__version__ = "0.1.0"

import importlib

# the public API: module -> the names it defines
_PUBLIC = {
    "asymptotics": "AsymptoticsBundle compute_bundle element_variance fixed_location_cov "
                   "joint_mean_cov location_sensitivity sandwich_cov vec_sign_outers",
    "errors": "DegenerateSampleError InvalidInputError",
    "linalg": "kron row_norms sign_outer spatial_sign spatial_signs symmetrize vec",
    "location": "LocationResult MedianOptions l1_objective locate sample_mean spatial_median",
    "models": "EllipticalModel SeededStream SignMoments gaussian_model "
              "population_sscm_closed_p2 population_sscm_mc sample sign_moments "
              "singularity_model student_t_model",
    "scatter": "CoincidenceReport ScatterMatrix coincidence_report frobenius_error_gram "
               "sscm_fixed sscm_plugin sscm_star ssscm",
    "simharness": "CellResult ExperimentConfig ExperimentResult QQCellResult ks_statistic "
                  "run_experiment write_metadata_json write_result_csv",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # looked up afresh on every access, never stored here, so a name
    # rebound in its module (as the benchmark's tracer does) shows through
    if name in _PUBLIC:  # a submodule read as an attribute before its import
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_PUBLIC, *__all__})
