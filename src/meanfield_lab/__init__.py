"""Forward and inverse toolkit for multi-species mean-field spin models."""

from .exact import (
    DiscreteLaw,
    ExactMoments,
    MagLattice,
    MagnetizationLaw,
    SampleSet,
    exact_moments,
    exact_sample,
    finite_pressure,
    log_count,
    log_partition,
    magnetization_law,
    normalized_sum_law,
    read_samples_csv,
    write_samples_csv,
)
from .inverse import (
    EmpiricalMoments,
    InverseEstimate,
    empirical_susceptibility,
    estimate_moments,
    invert_conditioned,
    invert_cw,
    invert_multi,
    mle_fit,
)
from .limits import (
    DeltaMixture,
    Gaussian,
    HigherOrder,
    build_limit_law,
    covariance_tilde,
    ks_distance,
    law_cdf_1d,
    law_density,
    law_from_dict,
    law_to_dict,
    susceptibility_cw,
    susceptibility_matrix,
)
from .model import (
    FiniteMeasure,
    ModelSpec,
    ValidatedModel,
    hamiltonian_density,
    model_from_dict,
    model_from_json,
    model_to_dict,
    validate_model,
)
from .solver import (
    HomogeneousForm,
    MaximumClassification,
    PressureResult,
    SolverOptions,
    StationaryPoint,
    classify_maximum,
    cw_phase_scan,
    entropy_I,
    functional_f,
    functional_fbar,
    mean_field_map,
    pressure_limit,
    solve_fixed_points,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
