"""matsharp: t-geometric means, unitarily invariant norms, and
(log-)majorization checks for positive definite matrices, with a
randomized verification campaign harness and counterexample search.
"""

from .campaign import (
    CampaignConfig,
    CampaignSummary,
    SearchReport,
    emit_report,
    load_reports,
    render_reports,
    run_campaign,
    search_counterexample,
    summarize,
)
from .ensembles import (
    EnsembleSpec,
    random_commuting_pair,
    random_hermitian,
    random_pd,
    random_psd_rank_deficient,
    split_seed,
)
from .errors import (
    CommutationError,
    ConfigError,
    ConvergenceError,
    EmptySumError,
    HermitianDefectError,
    InvalidNormError,
    InvalidRankError,
    MatSharpError,
    NotPositiveDefiniteError,
    ShapeError,
    SingularFunctionError,
    UnregisteredFunctionError,
)
from .inequalities import (
    InequalityReport,
    check_audenaert,
    check_bourin_uchiyama,
    check_lemma_chain,
    check_main_theorem,
    check_proof_steps,
    lemma_chain_sigmas,
    resolve_function,
)
from .linalg import (
    Spectrum,
    as_matrix,
    hermitian_eigendecompose,
    hermitian_part,
    load_matrix,
    matrix_from_obj,
    matrix_function,
    matrix_power_psd,
    matrix_to_obj,
    save_matrix,
)
from .means import (
    geometric_mean,
    psd_geometric_mean,
    regularization_epsilon,
    sum_matrices,
)
from .norms import (
    MajorizationResult,
    NormSpec,
    default_norm_specs,
    fan_dominance,
    log_majorization,
    norm_from_singular_values,
    singular_values,
    spectral_norm,
    tolerance_band,
    ui_norm,
    weak_majorization,
)

__version__ = "0.1.0"
