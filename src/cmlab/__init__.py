"""cmlab — a numerical laboratory for multistep consistency sampling.

Everything here is exact-by-construction: tractable targets with
closed-form noised marginals, consistency functions that are either exact
oracles or controlled perturbations of them, a multistep sampler that
records every stage, exact distance metrics, and evaluators for the
distance bounds the schedules are designed against.
"""

from .bounds import (
    BoundInputs,
    TailBoundBreakdown,
    TvBoundBreakdown,
    TwoStepLeadingTerms,
    W2BoundBreakdown,
    kl_bound,
    sde_contraction_bound,
    tv_bound,
    two_step_ou_leading_terms,
    w2_bound_general,
    w2_bound_modified,
    w2_bound_tail,
)
from .consistency_oracle import (
    ConsistencyFn,
    consistency_loss,
    evaluation_error,
    pf_ode_consistency,
    pf_ode_transport,
    quantile_map,
    quantile_perturbed,
)
from .errors import CmlabError, ConfigError, NumericError
from .metrics import (
    GridIntegral,
    coupling_quantiles,
    kl_grid,
    tv_grid,
    w2_empirical_1d,
    w2_stderr_proxy,
    w2_vs_target_1d,
)
from .noise_schedule import (
    NoiseSchedule,
    TrainingPartition,
    contraction,
    custom_from_csv,
    make_custom,
    make_ou,
    make_ve,
)
from .sampler import (
    SamplingTimeSchedule,
    design_halving_ve,
    design_two_step_ou,
    design_uniform,
    multistep_sample,
    sigma_eps_optimal,
    stage_laws,
)
from .target_dist import (
    DiscreteTarget,
    GaussianMixtureTarget,
    MarginalView,
    TargetGeometry,
    geometry,
    marginal_cdf_1d,
    marginal_logpdf,
    marginal_pdf,
    marginal_quantile_1d,
    marginal_score_path,
    sample_marginal,
    score,
    target_quantiles_1d,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "CmlabError",
    "ConfigError",
    "ConsistencyFn",
    "DiscreteTarget",
    "GaussianMixtureTarget",
    "GridIntegral",
    "MarginalView",
    "NoiseSchedule",
    "NumericError",
    "SamplingTimeSchedule",
    "TailBoundBreakdown",
    "TargetGeometry",
    "TrainingPartition",
    "TvBoundBreakdown",
    "TwoStepLeadingTerms",
    "W2BoundBreakdown",
    "consistency_loss",
    "contraction",
    "coupling_quantiles",
    "custom_from_csv",
    "design_halving_ve",
    "design_two_step_ou",
    "design_uniform",
    "evaluation_error",
    "geometry",
    "kl_bound",
    "kl_grid",
    "make_custom",
    "make_ou",
    "make_ve",
    "marginal_cdf_1d",
    "marginal_logpdf",
    "marginal_pdf",
    "marginal_quantile_1d",
    "marginal_score_path",
    "multistep_sample",
    "pf_ode_consistency",
    "pf_ode_transport",
    "quantile_map",
    "quantile_perturbed",
    "sample_marginal",
    "score",
    "sde_contraction_bound",
    "sigma_eps_optimal",
    "stage_laws",
    "target_quantiles_1d",
    "tv_bound",
    "tv_grid",
    "two_step_ou_leading_terms",
    "w2_bound_general",
    "w2_bound_modified",
    "w2_bound_tail",
    "w2_empirical_1d",
    "w2_stderr_proxy",
    "w2_vs_target_1d",
]
