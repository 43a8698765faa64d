"""Cumulative Tsallis entropies, dual entropies, and coherent risk measures.

The package evaluates, for a distribution exposed through its CDF and
quantile function,

* the cumulative Tsallis entropy of order s,
* its dual (the weighted mean-inactivity-time functional with weight
  ``(1 - (1-x)^{s+1})/x``),
* the two coherent risk-measure families built from them,
* the skewness parameters obtained from the entropy/dual-entropy ratios,
* sharp range bounds for the normalised entropy, and
* Monte Carlo simulators for the associated relevation-type reliability
  models.
"""

from .errors import (
    CtentError,
    DivergentEntropy,
    DomainError,
    NonIntegrableError,
    NotBracketedError,
    PreconditionNotMet,
    TruncationNotConverged,
)
from .distributions import (
    DistributionSpec,
    EmpiricalSample,
    affine,
    available_distributions,
    from_name,
    from_quantile,
    make_exponential,
    make_frechet,
    make_gumbel,
    make_logistic,
    make_lomax,
    make_negative_exponential,
    make_negative_lomax,
    make_power_uniform,
    make_reflected_power,
    make_reverse_weibull,
    make_uniform,
    negate,
    normal_spec,
    sample,
)
from .entropy import (
    EntropyOrder,
    EntropyProfile,
    EntropyValue,
    delta_plugin,
    delta_quadrature,
    delta_quantile,
    delta_value,
    entropy_profile,
    nabla_plugin,
    nabla_quadrature,
    nabla_value,
)
from .duality import (
    SeriesTransform,
    binomial_involution,
    bnb_pmf,
    bnb_partial_sum,
    delta_from_nabla_series,
    nabla_from_delta_series,
)
from .risk import (
    DistortionFunction,
    RiskValue,
    K_series,
    coherence_diagnostics,
    make_distortion,
    mrl_representation,
    relevation_risk,
    risk_axioms_check,
    risk_delta,
    risk_nabla,
)
from .skewness import (
    SkewnessCurve,
    diamond,
    diamond_curve,
    rho,
    rho_curve_negative_lomax,
    rho_curve_power_uniform,
    rho_range_proposition_check,
)
from .extremal import (
    RangeBound,
    beta_trinomial_bound_check,
    bound_l2,
    bound_positive,
    bound_symmetric,
    gamma_gap,
    gamma_gap_argmax,
    gamma_gap_root,
    gaussian_cumulative_entropy,
    make_s_logistic,
)
from .relevation import (
    SimulationResult,
    sample_Ns,
    simulate_Tn,
    simulate_total_lifetime_survival,
    simulate_Ys,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
