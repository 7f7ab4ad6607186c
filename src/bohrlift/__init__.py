"""Vector-valued Dirichlet polynomials on the polytorus.

The package revolves around one identification: a Dirichlet polynomial
sum a_n n^{-s} and the power series sum c_alpha z^alpha with n = prod
p_j^alpha_j carry the same coefficients, so Hardy-space quantities can
be computed either on vertical lines or on the infinite torus.  Modules
provide the index bookkeeping, the lift and its inverse, norm
estimators (exact, Monte Carlo, lattice, vertical-line), translations
and twists, radial smoothing, truncation experiments and a
restriction-norm membership probe.
"""

from .analysis import (
    BOUNDED_SO_FAR,
    DIVERGENT_TREND,
    CriterionReport,
    c0_style_family,
    cayley,
    cayley_inv,
    hilbert_criterion,
    khintchine_linear,
    normalize_for_schwarz,
    pointwise_eval_bound_h2,
    schwarz_bound_check,
    stolz_ratio,
    unit_direction_family,
)
from .errors import (
    DimensionCapError,
    EstimatorInconsistencyError,
    IndexRangeError,
    NoClosedFormError,
    SieveCapError,
)
from .gallery import GALLERY, gallery
from .multiindex import EMPTY_INDEX, MultiIndex
from .norms import (
    NormEstimate,
    norm_h2_exact,
    norm_hinf_grid,
    norm_hp_mc,
    norm_p_limit_check,
    vertical_mean,
    vertical_sup,
)
from .partial_sums import (
    LogBoundRow,
    abel_identity_check,
    log_bound_experiment,
    partial_sum_projection_check,
)
from .poisson import (
    RadiusVector,
    contraction_check,
    kernel_1d,
    kernel_m,
    kernel_m_series,
    poisson_convolve_exact,
    poisson_convolve_numeric,
)
from .primes import MAX_INDEX, factorize, index_of, nth_prime, primes_up_to
from .sampling import (
    IID_UNIFORM,
    KRONECKER_QMC,
    SamplerConfig,
    pairwise_mean,
    pairwise_sum,
    torus_angles,
)
from .serialize import (
    dirichlet_from_dict,
    dirichlet_to_dict,
    dumps,
    loads_dirichlet,
    loads_power,
    power_from_dict,
    power_to_dict,
)
from .series import (
    DirichletPoly,
    PowerPoly,
    bohr_lift,
    bohr_transform,
    dirichlet_line_values,
    max_coeff_gap,
    partial_sum,
    power_eval,
    power_values_at_angles,
    restrict,
)
from .spaces import SCALAR, CoeffSpace
from .translations import (
    TwistPoint,
    eps_gap_bound_h2,
    eps_norm_profile,
    hplus_norm,
    translate,
    twist,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDED_SO_FAR",
    "DIVERGENT_TREND",
    "CriterionReport",
    "CoeffSpace",
    "DimensionCapError",
    "DirichletPoly",
    "EMPTY_INDEX",
    "EstimatorInconsistencyError",
    "GALLERY",
    "IID_UNIFORM",
    "IndexRangeError",
    "KRONECKER_QMC",
    "LogBoundRow",
    "MAX_INDEX",
    "MultiIndex",
    "NoClosedFormError",
    "NormEstimate",
    "PowerPoly",
    "RadiusVector",
    "SCALAR",
    "SamplerConfig",
    "SieveCapError",
    "TwistPoint",
    "abel_identity_check",
    "bohr_lift",
    "bohr_transform",
    "c0_style_family",
    "cayley",
    "cayley_inv",
    "contraction_check",
    "dirichlet_from_dict",
    "dirichlet_line_values",
    "dirichlet_to_dict",
    "dumps",
    "eps_gap_bound_h2",
    "eps_norm_profile",
    "factorize",
    "gallery",
    "hilbert_criterion",
    "hplus_norm",
    "index_of",
    "kernel_1d",
    "kernel_m",
    "kernel_m_series",
    "khintchine_linear",
    "loads_dirichlet",
    "loads_power",
    "log_bound_experiment",
    "max_coeff_gap",
    "norm_h2_exact",
    "norm_hinf_grid",
    "norm_hp_mc",
    "norm_p_limit_check",
    "normalize_for_schwarz",
    "nth_prime",
    "pairwise_mean",
    "pairwise_sum",
    "partial_sum",
    "partial_sum_projection_check",
    "pointwise_eval_bound_h2",
    "poisson_convolve_exact",
    "poisson_convolve_numeric",
    "power_eval",
    "power_from_dict",
    "power_to_dict",
    "power_values_at_angles",
    "primes_up_to",
    "restrict",
    "schwarz_bound_check",
    "stolz_ratio",
    "torus_angles",
    "translate",
    "twist",
    "unit_direction_family",
    "vertical_mean",
    "vertical_sup",
]
