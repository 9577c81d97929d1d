"""Self-affine function family, its parameter derivative K, and the ternary
classification of K's infinite-derivative points."""

from .derivative import (
    DerivativeClass,
    DivergenceWitness,
    billingsley_divergence_witness,
    classify_point,
    secant_slope,
    sigma_decompose,
)
from .dimension import (
    BoxCountResult,
    WalkExperiment,
    a0_root,
    box_dimension_estimate,
    box_dimension_formula,
    hausdorff_frequency_dim,
    symmetric_triple,
    walk_monte_carlo,
)
from .errors import (
    DomainError,
    ProofCheckError,
    ResourceLimitError,
)
from .functions import (
    PiecewiseLinear,
    SeriesTruncation,
    big_phi,
    binary_truncation,
    dFa_da_fd,
    k_exact,
    k_series_digits,
    k_series_phi,
    k_series_phi_array,
    kobayashi_truncation,
    lebesgue_L,
    lebesgue_L_array,
    okamoto_iterative,
    okamoto_series,
    okamoto_series_array,
    takagi,
    takagi_array,
    tent_phi,
    ternary_truncation,
)
from .ternary import (
    DigitSeq,
    expand_rational,
    walk_value,
)

__version__ = "0.1.0"
