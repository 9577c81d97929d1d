"""Self-affine function family, its parameter derivative K, and the ternary
classification of K's infinite-derivative points."""

from .derivative import (
    DerivativeClass,
    DivergenceWitness,
    SigmaDecomposition,
    WalkTrace,
    billingsley_divergence_witness,
    classify_by_frequency,
    classify_point,
    secant_slope,
    sigma_decompose,
    walk_trace,
)
from .dimension import (
    BoxCountResult,
    FrequencyTriple,
    WalkExperiment,
    a0_root,
    box_dimension_estimate,
    box_dimension_formula,
    frequency_set_members,
    hausdorff_frequency_dim,
    symmetric_triple,
    walk_monte_carlo,
)
from .errors import (
    ContractionError,
    DomainError,
    ProofCheckError,
    RangeError,
    ResourceLimitError,
)
from .functions import (
    PiecewiseLinear,
    SeriesTruncation,
    big_phi,
    big_phi_exact,
    binary_truncation,
    dFa_da_fd,
    k_exact,
    k_fe,
    k_series_digits,
    k_series_phi,
    k_series_phi_array,
    kobayashi_truncation,
    lebesgue_L,
    lebesgue_L_array,
    okamoto_fe,
    okamoto_iterative,
    okamoto_series,
    okamoto_series_array,
    shift_psi,
    takagi,
    takagi_array,
    tent_phi,
    ternary_truncation,
    yamaguti_hata_solve,
)
from .ternary import (
    DigitSeq,
    count_digit,
    digit_at,
    digit_frequency,
    expand_rational,
    f_weight,
    walk_value,
)

__version__ = "0.1.0"
