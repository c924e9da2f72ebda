"""Spectral analysis, simulation, and weak limits of homogeneous quantum walks on Z."""

from .circle import rotation_distance, winding_of_samples
from .errors import (
    DomainError,
    ResolutionError,
    SpecFormatError,
    UnitarityError,
    ZqwalkError,
)
from .laurent import LaurentPoly
from .limit import (
    LimitMeasure,
    MomentComparison,
    cdf_distance,
    compare_moments,
    limit_measure,
    limit_moments,
)
from .model import (
    ModelWalkSpec,
    build_model_walk,
    deinterleave_channels,
    interleave_channels,
    lambda_coeffs_from_samples,
    rearrangement_check,
)
from .simulate import (
    PositionDistribution,
    StateVector,
    apply_walk,
    evolve,
    fourier_position_distribution,
    position_distribution,
    rescaled_moment,
)
from .spectral import (
    Band,
    EigenSystem,
    TrackingRecord,
    are_conjugate,
    band_projections,
    ct_realizable,
    is_decomposable,
    refine_system,
    total_winding,
    track_bands,
    winding_numbers,
)
from .symbol import (
    CharPoly,
    DecayClass,
    SymbolMatrix,
    UnitarityReport,
    adjoint,
    char_poly,
    classify_decay,
    compose,
    direct_sum,
    eval_symbol,
    symbol_power,
    verify_cayley_hamilton,
    verify_unitary_symbol,
)
from .walks import (
    coined_lambda,
    coined_walk,
    grover_lambda,
    grover_walk_3,
    modified_coined_walk,
    modified_lambda,
    walk_corpus,
)

__version__ = "0.1.0"
