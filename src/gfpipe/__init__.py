"""Exact engine for generating-function transformations over Q(r)."""

from .cfrac import (
    JFraction,
    SFraction,
    contract_s_to_j,
    deleham,
    deleham_delta1,
    jfrac_to_series,
    series_to_jfrac,
    series_to_sfrac,
    sfrac_to_series,
    t_forward,
    t_forward_image,
    t_inverse,
)
from .ratfun import ONE, R, ZERO, FieldElem, fe
from .series import Series, divide, from_ratfun
from .transforms import (
    PipelineTrace,
    binomial_transform,
    inverse_sumudu,
    invert_transform,
    partial_P,
    pipeline_P,
    pipeline_P_trace,
    reverse_P,
    sumudu,
)
from .triangles import (
    RecurrenceCoeffs,
    RiordanArray,
    SquareMatrix,
    Triangle,
    binomial_matrix,
    identity_triangle,
    matmul,
    moment_functional,
    oracle,
    oracle_triangle,
    orthopoly_triangle,
    production_matrix,
    recurrence_from_production,
    reversal,
    riordan_apply,
    riordan_to_triangle,
    triangle_from_gf,
    tri_inverse,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
