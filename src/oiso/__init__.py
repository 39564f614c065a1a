"""Certified order isomorphisms on finite function-space models.

The package decides whether a linear bijection between finite-dimensional
function-space models preserves the nonnegativity cone in both directions,
and when it does, constructively recovers the weighted-composition form
(a point bijection plus a positive weight), with exact-rational and float
arithmetic modes. On top of that core sit classifiers for the classical
special cases (isometries, lattice isomorphisms, algebra isomorphisms), an
adequacy checker for function families on finite metric spaces, a boundary
explorer for noncompact sampled spaces, and a symbolic example space with
interval-certified local analytic forms.
"""

__version__ = "0.1.0"

from .adequacy import (
    AdequacyReport,
    SeparationInfeasibleError,
    build_precise_bump,
    build_subbasic_bump,
    check_adequate,
    clamp,
)
from .classify import ClassificationReport, classify, isometry_reduce
from .compactify import (
    AmbiguousBoundaryError,
    BoundaryDecomposition,
    CompactPoint,
    NonconvergentNetError,
    SampledSpace,
    SequenceSpec,
    WeightedCompositionSpec,
    compactified_decompose,
    compactify_value,
    embed,
    limit_points,
    uncompactify_value,
)
from .cones import Certificate, ConeRep, OperatorModel, cone_rep, is_order_isomorphism
from .exprs import (
    Clamp,
    Const,
    Expr,
    Ident,
    InconclusiveError,
    IntervalBox,
    LinComb,
    LocalForm,
    SinRamp,
    clamped_sin_ramp,
    decay_check,
    eval_expr,
    interval_eval,
    local_form,
    parse_sexpr,
    separation_witness,
    sin_ramp,
    to_sexpr,
)
from .recovery import (
    AmbiguousIntersectionError,
    Decomposition,
    InternalContradictionError,
    NormalizedOperator,
    NotOrderIsomorphismError,
    decompose,
    fip_check,
    normalize,
    recover_map,
    recover_point,
    verify_representation,
    zero_family,
)
from .spaces import (
    DimensionMismatchError,
    FunctionFamily,
    FunctionVec,
    PointSpace,
    ZeroSet,
    build_lipschitz_family,
    cone_membership,
    span_membership,
)
from .symfn import SymFn, parse_symfn

__all__ = [
    "__version__",
    "AdequacyReport",
    "AmbiguousBoundaryError",
    "AmbiguousIntersectionError",
    "BoundaryDecomposition",
    "Certificate",
    "ClassificationReport",
    "Clamp",
    "CompactPoint",
    "ConeRep",
    "Const",
    "Decomposition",
    "DimensionMismatchError",
    "Expr",
    "FunctionFamily",
    "FunctionVec",
    "Ident",
    "InconclusiveError",
    "InternalContradictionError",
    "IntervalBox",
    "LinComb",
    "LocalForm",
    "NonconvergentNetError",
    "NormalizedOperator",
    "NotOrderIsomorphismError",
    "OperatorModel",
    "PointSpace",
    "SampledSpace",
    "SeparationInfeasibleError",
    "SequenceSpec",
    "SinRamp",
    "SymFn",
    "WeightedCompositionSpec",
    "ZeroSet",
    "build_lipschitz_family",
    "build_precise_bump",
    "build_subbasic_bump",
    "check_adequate",
    "clamp",
    "clamped_sin_ramp",
    "classify",
    "compactified_decompose",
    "compactify_value",
    "cone_membership",
    "cone_rep",
    "decay_check",
    "decompose",
    "embed",
    "eval_expr",
    "fip_check",
    "interval_eval",
    "is_order_isomorphism",
    "isometry_reduce",
    "limit_points",
    "local_form",
    "normalize",
    "parse_sexpr",
    "parse_symfn",
    "recover_map",
    "recover_point",
    "separation_witness",
    "sin_ramp",
    "span_membership",
    "to_sexpr",
    "uncompactify_value",
    "verify_representation",
    "zero_family",
]
