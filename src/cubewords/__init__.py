"""Exact symbolic dynamics of cube billiard words in a golden-ratio direction."""

from .billiard import (
    BilliardWord,
    Direction,
    GOLDEN_DIRECTION,
    StartPoint,
    delete_letter,
    letter_frequencies,
    trace,
    trace_letters,
    validate,
)
from .directional import (
    DirectionalCensus,
    UnionComplexity,
    census,
    circle_language,
    sample_schedule,
    union_complexity,
)
from .exactnum import (
    FieldNumber,
    PHI,
    PHI_SQRT2,
    SQRT2,
    reduce_mod1,
    sign,
)
from .returns import (
    TRANSLATION_ANGLE,
    CellLabel,
    CirclePartition,
    FacePartition,
    cell_of,
    circle_partition,
    kth_return_prediction,
    reconstruct,
    return_words,
)
from .rotation import (
    coding_complexity,
    rotation_coding,
    zmodule_rank,
)
from .verification import CriterionResult, VerificationContext, run_all
from .words import (
    ComplexityProfile,
    SuffixAutomaton,
    cassaigne_check,
    complexity,
    is_sturmian,
)

__all__ = [
    "BilliardWord",
    "CellLabel",
    "CirclePartition",
    "ComplexityProfile",
    "CriterionResult",
    "Direction",
    "DirectionalCensus",
    "FacePartition",
    "FieldNumber",
    "GOLDEN_DIRECTION",
    "PHI",
    "PHI_SQRT2",
    "SQRT2",
    "StartPoint",
    "SuffixAutomaton",
    "TRANSLATION_ANGLE",
    "UnionComplexity",
    "VerificationContext",
    "cassaigne_check",
    "cell_of",
    "census",
    "circle_language",
    "circle_partition",
    "coding_complexity",
    "complexity",
    "delete_letter",
    "is_sturmian",
    "kth_return_prediction",
    "letter_frequencies",
    "reconstruct",
    "reduce_mod1",
    "return_words",
    "rotation_coding",
    "run_all",
    "sample_schedule",
    "sign",
    "trace",
    "trace_letters",
    "union_complexity",
    "validate",
    "zmodule_rank",
]

__version__ = "0.1.0"
