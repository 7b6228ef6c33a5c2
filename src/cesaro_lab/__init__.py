"""Numerical workbench for Cesaro sequence and function spaces.

Computes sequence/function-space norms with certified error bounds,
block-averaging embeddings with an isometry checker, Opial moduli with
closed forms and witness estimators, and a harness that mechanically
verifies the averaged Opial-type inequalities on constructively
weakly-null families.
"""

__version__ = "0.1.0"

from .model import (
    CElement,
    CesaroLabError,
    CheckReport,
    DomainError,
    Exponent,
    InvalidExponent,
    InvalidTolerance,
    NormResult,
    Partition,
    SchemaError,
    SpaceMismatch,
    SpaceSpec,
    StepFunction,
    TaggedVector,
    UnsupportedSpace,
    add,
    as_exponent,
    common_refinement,
    pointwise_norm,
    scale,
)
from .scalar import (
    ces_fun_norm,
    ces_seq_norm,
    check_embedding_inequality,
    lp_fun_norm,
    lr_fun_norm,
    weighted_l1_norm,
)
from .vector import SlotShiftFamily, SumElement, ces_vfun_norm, cesaro_sum_norm
from .embeddings import EmbeddedElement, embed_S, embed_T, embedded_outer_norm, verify_isometry
from .opial import (
    SCHUR,
    EmptyWitnessSet,
    EstimateReport,
    ModulusQuery,
    SchurFlag,
    VectorShiftFamily,
    estimate_eta_empirical,
    eta_closed_form,
    r_closed_form,
    splitting_check,
)
from .harness import (
    DegenerateInput,
    EtaRecipe33,
    EtaRecipe34,
    ExponentOrder,
    FunctionShiftFamily,
    HypothesisViolation,
    TauOutOfRange,
    TauTooLarge,
    Thm31Report,
    check_cor32,
    check_prop21,
    check_sharpness_footnote,
    check_thm31,
    compute_eta_thm33,
    compute_eta_thm34,
    eval_phi,
    verify_thm33,
    verify_thm34,
)
from .suite import run_suite
