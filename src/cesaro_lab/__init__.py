"""Numerical workbench for Cesaro sequence and function spaces.

Computes sequence/function-space norms with certified error bounds,
block-averaging embeddings with an isometry checker, Opial moduli with
closed forms and witness estimators, and a harness that mechanically
verifies the averaged Opial-type inequalities on constructively
weakly-null families.

Importing the package loads none of its modules: each name below, and
each submodule, is imported on first use (PEP 562), so a process loads
only the modules it reaches.  ``cesaro_lab.cli`` imports the harness,
the suite, the Opial estimators, the embeddings and the vector norms
only for the commands that use them.
"""

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "model": "CElement CesaroLabError CheckReport DomainError Exponent InvalidExponent InvalidTolerance "
             "NormResult Partition SchemaError SpaceMismatch SpaceSpec StepFunction TaggedVector "
             "UnsupportedSpace add as_exponent common_refinement pointwise_norm scale",
    "scalar": "ces_fun_norm ces_seq_norm check_embedding_inequality lp_fun_norm lr_fun_norm weighted_l1_norm",
    "vector": "SlotShiftFamily SumElement ces_vfun_norm cesaro_sum_norm",
    "embeddings": "EmbeddedElement embed_S embed_T embedded_outer_norm verify_isometry",
    "opial": "SCHUR EmptyWitnessSet EstimateReport ModulusQuery SchurFlag VectorShiftFamily "
             "estimate_eta_empirical eta_closed_form r_closed_form splitting_check",
    "harness": "DegenerateInput EtaRecipe33 EtaRecipe34 ExponentOrder FunctionShiftFamily HypothesisViolation "
               "TauOutOfRange TauTooLarge Thm31Report check_cor32 check_prop21 check_sharpness_footnote "
               "check_thm31 compute_eta_thm33 compute_eta_thm34 eval_phi verify_thm33 verify_thm34",
    "suite": "run_suite",
}
# name -> the submodule that defines it; a submodule maps to None
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULE.update(dict.fromkeys([*_EXPORTS, "numerics", "schemas"]))


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_SUBMODULE[name] or name}", __name__)
    value = globals()[name] = module if _SUBMODULE[name] is None else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
