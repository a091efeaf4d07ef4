"""Fisher information, Bures metric, and rank-change discontinuity
analysis for parametric families of density matrices."""

from .classical import (
    ClassicalDiscontinuityReport,
    Distribution,
    classical_discontinuity,
    fisher_information,
    kl_divergence,
)
from .discontinuity import (
    BranchSamples,
    DiscontinuityReport,
    classify,
    vanishing_eigenvalue_branch,
)
from .estimation import (
    EstimationReport,
    mle,
    run_cr_experiment,
    sample_outcomes,
)
from .models import (
    GhzBlock,
    GhzBlockSet,
    ParametricModel,
    classical_bit_state,
    ghz_blocks,
    ghz_coefficients,
    ghz_qfi_continuous,
    ghz_qfi_discontinuous,
    ghz_state,
    lindblad_integrate,
    make_model,
    qubit_bloch_qfi,
    trig_model_state,
)
from .quantum import (
    LimitEstimate,
    SpectralData,
    bures_metric_fd,
    fidelity,
    model_qfi,
    qfi,
    qfi_and_metric,
    qfi_limit,
    spectral_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BranchSamples",
    "ClassicalDiscontinuityReport",
    "DiscontinuityReport",
    "Distribution",
    "EstimationReport",
    "GhzBlock",
    "GhzBlockSet",
    "LimitEstimate",
    "ParametricModel",
    "SpectralData",
    "bures_metric_fd",
    "classical_bit_state",
    "classical_discontinuity",
    "classify",
    "fidelity",
    "fisher_information",
    "ghz_blocks",
    "ghz_coefficients",
    "ghz_qfi_continuous",
    "ghz_qfi_discontinuous",
    "ghz_state",
    "kl_divergence",
    "lindblad_integrate",
    "make_model",
    "mle",
    "model_qfi",
    "qfi",
    "qfi_and_metric",
    "qfi_limit",
    "qubit_bloch_qfi",
    "run_cr_experiment",
    "sample_outcomes",
    "spectral_decompose",
    "trig_model_state",
    "vanishing_eigenvalue_branch",
]
