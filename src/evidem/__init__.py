"""Maximum-likelihood estimation for Rayleigh mixture life data observed
under progressive Type-II censoring, with prior component-label knowledge
expressed as belief-function plausibilities (soft labels)."""

__version__ = "0.1.0"

from .censoring import (
    CensoredDataset,
    CensoringScheme,
    SchemeError,
    conventional_scheme,
    draw_experiment,
    run_life_test,
    scheme_from_censor_frac,
)
from .estimator import (
    ComponentStarvedError,
    DegenerateLikelihoodError,
    E2MConfig,
    EstimationError,
    LabelMode,
    SoftLabeledDataset,
    fit_batch,
    make_soft_labels,
)
from .rayleigh import MixtureParams, sample_labeled
from .simulation import (
    CorruptionConfig,
    SweepSpec,
    corrupt_labels,
    draw_error_probs,
    rabias,
    run_sweep,
)

__all__ = [
    "__version__",
    "CensoringScheme",
    "CensoredDataset",
    "SchemeError",
    "conventional_scheme",
    "scheme_from_censor_frac",
    "run_life_test",
    "draw_experiment",
    "MixtureParams",
    "sample_labeled",
    "LabelMode",
    "SoftLabeledDataset",
    "E2MConfig",
    "EstimationError",
    "ComponentStarvedError",
    "DegenerateLikelihoodError",
    "fit_batch",
    "make_soft_labels",
    "CorruptionConfig",
    "SweepSpec",
    "draw_error_probs",
    "corrupt_labels",
    "rabias",
    "run_sweep",
]
