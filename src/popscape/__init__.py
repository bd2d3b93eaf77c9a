"""popscape: learned landscape features for meta-black-box optimization.

An attention-based population encoder turns an optimizer's current
population into landscape features, trained by multi-task neuroevolution
against classical feature baselines.
"""

__version__ = "0.1.0"

from .analyzer import AnalyzerConfig, FeatureSet, Observation
from .es import EsConfig, EsVariant
from .metabbo import TaskSpec
from .problems import ProblemSpec, bbob_split, make_problem
from .trainer import TrainingRunConfig

__all__ = [
    "AnalyzerConfig",
    "EsConfig",
    "EsVariant",
    "FeatureSet",
    "Observation",
    "ProblemSpec",
    "TaskSpec",
    "TrainingRunConfig",
    "bbob_split",
    "make_problem",
    "__version__",
]
