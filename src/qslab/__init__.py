"""qslab: sampling laboratory and exact spectral solver for conservative
lattice gases (zero-range, exclusion, misanthrope) killed on a local
density-fluctuation event."""

__version__ = "0.1.0"

from .model import (Configuration, JumpKernel, Lattice, Model, RateFunction,
                    TargetSet, apply_jump, jump_rate, validate_model)
from .measures import (Marginal, ProductMeasure, WeightedEnsemble,
                       invert_density, partition_function)

__all__ = [
    "Configuration", "JumpKernel", "Lattice", "Model", "RateFunction",
    "TargetSet", "apply_jump", "jump_rate", "validate_model",
    "Marginal", "ProductMeasure", "WeightedEnsemble", "invert_density",
    "partition_function", "__version__",
]
