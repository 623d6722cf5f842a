"""qslab: sampling laboratory and exact spectral solver for conservative
lattice gases (zero-range, exclusion, misanthrope) killed on a local
density-fluctuation event."""

__version__ = "0.1.0"

from .model import (JumpKernel, Lattice, Model, RateFunction, TargetSet,
                    validate_model)
from .measures import (Marginal, ProductMeasure, WeightedEnsemble,
                       invert_density, partition_function)

__all__ = [
    "JumpKernel", "Lattice", "Model", "RateFunction", "TargetSet",
    "validate_model",
    "Marginal", "ProductMeasure", "WeightedEnsemble", "invert_density",
    "partition_function", "__version__",
]
