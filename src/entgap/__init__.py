"""Reflected entropies, purification bounds, and gap-violation searches."""

from .entropy import (
    DEFAULT_ENTROPY,
    EntropyConfig,
    hermitian_spectrum,
    max_tmi,
    von_neumann,
)
from .reflect import canonical_purification, reflected_entropy, sqrt_density
from .states import (
    DensityMatrix,
    Dims,
    PartitionSpec,
    QuditState,
    default_partition,
    equal_superposition,
    partial_trace,
)

__version__ = "0.1.0"

from .objective import (  # noqa: E402
    GapProfile,
    ObjectiveConfig,
    UTParams,
    gap,
    objective_value_and_gradient,
    penalized_gap,
    state_from_params,
    two_party_density,
)
from .optimize import (  # noqa: E402
    AdamConfig,
    ShotRecord,
    SweepRecord,
    adam_step,
    derive_seeds,
    run_batch,
    run_shot,
    state_from_record,
    state_gap_curve,
    sweep_min_gap,
)

__all__ = [
    "AdamConfig",
    "GapProfile",
    "ObjectiveConfig",
    "ShotRecord",
    "SweepRecord",
    "UTParams",
    "adam_step",
    "derive_seeds",
    "gap",
    "objective_value_and_gradient",
    "penalized_gap",
    "run_batch",
    "run_shot",
    "state_from_params",
    "state_from_record",
    "state_gap_curve",
    "sweep_min_gap",
    "two_party_density",
    "DEFAULT_ENTROPY",
    "DensityMatrix",
    "Dims",
    "EntropyConfig",
    "PartitionSpec",
    "QuditState",
    "canonical_purification",
    "default_partition",
    "equal_superposition",
    "hermitian_spectrum",
    "max_tmi",
    "partial_trace",
    "reflected_entropy",
    "sqrt_density",
    "von_neumann",
    "__version__",
]
