"""Dimension-informed neural operators at desk scale."""

from .data import Batch, Dataset, Grid, Sample
from .dims import (
    DIMLESS,
    CharacteristicScales,
    Dimension,
    DimlessSpec,
    REGISTRY,
    characteristic_scales_from_sample,
    compute_dimensionless,
    similar_transform,
)
from .model import DimINOModel, ModelConfig, load_model, save_model
from .solvers import (
    SolverConfig,
    generate_dataset,
    solve_advection_analytic,
    solve_burgers_1d,
    solve_diffreact_2d,
    solve_ns_vorticity_2d,
)
from .sti import STIReport, solver_sti_oracle, sti_check
from .training import TrainConfig, adam_step, evaluate, rel_metric, train

__version__ = "0.1.0"
