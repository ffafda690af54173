"""Static electromechanical simulation of electrostatically actuated
microcantilevers: deflection-voltage curves and pull-in prediction."""

from .analytic import (
    PullInEstimate,
    osterberg_displacement_identity,
    osterberg_pull_in,
)
from .beam import (
    BeamMesh,
    DeflectionField,
    build_mesh,
    solve_linear,
    solve_nonlinear,
)
from .catalog import (
    AspectRatios,
    BehaviourFlags,
    Material,
    Specimen,
    aspect_ratios,
    builtin_catalog,
    classify,
    load_specimens,
    save_specimens,
    select_specimen,
)
from .constants import VACUUM_PERMITTIVITY
from .coupled import (
    EquilibriumResult,
    PullInResult,
    SolverConfig,
    SweepResult,
    find_pull_in,
    modulus_band_sweep,
    solve_equilibrium,
    voltage_sweep,
)
from .electro import (
    FieldSolution,
    LoadModelConfig,
    maxwell_load,
    plate_load,
    solve_field2d,
)
from .errors import (
    ConvergenceError,
    GapClosureError,
    PullInNotFoundError,
    SpecimenFormatError,
)

__version__ = "0.1.0"

__all__ = [
    "AspectRatios",
    "BeamMesh",
    "BehaviourFlags",
    "ConvergenceError",
    "DeflectionField",
    "EquilibriumResult",
    "FieldSolution",
    "GapClosureError",
    "LoadModelConfig",
    "Material",
    "PullInEstimate",
    "PullInNotFoundError",
    "PullInResult",
    "SolverConfig",
    "Specimen",
    "SpecimenFormatError",
    "SweepResult",
    "VACUUM_PERMITTIVITY",
    "aspect_ratios",
    "build_mesh",
    "builtin_catalog",
    "classify",
    "find_pull_in",
    "load_specimens",
    "maxwell_load",
    "modulus_band_sweep",
    "osterberg_displacement_identity",
    "osterberg_pull_in",
    "plate_load",
    "save_specimens",
    "select_specimen",
    "solve_equilibrium",
    "solve_field2d",
    "solve_linear",
    "solve_nonlinear",
    "voltage_sweep",
]
