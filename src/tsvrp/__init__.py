"""QUBO toolkit for time-gridded vehicle routing with capacities and states."""

from .decoder import (
    DecodeError,
    FeasibilityReport,
    RoutePlan,
    SolveStats,
    check_feasibility,
    decode,
    encode_plan,
    route_cost,
    stats,
)
from .hamiltonians import (
    PenaltyParameters,
    build_model,
    standard_parameters,
)
from .instance import (
    CostSeries,
    DurationSeries,
    Instance,
    InstanceError,
    TimeGrid,
    VariationSeries,
    Vehicle,
    WindowSet,
    apply_priority,
    discretize_durations,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .oracle import SearchCapExceeded, enumerate_optimal_routes
from .qubo import (
    ARRIVAL,
    DEPARTURE,
    PLAIN,
    BuildError,
    QuboModel,
    VariableCatalogue,
    VariableKey,
    build_catalogue,
)
from .samplers import (
    AnnealSchedule,
    SampleRecord,
    SampleSet,
    SamplerError,
    exhaustive_solve,
    simulated_anneal,
)

__version__ = "0.1.0"
