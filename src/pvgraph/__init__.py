"""Exploration of periodically varying graphs.

Carriers cycle forever over fixed routes; an agent rides them and may switch
whenever two carriers stand on the same site at the same instant. This
package models such systems, runs the two riding strategies against them,
generates the known worst-case families, and checks claimed lower bounds
with an exact search.
"""
from .core import (
    ANONYMOUS,
    IDS,
    Carrier,
    Route,
    RouteSet,
    build_meeting_graph,
    carriers_at,
    is_feasible,
    is_homogeneous,
    is_irredundant,
    is_simple,
)
from .engine import (
    Halt,
    HALT,
    Observation,
    Ride,
    Strategy,
    TimedEdge,
    Trace,
    Walk,
    default_move_limit,
    is_concrete_cover,
    replay_check,
    run,
    summary_record,
    trace_to_csv,
)
from .errors import (
    IllegalAction,
    InconsistentWalk,
    NoCoprimePair,
    NoSuitablePrime,
    NotIdMode,
    ParameterViolation,
    ParseError,
    PVGraphError,
    StateSpaceTooLarge,
    StrategyDidNotHalt,
    UnreachableSite,
)
from .fileformat import dump, dumps, load, loads, read_bound_comment
from .instances import (
    FAMILIES,
    Instance,
    forge_thm1,
    forge_thm2,
    gen_random_feasible,
    gen_sihe,
    gen_siho,
    gen_thm3,
    gen_thm4,
    gen_thm7,
    gen_thm8,
    make_instance,
)
from .oracle import BoundReport, audit, exact_feasible, min_moves
from .strategies import GuessingRide, HitchARide

__all__ = [
    "ANONYMOUS", "IDS",
    "Carrier", "Route", "RouteSet", "build_meeting_graph",
    "carriers_at", "is_feasible", "is_homogeneous", "is_irredundant", "is_simple",
    "Halt", "HALT", "Observation", "Ride", "Strategy", "TimedEdge", "Trace", "Walk",
    "default_move_limit", "is_concrete_cover", "replay_check", "run",
    "summary_record", "trace_to_csv",
    "PVGraphError", "IllegalAction", "InconsistentWalk", "NoCoprimePair",
    "NoSuitablePrime", "NotIdMode", "ParameterViolation", "ParseError",
    "StateSpaceTooLarge", "StrategyDidNotHalt",
    "UnreachableSite",
    "dump", "dumps", "load", "loads", "read_bound_comment",
    "FAMILIES", "Instance", "forge_thm1", "forge_thm2",
    "gen_random_feasible", "gen_sihe", "gen_siho", "gen_thm3", "gen_thm4",
    "gen_thm7", "gen_thm8", "make_instance",
    "BoundReport", "audit", "exact_feasible", "min_moves",
    "GuessingRide", "HitchARide",
]

__version__ = "0.1.0"
