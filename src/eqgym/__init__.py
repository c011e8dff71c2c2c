"""Interactive equation-discovery benchmark: hidden-law environments,
quota-managed sessions, prior masking, and agent harnessing."""

from __future__ import annotations

__version__ = "0.2.0"

from .expr import (
    DomainError,
    EquivalenceVerdict,
    ExpressionError,
    Value,
    VariableDomain,
    canonicalize,
    equivalent,
    evaluate,
    parse,
    render,
)
from .environment import (
    LEVELS,
    EnvironmentSpec,
    PriorMask,
    SchemaError,
    ValidationError,
    bundled_environments,
    load_directory,
    load_file,
    load_spec,
    run_experiment,
    spec_to_dict,
)
from .session import (
    ObservationPacket,
    Session,
    TerminalSession,
    WireFormatError,
)
from .evaluation import (
    AggregateReport,
    FitReport,
    aggregate,
    difficulty,
    fit_report,
    oracle_test,
)
from .agents import (
    AgentTurn,
    MalformedTurn,
    ProtocolError,
    TransportError,
    agent_from_spec,
    parse_turn,
    serialize_turn,
)
from .harness import (
    EmptyRun,
    PlanError,
    RunPlan,
    build_plan,
    execute,
    load_run,
    report_text,
    run_session,
)

__all__ = [
    "__version__",
    # expressions
    "DomainError", "EquivalenceVerdict", "ExpressionError",
    "Value", "VariableDomain", "canonicalize", "equivalent", "evaluate",
    "parse", "render",
    # environments
    "LEVELS", "EnvironmentSpec", "PriorMask", "SchemaError",
    "ValidationError", "bundled_environments", "load_directory",
    "load_file", "load_spec", "run_experiment", "spec_to_dict",
    # sessions
    "ObservationPacket", "Session", "TerminalSession", "WireFormatError",
    # evaluation
    "AggregateReport", "FitReport", "aggregate", "difficulty",
    "fit_report", "oracle_test",
    # agents
    "AgentTurn", "MalformedTurn", "ProtocolError", "TransportError",
    "agent_from_spec", "parse_turn", "serialize_turn",
    # harness
    "EmptyRun", "PlanError", "RunPlan", "build_plan", "execute",
    "load_run", "report_text", "run_session",
]
