"""Packet-switched fronthaul simulator.

Models the transport segment between remote radio units and centralized
baseband processing: function-split-dependent traffic generation,
session-based virtual circuits over a switched topology with
differentiated latency classes, and a clock-distribution layer that is
decoupled from payload routing.
"""

from .control import (
    Controller,
    Infeasible,
    ReservationLedger,
    Session,
    SessionRequest,
    compute_path,
)
from .engine import (
    CircuitFeed,
    RegulatorPolicy,
    RunResult,
    Scheduler,
    SwitchConfig,
    SwitchState,
    World,
    run,
)
from .metrics import (
    MetricsReport,
    assemble_report,
    efficiency,
    measured_efficiency,
    overhead_sweep,
)
from .packet import FhHeader, FhPacket, deserialize_header, serialize_header
from .scenario import (
    Scenario,
    ScenarioError,
    build_scenario,
    parse_scenario,
    render_scenario,
    run_scenario,
)
from .sync import ClockSource, ClockTree, SyncStatus, build_sync_tree, propagate_sync
from .topology import (
    AggregationToOneBbu,
    BbuToBbu,
    Chain,
    LinkParams,
    LogicalPattern,
    Node,
    NodeKind,
    PhysLink,
    PhysicalTopology,
    PointToPoint,
    Ring,
    RrhToMultiBbu,
    Star,
    build_topology,
)
from .traffic import (
    CellConfig,
    ClassicalIQ,
    ControlSchedule,
    FilteredIQ,
    McsEntry,
    ModulationBits,
    PduLevel,
    ReExtraction,
    TrafficTrace,
    UeProfile,
    constant_trace,
    generate_trace,
    peak_rate,
    scheme_name,
    trace_rows,
    write_trace_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
