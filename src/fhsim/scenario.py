"""Scenario files: a line-oriented format wiring a whole simulation.

A scenario declares the physical topology, the cells and user
populations feeding each radio unit, the timing sources, the session
requests, and the engine knobs, in five sections:

    [topology]
    node = rrh1 rrh            # name kind (rrh|bbu|switch|timing)
    link = rrh1 hub cap=10e9 delay=5e-6 jitter=1e-9

    [cells]
    cell = rrh1 scheme=modulation_bits layers=2 antennas=4
    ues = rrh1 count=10 mean_on=40 mean_off=40 demand=10 mcs_step=0.3
    control = rrh1 pdcch=144 prach_period=10 prach_res=144

    [sync]
    source = bbu1 quality=0 offset_ppb=0
    regen = 0.5

    [sessions]
    session = dl pattern=p2p src=rrh1 dst=bbu1 class=2 mean=1e8 peak=2e8 bound=1e-3 traffic=trace
    # patterns: p2p, aggregation (srcs=a,b,c), multi_bbu (dsts=x,y),
    # bbu_to_bbu; traffic: trace (from the ingress cell) or cbr rate=...;
    # mean= defaults to the peak

    [engine]
    scheduler = strict_priority
    horizon = 0.1
    subframes = 100
    seed = 1

Every entry is one line. Each kind of entry line (node, link, cell,
source, session) is one row of _ENTRIES, which parsing, rendering and
the cross-line checks all read: the row's _Keys table maps the line's
positional values and keys to the fields of the value it builds, and a
key left out keeps the field's default. Unknown, repeated or malformed
keys, dangling node references, a trace that offers more in a subframe
than its session's peak allows, an integer too large for a float, and
values that the built objects reject (prb=0, a self-loop link,
horizon = -1, a trace volume that overflows a float, ...) raise
ScenarioError naming the offending line, before run_scenario writes any
file; so do bad seed and subframes overrides and sweep sizes, at line 0.
ScenarioError is the only exception bad input raises. Parsing a
rendered scenario yields an equal Scenario value.

run_scenario streams the cell traces into the run (see CellTraces), so
a bad trace value is refused during the run or just after it, and
every file is written after the run.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterator, Sequence
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from itertools import islice
from typing import NamedTuple

from .control import Controller, Infeasible, SessionRequest
from .engine import (
    N_CLASSES,
    CircuitFeed,
    RegulatorPolicy,
    Scheduler,
    SwitchConfig,
    World,
    run,
)
from .fanout import Producer
from .metrics import assemble_report, check_sweep_sizes, overhead_sweep, write_report_csvs, write_sweep_csv
from .sync import ClockSource, build_sync_tree, propagate_sync, write_sync_csv
from .topology import (
    AggregationToOneBbu,
    BbuToBbu,
    LinkParams,
    LogicalPattern,
    NodeKind,
    PhysLink,
    PointToPoint,
    RrhToMultiBbu,
    pattern_shape,
    validate_pattern,
    wire,
)
from .traffic import (
    CellConfig,
    ClassicalIQ,
    ControlSchedule,
    FilteredIQ,
    ModulationBits,
    PduLevel,
    ReExtraction,
    SplitScheme,
    TrafficTrace,
    UeProfile,
    check_columns,
    constant_trace,
    generate_trace,  # noqa: F401  (unused here; perfbench's traced runs wrap this name)
    scheme_name,
    trace_rows,
    write_trace_csv,
)


class ScenarioError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line, self.message = line, message

    def __reduce__(self):
        # rebuilt from its own arguments, so it can come back from a forked child
        return type(self), (self.line, self.message)


class _At:
    """Context that re-raises a ValueError or OverflowError as ScenarioError at `line`, naming `key`."""

    def __init__(self, line: int, key: str = ""):
        self.line, self.key = line, key

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, (ValueError, OverflowError)):
            raise ScenarioError(self.line, f"{self.key}: {exc}" if self.key else str(exc)) from exc


_KINDS = {kind.value: kind for kind in NodeKind}

MAX_UES = 65_535  # a cell names its connected users with 16-bit RNTIs
MAX_SUBFRAMES = 1024 * 1024 * 10  # LTE numbering: 1,024 hyper-frames x 1,024 radio frames x 10

# Session pattern -> its shape, whose rules fhsim.topology keeps.
_PATTERNS = {
    "p2p": PointToPoint,
    "aggregation": AggregationToOneBbu,
    "multi_bbu": RrhToMultiBbu,
    "bbu_to_bbu": BbuToBbu,
}


@dataclass(frozen=True)
class NodeSpec:
    name: str
    kind: str
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    link: LinkParams = LinkParams()
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("self-loop links are not allowed")
        PhysLink(0, 0, 1, 0, **vars(self.link))  # PhysLink rejects out-of-range values


@dataclass(frozen=True)
class UeSpec:
    count: int = 10
    mean_on: float = 40.0
    mean_off: float = 40.0
    demand: int = 10
    mcs_step: float = 0.3
    mcs_init: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.count <= MAX_UES:
            raise ValueError(f"count must be in 0..{MAX_UES}, got {self.count}")
        self.profile()  # UeProfile rejects out-of-range values

    def profile(self) -> UeProfile:
        return UeProfile(self.mean_on, self.mean_off, self.demand, self.mcs_step, self.mcs_init)


@dataclass(frozen=True)
class CellSpec:
    node: str
    scheme: SplitScheme = ClassicalIQ()
    cell: CellConfig = CellConfig()
    ues: UeSpec = UeSpec()
    control: ControlSchedule = ControlSchedule()
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SourceSpec:
    node: str
    quality: int = 0
    offset_ppb: float = 0.0
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        ClockSource(0, self.quality, self.offset_ppb)  # ClockSource rejects out-of-range values


@dataclass(frozen=True, kw_only=True)
class SessionSpec:
    name: str
    pattern: str = "p2p"  # a key of _PATTERNS
    srcs: tuple[str, ...]
    dsts: tuple[str, ...]
    latency_class: int = 7
    mean_rate: float | None = None  # None: the peak
    peak_rate: float
    latency_bound: float = 1e-2
    scheme: SplitScheme | None = None
    traffic: str = "trace"  # trace | cbr
    cbr_rate: float | None = None
    frame: int | None = None
    timeout: float | None = None
    ue: int | None = None
    optional: bool = False
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.traffic not in ("trace", "cbr"):
            raise ValueError(f"unknown traffic kind {self.traffic!r}")
        if self.traffic == "cbr" and self.cbr_rate is None:
            raise ValueError("cbr traffic needs a rate")
        if self.cbr_rate is not None and self.cbr_rate > self.peak_rate:
            raise ValueError(f"rate {self.cbr_rate:g} is above peak {self.peak_rate:g}")
        try:
            pattern_shape(_PATTERNS[self.pattern], self.srcs, self.dsts)
        except ValueError as exc:
            raise ValueError(f"{self.pattern}: {exc}") from exc


@dataclass(frozen=True)
class EngineSpec:
    scheduler: str = "strict_priority"
    wrr_weights: tuple[tuple[int, int], ...] = ()  # sparse (class, weight) pairs
    queue_bytes: int = 256 * 1024
    input_buffer_bytes: int = 256 * 1024
    header_proc: float = 1e-6
    frame_bytes: int = 1000
    frame_timeout: float = 1e-3
    horizon: float = 0.1
    subframes: int = 100
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.horizon < math.inf:
            raise ValueError("horizon must be finite and >= 0")
        if self.subframes < 1:
            raise ValueError(f"subframes must be >= 1, got {self.subframes}")
        if self.subframes > MAX_SUBFRAMES:
            raise ValueError(f"subframes must be <= {MAX_SUBFRAMES}, got {self.subframes}")
        self.switch_config()
        RegulatorPolicy(self.frame_bytes, self.frame_timeout)

    def switch_config(self) -> SwitchConfig:
        weights = [1] * N_CLASSES
        named = set()
        for cls, weight in self.wrr_weights:
            if not 0 <= cls < N_CLASSES:
                raise ValueError(f"wrr class {cls} outside 0..{N_CLASSES - 1}")
            if cls in named:
                raise ValueError(f"wrr class {cls} named twice")
            named.add(cls)
            weights[cls] = weight
        return SwitchConfig(
            scheduler=Scheduler(self.scheduler),
            wrr_weights=tuple(weights),
            queue_bytes=self.queue_bytes,
            input_buffer_bytes=self.input_buffer_bytes,
            header_processing_delay=self.header_proc,
        )


@dataclass(frozen=True)
class Scenario:
    nodes: tuple[NodeSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    cells: tuple[CellSpec, ...] = ()
    sources: tuple[SourceSpec, ...] = ()
    regen_factor: float = 1.0
    sessions: tuple[SessionSpec, ...] = ()
    engine: EngineSpec = EngineSpec()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.regen_factor <= 1:
            raise ValueError("regen_factor must be in [0, 1]")


def _boolean(raw: str) -> bool:
    if raw in ("true", "yes", "1"):
        return True
    if raw in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _number(raw: str) -> float:
    """A float that is a number; inf is one (mean_on=inf pins a user's state)."""
    value = float(raw)
    if math.isnan(value):
        raise ValueError(f"{raw!r} is not a number")
    return value


def _integer(raw: str) -> int:
    """An int a float can hold, so that a volume or rate made from it can be a float."""
    value = int(raw)
    if abs(value) > sys.float_info.max:
        raise ValueError("integer too large for a float")
    return value


def _wrr_pairs(raw: str) -> tuple[tuple[int, int], ...]:
    chunks = (chunk.partition(":") for chunk in raw.split(","))
    return tuple((int(cls), int(weight)) for cls, _, weight in chunks)


def _scheme(raw: str) -> SplitScheme:
    for cls in _SCHEME_KEYS:
        if scheme_name(cls()) == raw:
            return cls()
    raise ValueError(f"unknown split scheme {raw!r}")


# Field annotation -> (parse a scenario value, render it back).
_CODECS = {
    "str": (str, str),
    "int": (_integer, str),
    "float": (_number, repr),
    "bool": (_boolean, lambda value: str(value).lower()),
    "tuple[str, ...]": (lambda raw: tuple(raw.split(",")), ",".join),
    "tuple[tuple[int, int], ...]": (_wrr_pairs, lambda pairs: ",".join(f"{c}:{w}" for c, w in pairs)),
    "SplitScheme": (_scheme, scheme_name),
}


class _Keys:
    """The scenario keys of one value type, each naming the field it fills.

    The field's annotation picks the parser and renderer, and the field's
    default is the key's default; a field without one needs its key.
    Where two keys fill one field (srcs and src), the first one renders.
    A split scheme takes its own keys from the line that names it. On a
    whole entry line, the positional values fill `names` in order, and
    each table of `parts` fills its field from keys of the same line.
    """

    def __init__(self, cls: type, keys: dict[str, str] | None = None, names: tuple[str, ...] = (), parts=None):
        specs = {f.name: f for f in fields(cls)}
        keys = keys if keys is not None else {name: name for name in specs}
        self.codecs = {
            key: (name, *_CODECS[specs[name].type.removesuffix(" | None")])
            for key, name in keys.items()
        }
        self.defaults = {name: specs[name].default for name in keys.values()}
        self.required = [name for name, default in self.defaults.items() if default is MISSING]
        self.cls, self.names, self.parts = cls, names, parts or {}

    def read(self, line_no: int, tokens: list[str], **given):
        """The value of one entry line from its tokens after `key =`."""
        if len(tokens) < len(self.names):
            raise ScenarioError(line_no, f"expected at least {len(self.names)} positional values")
        attrs = {}
        for token in tokens[len(self.names) :]:
            key, eq, raw = token.partition("=")
            if not eq:
                raise ScenarioError(line_no, f"expected key=value, got {token!r}")
            if key in attrs:
                raise ScenarioError(line_no, f"duplicate key {key!r}")
            attrs[key] = raw
        given.update(zip(self.names, tokens))
        for name, part in self.parts.items():
            given[name] = part.fill(line_no, attrs)
        value = self.fill(line_no, attrs, **given)
        if attrs:
            tables = [self, *self.parts.values()]
            tables += [_SCHEME_KEYS[type(v)] for v in vars(value).values() if type(v) in _SCHEME_KEYS]
            allowed = sorted(key for table in tables for key in table.codecs)
            raise ScenarioError(line_no, f"unknown key {next(iter(attrs))!r} (allowed: {allowed})")
        return value

    def fill(self, line_no: int, attrs: dict[str, str], **given):
        """Build the value from `given` plus this table's keys, popped from attrs."""
        values = dict(given)
        for key in [key for key in attrs if key in self.codecs]:
            name, parse, _ = self.codecs[key]
            if name in values:
                raise ScenarioError(line_no, f"{key}= sets {name}, which this line already set")
            with _At(line_no, key):
                values[name] = parse(attrs.pop(key))
            scheme_keys = _SCHEME_KEYS.get(type(values[name]))
            if scheme_keys is not None:
                values[name] = scheme_keys.fill(line_no, attrs)
        for name in self.required:
            if name not in values:
                options = " or ".join(f"{k}=" for k, (n, *_) in self.codecs.items() if n == name)
                raise ScenarioError(line_no, f"missing {options}")
        with _At(line_no):
            return self.cls(**values)

    def set(self, line_no: int, value, key: str, raw: str):
        """`value` with the field of `key` parsed from raw."""
        name, parse, _ = self.codecs[key]
        with _At(line_no, key):
            return replace(value, **{name: parse(raw)})

    def render(self, value, sep: str = "=") -> list[str]:
        """The positional values, key{sep}text for every field that differs from its default, the parts."""
        out = [getattr(value, name) for name in self.names]
        rendered = set()
        for key, (name, _, text) in self.codecs.items():
            current = getattr(value, name)
            if name in rendered or current == self.defaults[name]:
                continue
            rendered.add(name)
            out.append(f"{key}{sep}{text(current)}")
            if type(current) in _SCHEME_KEYS:
                out += _SCHEME_KEYS[type(current)].render(current)
        for name, part in self.parts.items():
            out += part.render(getattr(value, name))
        return out


_SCHEME_KEYS = {
    ClassicalIQ: _Keys(ClassicalIQ),
    FilteredIQ: _Keys(FilteredIQ, {"filter": "filter_factor"}),
    ReExtraction: _Keys(ReExtraction),
    ModulationBits: _Keys(ModulationBits, {"layers": "n_layers"}),
    PduLevel: _Keys(PduLevel, {"coded": "code_rate_applied"}),
}
_LINK = _Keys(
    LinkParams,
    {"cap": "capacity", "delay": "propagation_delay", "jitter": "jitter_std"},
)
_RADIO = _Keys(
    CellConfig,
    {
        "sampling": "sampling_rate",
        "antennas": "n_antennas",
        "iq_bits": "iq_bitwidth",
        "prb": "n_prb",
        "res_per_prb": "res_per_prb",
        "subframe": "subframe_duration",
        "overhead": "transport_overhead_factor",
        "compression": "compression_factor",
    },
)
_LINK_LINE = _Keys(LinkSpec, {}, ("a", "b"), {"link": _LINK})
_CELL = _Keys(CellSpec, {"scheme": "scheme"}, ("node",), {"cell": _RADIO})
_SOURCE = _Keys(SourceSpec, {"quality": "quality", "offset_ppb": "offset_ppb"}, ("node",))
_SESSION = _Keys(
    SessionSpec,
    {
        "pattern": "pattern",
        "srcs": "srcs",
        "src": "srcs",
        "dsts": "dsts",
        "dst": "dsts",
        "class": "latency_class",
        "mean": "mean_rate",
        "peak": "peak_rate",
        "bound": "latency_bound",
        "scheme": "scheme",
        "traffic": "traffic",
        "rate": "cbr_rate",
        "frame": "frame",
        "timeout": "timeout",
        "ue": "ue",
        "optional": "optional",
    },
    ("name",),
)


class _Entry(NamedTuple):
    """One kind of entry line."""

    field: str  # the Scenario field its values add to
    keys: _Keys
    repeat: str | None  # how a repeated first positional is named; None: it may repeat
    refs: dict[str, tuple[NodeKind, ...]]  # value field naming a node -> the kinds it may name


_SECTIONS = ("topology", "cells", "sync", "sessions", "engine")
_ANY = tuple(NodeKind)
# (section, line key) -> its row, in the order lines render.
_ENTRIES = {
    ("topology", "node"): _Entry("nodes", _Keys(NodeSpec, {}, ("name", "kind")), "node", {}),
    ("topology", "link"): _Entry("links", _LINK_LINE, None, {"a": _ANY, "b": _ANY}),
    ("cells", "cell"): _Entry("cells", _CELL, "cell for node", {"node": (NodeKind.RRH,)}),
    ("sync", "source"): _Entry(
        "sources", _SOURCE, "sync source at node", {"node": (NodeKind.BBU, NodeKind.FH_SWITCH)}
    ),
    ("sessions", "session"): _Entry("sessions", _SESSION, "session", {}),
}
# Lines that complete the cell of their node: line key -> CellSpec field of that name.
_CELL_PARTS = {
    "ues": _Keys(UeSpec),
    "control": _Keys(
        ControlSchedule,
        {"pdcch": "pdcch_res_per_subframe", "prach_period": "prach_period", "prach_res": "prach_res"},
    ),
}
# Sections of `key = value` settings, each updating one value.
_SETTINGS = {"sync": _Keys(Scenario, {"regen": "regen_factor"}), "engine": _Keys(EngineSpec)}


def parse_scenario(text: str, name: str = "") -> Scenario:
    """Parse scenario text into a validated Scenario, or raise ScenarioError."""
    found: dict[str, list] = {entry.field: [] for entry in _ENTRIES.values()}
    seen: set[tuple[str, str]] = set()  # (Scenario field, first positional) of rows that refuse repeats
    cell_parts: dict[str, dict[str, tuple[int, object]]] = {}  # node -> {line key: (line, value)}
    # Settings replace one field per line, so a rejected value names its line.
    settings = {"sync": Scenario(name=name), "engine": EngineSpec()}
    set_keys: set[tuple[str, str]] = set()
    section = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(line_no, f"malformed section header {line!r}")
            section = line[1:-1]
            if section not in _SECTIONS:
                raise ScenarioError(line_no, f"unknown section [{section}]")
            continue
        if section is None:
            raise ScenarioError(line_no, "content before the first section header")
        if "=" not in line:
            raise ScenarioError(line_no, f"expected key = value, got {line!r}")
        key, _, rest = line.partition("=")
        key, rest = key.strip(), rest.strip()
        tokens = rest.split()
        entry = _ENTRIES.get((section, key))

        if section in _SETTINGS and key in _SETTINGS[section].codecs:
            if (section, key) in set_keys:
                raise ScenarioError(line_no, f"duplicate key {key!r} in [{section}]")
            set_keys.add((section, key))
            settings[section] = _SETTINGS[section].set(line_no, settings[section], key, rest)
        elif entry is not None:
            value = entry.keys.read(line_no, tokens, line=line_no)
            if entry.repeat is not None:
                if (entry.field, tokens[0]) in seen:
                    raise ScenarioError(line_no, f"duplicate {entry.repeat} {tokens[0]!r}")
                seen.add((entry.field, tokens[0]))
            found[entry.field].append(value)
        elif section == "cells" and key in _CELL_PARTS:
            if not tokens:
                raise ScenarioError(line_no, "expected at least 1 positional values")
            parts = cell_parts.setdefault(tokens[0], {})
            if key in parts:
                raise ScenarioError(line_no, f"duplicate {key} line for node {tokens[0]!r}")
            parts[key] = (line_no, _CELL_PARTS[key].read(line_no, tokens[1:]))
        else:
            raise ScenarioError(line_no, f"unknown key {key!r} in [{section}]")

    cells = []
    for cell in found.pop("cells"):
        parts = cell_parts.pop(cell.node, {})
        cells.append(replace(cell, **{k: value for k, (_, value) in parts.items()}))
    for node_name, parts in cell_parts.items():
        stray_line, _ = next(iter(parts.values()))
        raise ScenarioError(stray_line, f"{'/'.join(parts)} for node {node_name!r} without a cell line")

    entries = {name: tuple(values) for name, values in found.items()}
    scenario = replace(settings["sync"], **entries, cells=tuple(cells), engine=settings["engine"])
    _validate(scenario)
    return scenario


def _validate(scenario: Scenario) -> None:
    """The checks that compare lines: node references, parallel links, session ends, trace cells."""
    if not scenario.nodes:
        raise ScenarioError(0, "no nodes declared")
    kind_of = {n.name: _KINDS[n.kind] for n in scenario.nodes}
    for (_, key), entry in _ENTRIES.items():
        for value in getattr(scenario, entry.field) if entry.refs else ():
            for name, kinds in entry.refs.items():
                node = getattr(value, name)
                if node not in kind_of:
                    raise ScenarioError(value.line, f"{key} references undeclared node {node!r}")
                if kind_of[node] not in kinds:
                    allowed = " or ".join(kind.value for kind in kinds)
                    raise ScenarioError(
                        value.line, f"{key}s attach to {allowed} nodes, {node!r} is {kind_of[node].value}"
                    )
    pairs = set()
    for link in scenario.links:
        pair = frozenset((link.a, link.b))
        if pair in pairs:
            raise ScenarioError(link.line, f"parallel link between {link.a!r} and {link.b!r}")
        pairs.add(pair)
    cell_nodes = {c.node for c in scenario.cells}
    for session in scenario.sessions:
        with _At(session.line, session.pattern):
            shape = pattern_shape(_PATTERNS[session.pattern], session.srcs, session.dsts)
            validate_pattern(kind_of, LogicalPattern(shape))
        if session.traffic == "trace":
            for src in session.srcs:
                if src not in cell_nodes:
                    raise ScenarioError(
                        session.line, f"trace traffic needs a cell at {src!r} (or use traffic=cbr)"
                    )


def render_scenario(scenario: Scenario) -> str:
    """Canonical text form, omitting default values; parsing it back yields an equal Scenario."""
    settings = {"sync": scenario, "engine": scenario.engine}
    out = []
    for section in _SECTIONS:
        out += ["", f"[{section}]"]
        for (where, key), entry in _ENTRIES.items():
            if where != section:
                continue
            for value in getattr(scenario, entry.field):
                out.append(" ".join([f"{key} =", *entry.keys.render(value)]))
                if entry.field == "cells":  # the lines that complete it follow it
                    for part, table in _CELL_PARTS.items():
                        out.append(" ".join([f"{part} =", value.node, *table.render(getattr(value, part))]))
        if section in _SETTINGS:
            out += _SETTINGS[section].render(settings[section], sep=" = ")
    out.append("")
    return "\n".join(out[1:])


@dataclass
class BuiltScenario:
    """Everything run_scenario assembles before pressing go."""

    scenario: Scenario
    node_id: dict[str, int]
    controller: Controller
    world: World
    traces: dict[str, TrafficTrace]  # per cell node name, complete once its CellTraces is drained
    bounds: dict[str, float]
    infeasible: list[tuple[str, str]]  # (session name, cause)


_BLOCK = 64  # subframes per block of cell traces


class CellTraces:
    """Every cell's trace, made subframe-major in checked blocks, read only as far as it is needed.

    Each cell's rows come from its own `trace_rows` generator, seeded
    `seed + declaration index`, so every trace is the same, bit for bit,
    whatever reads it and whenever. A block holds `_BLOCK` subframes of
    every cell, and it is checked before anything reads it: cell by
    cell in declaration order, by `TrafficTrace`'s rule (a failure there,
    or an exception making the rows, is a ScenarioError at the cell's
    line); then session by session in declaration order, against the
    peak each trace session reserves (at the session's line). So when
    several trace values are bad, the first bad block is reported, and
    within it the first in that order.

    `volumes(node)` is a cell's volume column as a lazy sequence of the
    trace's length: reading past what is made pulls the next block.
    `drain()` pulls the rest and returns every trace whole. With
    `fork`, a `Producer` makes the blocks in a forked child, where one
    can run on a CPU of its own, ahead of the reader, and the owner
    must `close()` it on every path. Otherwise the blocks are made
    in-process, as they are pulled.
    """

    def __init__(self, scenario: Scenario, engine: EngineSpec, fork: bool):
        self.length = engine.subframes
        self._cells = scenario.cells
        self._index = {cell.node: k for k, cell in enumerate(scenario.cells)}
        self._columns: list[tuple[list, list, list]] = [([], [], []) for _ in scenario.cells]
        blocks = partial(_trace_blocks, scenario, engine)
        self._blocks = Producer(blocks) if fork and scenario.cells else blocks()
        self.traces: dict[str, TrafficTrace] = {}  # filled by drain()

    def volumes(self, node: str) -> Sequence[float]:
        return _Volumes(self, self._columns[self._index[node]][0])

    def pull(self) -> None:
        """Append the next block to every cell's columns."""
        for columns, block in zip(self._columns, next(self._blocks)):
            for column, part in zip(columns, block):
                column.extend(part)

    def drain(self) -> dict[str, TrafficTrace]:
        """Pull every block left and return each cell's whole trace, by node name."""
        while self._columns and len(self._columns[0][0]) < self.length:
            self.pull()
        self.close()
        for cell, (volumes, prbs, control_res) in zip(self._cells, self._columns):
            self.traces[cell.node] = TrafficTrace(cell.cell, cell.scheme, volumes, prbs, control_res)
        return self.traces

    def close(self) -> None:
        """End the making of blocks: the producer's child, if there is one, is killed and reaped."""
        self._blocks.close()


class _Volumes(Sequence):
    """One cell's volume column, pulled from its CellTraces block by block as it is read."""

    def __init__(self, cells: CellTraces, values: list):
        self._cells, self._values = cells, values

    def __len__(self) -> int:
        return self._cells.length

    def __getitem__(self, sf: int) -> float:
        if not 0 <= sf < self._cells.length:
            raise IndexError(sf)
        while sf >= len(self._values):
            self._cells.pull()
        return self._values[sf]


def _trace_blocks(scenario: Scenario, engine: EngineSpec) -> Iterator[list[tuple[list, list, list]]]:
    """Every cell's trace columns, `_BLOCK` subframes at a time, each block checked as CellTraces states."""
    made = []
    for index, cell in enumerate(scenario.cells):
        profiles = [cell.ues.profile()] * cell.ues.count
        made.append(trace_rows(cell.cell, cell.scheme, profiles, cell.control, engine.subframes, engine.seed + index))
    at = {cell.node: k for k, cell in enumerate(scenario.cells)}
    peaks = [
        (spec.line, src, at[src], spec.peak_rate * scenario.cells[at[src]].cell.subframe_duration)
        for spec in scenario.sessions
        if spec.traffic == "trace"
        for src in spec.srcs
    ]
    for first in range(0, engine.subframes, _BLOCK):
        block = []
        for cell, rows in zip(scenario.cells, made):
            with _At(cell.line):
                columns = tuple(map(list, zip(*islice(rows, _BLOCK))))
                check_columns(*columns)
            block.append(columns)
        # a trace may not offer more than the peak the session reserves
        for line, src, k, limit in peaks:
            volumes = block[k][0]
            if max(volumes) > limit:
                sf = next(sf for sf, bits in enumerate(volumes) if bits > limit)
                raise ScenarioError(
                    line,
                    f"trace at {src!r} offers {volumes[sf]:g} bits in subframe {first + sf},"
                    f" above peak x subframe = {limit:g}",
                )
        yield block


def _engine_spec(scenario: Scenario, seed: int | None, subframes: int | None) -> EngineSpec:
    """The scenario's engine settings with the overrides given, each read as its line would be, at line 0."""
    engine_spec = scenario.engine
    for key, value in {"seed": seed, "subframes": subframes}.items():
        if value is not None:
            with _At(0, key):  # str() refuses an int of more than 4,300 digits
                engine_spec = _SETTINGS["engine"].set(0, engine_spec, key, str(value))
    return engine_spec


def build_scenario(
    scenario: Scenario,
    seed: int | None = None,
    subframes: int | None = None,
    *,
    traces: CellTraces | None = None,
) -> BuiltScenario:
    """Materialize topology, control state, traces, and the engine world.

    Optional overrides replace the scenario's seed and trace length; each
    is read as its `[engine]` line would be, and a bad one raises
    ScenarioError at line 0. A value the built objects reject raises
    ScenarioError at its line.
    The cells' traces come from `traces`, which run_scenario streams
    into the run; by default build_scenario makes them itself, in one
    process, and drains them before it returns, so it returns every trace
    complete and leaves no child process. The world's trace feeds read
    their volumes from those CellTraces, and a bad trace value raises
    ScenarioError where it is pulled (see CellTraces), after every
    error of the lines read here.
    """
    engine_spec = _engine_spec(scenario, seed, subframes)

    node_id = {spec.name: index for index, spec in enumerate(scenario.nodes)}
    linked = {end for spec in scenario.links for end in (spec.a, spec.b)}
    for spec in scenario.nodes:
        if spec.name not in linked:
            raise ScenarioError(spec.line, f"node {spec.name!r} has no link")
    with _At(0):
        topology = wire(
            [(_KINDS[spec.kind], spec.name) for spec in scenario.nodes],
            [(node_id[spec.a], node_id[spec.b], spec.link) for spec in scenario.links],
        )

    controller = Controller(topology, engine_spec.switch_config())
    cells = CellTraces(scenario, engine_spec, fork=False) if traces is None else traces

    infeasible: list[tuple[str, str]] = []
    bounds: dict[str, float] = {}
    feeds: list[CircuitFeed] = []
    radios = {c.node: c.cell for c in scenario.cells}
    for spec in scenario.sessions:
        srcs = tuple(node_id[s] for s in spec.srcs)
        dsts = tuple(node_id[d] for d in spec.dsts)
        with _At(spec.line):
            policy = RegulatorPolicy(
                max_frame_bytes=spec.frame if spec.frame is not None else engine_spec.frame_bytes,
                frame_timeout=spec.timeout if spec.timeout is not None else engine_spec.frame_timeout,
            )
            request = SessionRequest(
                pattern=LogicalPattern(pattern_shape(_PATTERNS[spec.pattern], srcs, dsts), ue_id=spec.ue),
                mean_rate=spec.peak_rate if spec.mean_rate is None else spec.mean_rate,
                peak_rate=spec.peak_rate,
                latency_class=spec.latency_class,
                latency_bound=spec.latency_bound,
                policy=policy,
            )
            try:
                session = controller.setup(request, name=spec.name)
            except Infeasible as exc:
                infeasible.append((spec.name, exc.cause))
                continue
            bounds[spec.name] = spec.latency_bound
            # one regulator per distinct ingress edge: the circuits of a
            # multi_bbu tree share theirs
            ingress = {}
            for circuit in session.circuits:
                ingress.setdefault((circuit.ingress, circuit.ingress_port, circuit.ingress_label), circuit)
            for circuit in ingress.values():
                src_name = scenario.nodes[circuit.ingress].name
                radio = radios.get(src_name, CellConfig())
                if spec.traffic == "cbr":
                    scheme = spec.scheme or ClassicalIQ()
                    volumes = constant_trace(radio, scheme, spec.cbr_rate, engine_spec.subframes).volumes
                else:
                    volumes = cells.volumes(src_name)
                feeds.append(
                    CircuitFeed(
                        session_id=session.id,
                        circuit_id=circuit.circuit_id,
                        ingress_node=circuit.ingress,
                        ingress_port=circuit.ingress_port,
                        label=circuit.ingress_label,
                        latency_class=spec.latency_class,
                        policy=policy,
                        volumes=volumes,
                        subframe_duration=radio.subframe_duration,
                    )
                )

    world = World(
        topology=topology,
        switches=controller.switches,
        circuits=feeds,
        egress=dict(controller.egress),
        config=controller.config,
    )
    if traces is None:
        cells.drain()
    return BuiltScenario(
        scenario=replace(scenario, engine=engine_spec),
        node_id=node_id,
        controller=controller,
        world=world,
        traces=cells.traces,
        bounds=bounds,
        infeasible=infeasible,
    )


def run_scenario(
    scenario: Scenario,
    out_dir: str,
    seed: int | None = None,
    subframes: int | None = None,
    sweep: list[int] | None = None,
) -> int:
    """Build, simulate, and export every report table to out_dir.

    Returns the process exit status: 0 on success, 1 when a mandatory
    session is infeasible (reports for the rest are still written).
    Bad input, the overrides and sweep sizes included, raises
    ScenarioError before any file is written; a file that cannot be
    written raises OSError. Identical inputs produce byte-identical files.
    """
    with _At(0, "sweep"):
        check_sweep_sizes(sweep or [])
    with closing(CellTraces(scenario, _engine_spec(scenario, seed, subframes), fork=True)) as cells:
        built = build_scenario(scenario, seed=seed, subframes=subframes, traces=cells)
        horizon = built.scenario.engine.horizon
        result = run(built.world, horizon)
        traces = cells.drain()
    sources = [ClockSource(built.node_id[s.node], s.quality, s.offset_ppb) for s in scenario.sources]
    tree = build_sync_tree(built.world.topology, sources)
    status = propagate_sync(tree, built.world.topology, scenario.regen_factor)

    os.makedirs(out_dir, exist_ok=True)
    write_sync_csv(tree, status, os.path.join(out_dir, "sync.csv"))
    for node_name, trace in traces.items():
        write_trace_csv(trace, os.path.join(out_dir, f"trace_{node_name}.csv"))
    report = assemble_report(result, built.bounds)
    write_report_csvs(report, out_dir)
    built.controller.write_log_csv(os.path.join(out_dir, "control_log.csv"))

    if sweep:
        rows = overhead_sweep(built.world, sweep, horizon)
        write_sweep_csv(rows, os.path.join(out_dir, "sweep.csv"))

    mandatory = {s.name for s in scenario.sessions if not s.optional}
    failed = [(name, cause) for name, cause in built.infeasible if name in mandatory]
    if failed:
        details = "; ".join(f"{name}: {cause}" for name, cause in failed)
        print(f"infeasible mandatory sessions: {details}")
        return 1
    return 0
