"""Scenario files: a line-oriented format wiring a whole simulation.

A scenario declares the physical topology, the cells and user
populations feeding each radio unit, the timing sources, the session
requests, and the engine knobs, in five sections:

    [topology]
    node = rrh1 rrh            # name kind (rrh|bbu|switch|timing)
    link = rrh1 hub cap=10e9 delay=5e-6 jitter=1e-9 class=fiber

    [cells]
    cell = rrh1 scheme=modulation_bits role=dbs
    ues = rrh1 count=10 mean_on=40 mean_off=40 demand=10 mcs_step=0.3
    control = rrh1 pdcch=144 prach_period=10 prach_res=144

    [sync]
    source = bbu1 quality=0 offset_ppb=0
    regen = 0.5

    [sessions]
    session = dl pattern=p2p src=rrh1 dst=bbu1 class=2 mean=1e8 peak=2e8 bound=1e-3 traffic=trace
    # patterns: p2p, aggregation (srcs=a,b,c), multi_bbu (dsts=x,y),
    # bbu_to_bbu; traffic: trace (from the ingress cell) or cbr rate=...

    [engine]
    scheduler = strict_priority
    horizon = 0.1
    subframes = 100
    seed = 1

Every entry is one line. Each key sets one field of the value its line
builds, as the _Keys tables below list; a key left out keeps the
field's default. Unknown, repeated or malformed keys, dangling node
references, and values that the built objects reject (prb=0, a
self-loop link, horizon = -1, ...) raise ScenarioError naming the
offending line, before run_scenario writes any file. Parsing a rendered
scenario yields an equal Scenario value.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields, replace

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
from .metrics import assemble_report, overhead_sweep, write_report_csvs, write_sweep_csv
from .packet import HEADER_BYTES
from .sync import ClockSource, build_sync_tree, propagate_sync, write_sync_csv
from .topology import (
    AggregationToOneBbu,
    BbuToBbu,
    LogicalPattern,
    Node,
    NodeKind,
    PhysLink,
    PhysicalTopology,
    PointToPoint,
    RrhToMultiBbu,
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
    constant_trace,
    generate_trace,
    scheme_name,
    write_trace_csv,
)


class ScenarioError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _At:
    """Context that re-raises a ValueError as ScenarioError at `line`, naming `key`."""

    def __init__(self, line: int, key: str = ""):
        self.line, self.key = line, key

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, ValueError):
            raise ScenarioError(self.line, f"{self.key}: {exc}" if self.key else str(exc)) from exc


_KINDS = {
    "rrh": NodeKind.RRH,
    "bbu": NodeKind.BBU,
    "switch": NodeKind.FH_SWITCH,
    "timing": NodeKind.TIMING_SOURCE,
}

# Session pattern -> for its sources and then its destinations, the node kind
# and whether several are allowed; last, its shape over (source ids, destination ids).
_PATTERNS = {
    "p2p": (("rrh", False), ("bbu", False), lambda s, d: PointToPoint(s[0], d[0])),
    "aggregation": (("rrh", True), ("bbu", False), lambda s, d: AggregationToOneBbu(s, d[0])),
    "multi_bbu": (("rrh", False), ("bbu", True), lambda s, d: RrhToMultiBbu(s[0], d)),
    "bbu_to_bbu": (("bbu", False), ("bbu", False), lambda s, d: BbuToBbu(s[0], d[0])),
}


@dataclass(frozen=True)
class NodeSpec:
    name: str
    kind: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    capacity: float = 10e9
    delay: float = 5e-6
    jitter: float = 1e-9
    link_class: str = "fiber"
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class UeSpec:
    count: int = 10
    mean_on: float = 40.0
    mean_off: float = 40.0
    demand: int = 10
    mcs_step: float = 0.3
    mcs_init: int | None = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        self.profile(0)  # UeProfile rejects out-of-range values

    def profile(self, ue_id: int) -> UeProfile:
        return UeProfile(ue_id, self.mean_on, self.mean_off, self.demand, self.mcs_step, self.mcs_init)


@dataclass(frozen=True)
class CellSpec:
    node: str
    scheme: SplitScheme = ClassicalIQ()
    role: str = ""
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


@dataclass(frozen=True, kw_only=True)
class SessionSpec:
    name: str
    pattern: str = "p2p"  # a key of _PATTERNS
    srcs: tuple[str, ...]
    dsts: tuple[str, ...]
    latency_class: int = 7
    mean_rate: float
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
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.subframes < 1:
            raise ValueError("subframes must be >= 1")
        self.switch_config()
        RegulatorPolicy(self.frame_bytes, self.frame_timeout)

    def switch_config(self) -> SwitchConfig:
        weights = [1] * N_CLASSES
        for cls, weight in self.wrr_weights:
            if not 0 <= cls < N_CLASSES:
                raise ValueError(f"wrr class {cls} outside 0..{N_CLASSES - 1}")
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
    "int": (int, str),
    "float": (float, repr),
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
    A split scheme takes its own keys from the line that names it.
    """

    def __init__(self, cls: type, keys: dict[str, str] | None = None):
        specs = {f.name: f for f in fields(cls)}
        keys = keys if keys is not None else {name: name for name in specs}
        self.codecs = {
            key: (name, *_CODECS[specs[name].type.removesuffix(" | None")])
            for key, name in keys.items()
        }
        self.defaults = {name: specs[name].default for name in keys.values()}
        self.required = [name for name, default in self.defaults.items() if default is MISSING]
        self.cls = cls

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
        """key{sep}text for every field of value that differs from its default."""
        out = []
        rendered = set()
        for key, (name, _, text) in self.codecs.items():
            current = getattr(value, name)
            if name in rendered or current == self.defaults[name]:
                continue
            rendered.add(name)
            out.append(f"{key}{sep}{text(current)}")
            if type(current) in _SCHEME_KEYS:
                out += _SCHEME_KEYS[type(current)].render(current)
        return out


_SCHEME_KEYS = {
    ClassicalIQ: _Keys(ClassicalIQ),
    FilteredIQ: _Keys(FilteredIQ, {"filter": "filter_factor"}),
    ReExtraction: _Keys(ReExtraction),
    ModulationBits: _Keys(ModulationBits, {"layers": "n_layers"}),
    PduLevel: _Keys(PduLevel, {"coded": "code_rate_applied"}),
}
_LINK = _Keys(LinkSpec, {"cap": "capacity", "delay": "delay", "jitter": "jitter", "class": "link_class"})
_CELL = _Keys(CellSpec, {"scheme": "scheme", "role": "role"})
_RADIO = _Keys(
    CellConfig,
    {
        "bandwidth": "radio_bandwidth",
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
# Lines that complete the cell of their node: line key -> CellSpec field of that name.
_CELL_PARTS = {
    "ues": _Keys(UeSpec),
    "control": _Keys(
        ControlSchedule,
        {"pdcch": "pdcch_res_per_subframe", "prach_period": "prach_period", "prach_res": "prach_res"},
    ),
}
_SOURCE = _Keys(SourceSpec, {"quality": "quality", "offset_ppb": "offset_ppb"})
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
)
# Sections of `key = value` settings, each updating one value.
_SETTINGS = {"sync": _Keys(Scenario, {"regen": "regen_factor"}), "engine": _Keys(EngineSpec)}


def _split(line_no: int, tokens: list[str], positional: int):
    if len(tokens) < positional:
        raise ScenarioError(line_no, f"expected at least {positional} positional values")
    attrs = {}
    for token in tokens[positional:]:
        key, eq, value = token.partition("=")
        if not eq:
            raise ScenarioError(line_no, f"expected key=value, got {token!r}")
        if key in attrs:
            raise ScenarioError(line_no, f"duplicate key {key!r}")
        attrs[key] = value
    return tokens[:positional], attrs


def _done(line_no: int, attrs: dict[str, str], *tables: _Keys | None) -> None:
    """Reject the keys of a line that none of its tables took."""
    if attrs:
        allowed = sorted(key for table in tables if table is not None for key in table.codecs)
        raise ScenarioError(line_no, f"unknown key {next(iter(attrs))!r} (allowed: {allowed})")


def parse_scenario(text: str, name: str = "") -> Scenario:
    """Parse scenario text into a validated Scenario, or raise ScenarioError."""
    nodes: list[NodeSpec] = []
    links: list[LinkSpec] = []
    cells: list[CellSpec] = []
    cell_parts: dict[str, dict[str, tuple[int, object]]] = {}  # node -> {line key: (line, value)}
    sources: list[SourceSpec] = []
    sessions: list[SessionSpec] = []
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
            if section not in ("topology", "cells", "sync", "sessions", "engine"):
                raise ScenarioError(line_no, f"unknown section [{section}]")
            continue
        if section is None:
            raise ScenarioError(line_no, "content before the first section header")
        if "=" not in line:
            raise ScenarioError(line_no, f"expected key = value, got {line!r}")
        key, _, rest = line.partition("=")
        key, rest = key.strip(), rest.strip()
        tokens = rest.split()

        if section in _SETTINGS and key in _SETTINGS[section].codecs:
            if (section, key) in set_keys:
                raise ScenarioError(line_no, f"duplicate key {key!r} in [{section}]")
            set_keys.add((section, key))
            settings[section] = _SETTINGS[section].set(line_no, settings[section], key, rest)
        elif (section, key) == ("topology", "node"):
            (node_name, kind), attrs = _split(line_no, tokens, 2)
            _done(line_no, attrs)
            if kind not in _KINDS:
                raise ScenarioError(line_no, f"unknown node kind {kind!r}")
            if any(n.name == node_name for n in nodes):
                raise ScenarioError(line_no, f"duplicate node {node_name!r}")
            nodes.append(NodeSpec(node_name, kind, line_no))
        elif (section, key) == ("topology", "link"):
            (a, b), attrs = _split(line_no, tokens, 2)
            links.append(_LINK.fill(line_no, attrs, a=a, b=b, line=line_no))
            _done(line_no, attrs, _LINK)
        elif (section, key) == ("cells", "cell"):
            (node_name,), attrs = _split(line_no, tokens, 1)
            if any(c.node == node_name for c in cells):
                raise ScenarioError(line_no, f"duplicate cell for node {node_name!r}")
            radio = _RADIO.fill(line_no, attrs)
            cell = _CELL.fill(line_no, attrs, node=node_name, cell=radio, line=line_no)
            _done(line_no, attrs, _CELL, _RADIO, _SCHEME_KEYS[type(cell.scheme)])
            cells.append(cell)
        elif section == "cells" and key in _CELL_PARTS:
            (node_name,), attrs = _split(line_no, tokens, 1)
            parts = cell_parts.setdefault(node_name, {})
            if key in parts:
                raise ScenarioError(line_no, f"duplicate {key} line for node {node_name!r}")
            parts[key] = (line_no, _CELL_PARTS[key].fill(line_no, attrs))
            _done(line_no, attrs, _CELL_PARTS[key])
        elif (section, key) == ("sync", "source"):
            (node_name,), attrs = _split(line_no, tokens, 1)
            if any(s.node == node_name for s in sources):
                raise ScenarioError(line_no, f"duplicate sync source at node {node_name!r}")
            sources.append(_SOURCE.fill(line_no, attrs, node=node_name, line=line_no))
            _done(line_no, attrs, _SOURCE)
        elif (section, key) == ("sessions", "session"):
            (session_name,), attrs = _split(line_no, tokens, 1)
            if any(s.name == session_name for s in sessions):
                raise ScenarioError(line_no, f"duplicate session {session_name!r}")
            session = _SESSION.fill(line_no, attrs, name=session_name, line=line_no)
            _done(line_no, attrs, _SESSION, _SCHEME_KEYS.get(type(session.scheme)))
            sessions.append(session)
        else:
            raise ScenarioError(line_no, f"unknown key {key!r} in [{section}]")

    final_cells = []
    for cell in cells:
        parts = cell_parts.pop(cell.node, {})
        final_cells.append(replace(cell, **{k: value for k, (_, value) in parts.items()}))
    for node_name, parts in cell_parts.items():
        stray_line, _ = next(iter(parts.values()))
        raise ScenarioError(stray_line, f"{'/'.join(parts)} for node {node_name!r} without a cell line")

    scenario = replace(
        settings["sync"],
        nodes=tuple(nodes),
        links=tuple(links),
        cells=tuple(final_cells),
        sources=tuple(sources),
        sessions=tuple(sessions),
        engine=settings["engine"],
    )
    _validate(scenario)
    return scenario


def _validate(scenario: Scenario) -> None:
    names = {n.name for n in scenario.nodes}
    kind_of = {n.name: n.kind for n in scenario.nodes}
    if not scenario.nodes:
        raise ScenarioError(0, "no nodes declared")
    pairs = set()
    for link in scenario.links:
        for end in (link.a, link.b):
            if end not in names:
                raise ScenarioError(link.line, f"link references undeclared node {end!r}")
        pair = frozenset((link.a, link.b))
        if pair in pairs:
            raise ScenarioError(link.line, f"parallel link between {link.a!r} and {link.b!r}")
        pairs.add(pair)
    for cell in scenario.cells:
        if cell.node not in names:
            raise ScenarioError(cell.line, f"cell references undeclared node {cell.node!r}")
        if kind_of[cell.node] != "rrh":
            raise ScenarioError(cell.line, f"cells attach to rrh nodes, {cell.node!r} is {kind_of[cell.node]}")
    for source in scenario.sources:
        if source.node not in names:
            raise ScenarioError(source.line, f"sync source references undeclared node {source.node!r}")
        if kind_of[source.node] not in ("bbu", "switch"):
            raise ScenarioError(
                source.line, f"sync sources attach to bbu or switch nodes, {source.node!r} is {kind_of[source.node]}"
            )
    cells_by_node = {c.node: c for c in scenario.cells}
    for session in scenario.sessions:
        if session.pattern not in _PATTERNS:
            raise ScenarioError(session.line, f"unknown pattern {session.pattern!r}")
        if session.traffic not in ("trace", "cbr"):
            raise ScenarioError(session.line, f"unknown traffic kind {session.traffic!r}")
        if session.traffic == "cbr" and session.cbr_rate is None:
            raise ScenarioError(session.line, "cbr traffic needs a rate")
        for end in session.srcs + session.dsts:
            if end not in names:
                raise ScenarioError(session.line, f"session references undeclared node {end!r}")
        sources, destinations, _ = _PATTERNS[session.pattern]
        for role, ends, (kind, several) in (
            ("source", session.srcs, sources),
            ("destination", session.dsts, destinations),
        ):
            if len(ends) > 1 and not several:
                raise ScenarioError(session.line, f"{session.pattern} takes one {role}")
            for end in ends:
                if kind_of[end] != kind:
                    raise ScenarioError(session.line, f"{session.pattern} {role} {end!r} must be {kind}")
        if session.traffic == "trace":
            for src in session.srcs:
                if src not in cells_by_node:
                    raise ScenarioError(
                        session.line, f"trace traffic needs a cell at {src!r} (or use traffic=cbr)"
                    )


def render_scenario(scenario: Scenario) -> str:
    """Canonical text form, omitting default values; parsing it back yields an equal Scenario."""
    out = ["[topology]"]
    out += [f"node = {node.name} {node.kind}" for node in scenario.nodes]
    out += [" ".join(["link =", link.a, link.b, *_LINK.render(link)]) for link in scenario.links]
    out += ["", "[cells]"]
    for cell in scenario.cells:
        out.append(" ".join(["cell =", cell.node, *_CELL.render(cell), *_RADIO.render(cell.cell)]))
        for key, table in _CELL_PARTS.items():
            out.append(" ".join([f"{key} =", cell.node, *table.render(getattr(cell, key))]))
    out += ["", "[sync]"]
    out += [" ".join(["source =", s.node, *_SOURCE.render(s)]) for s in scenario.sources]
    out += _SETTINGS["sync"].render(scenario, sep=" = ")
    out += ["", "[sessions]"]
    out += [" ".join(["session =", s.name, *_SESSION.render(s)]) for s in scenario.sessions]
    out += ["", "[engine]"]
    out += _SETTINGS["engine"].render(scenario.engine, sep=" = ")
    out.append("")
    return "\n".join(out)


@dataclass
class BuiltScenario:
    """Everything run_scenario assembles before pressing go."""

    scenario: Scenario
    topology: PhysicalTopology
    node_id: dict[str, int]
    controller: Controller
    world: World
    traces: dict[str, TrafficTrace]  # per cell node name
    bounds: dict[str, float]
    infeasible: list[tuple[str, str]]  # (session name, cause)


def build_scenario(
    scenario: Scenario,
    seed: int | None = None,
    subframes: int | None = None,
    scheduler: str | None = None,
) -> BuiltScenario:
    """Materialize topology, control state, traces, and the engine world.

    Optional overrides replace the scenario's seed, trace length, and
    scheduler (the latter for controlled A/B comparisons). A value the
    built objects reject raises ScenarioError at its line.
    """
    overrides = {"seed": seed, "subframes": subframes, "scheduler": scheduler}
    engine_spec = replace(scenario.engine, **{k: v for k, v in overrides.items() if v is not None})

    node_id = {spec.name: index for index, spec in enumerate(scenario.nodes)}
    port_counter = {spec.name: 0 for spec in scenario.nodes}
    links = []
    for spec in scenario.links:
        pa, pb = port_counter[spec.a], port_counter[spec.b]
        port_counter[spec.a] += 1
        port_counter[spec.b] += 1
        with _At(spec.line):
            links.append(
                PhysLink(
                    node_a=node_id[spec.a],
                    port_a=pa,
                    node_b=node_id[spec.b],
                    port_b=pb,
                    capacity=spec.capacity,
                    propagation_delay=spec.delay,
                    jitter_std=spec.jitter,
                    link_class=spec.link_class,
                )
            )
    for spec in scenario.nodes:
        if not port_counter[spec.name]:
            raise ScenarioError(spec.line, f"node {spec.name!r} has no link")
    nodes = [
        Node(
            id=node_id[spec.name],
            kind=_KINDS[spec.kind],
            ports=max(port_counter[spec.name], 2 if spec.kind == "switch" else 1),
            name=spec.name,
        )
        for spec in scenario.nodes
    ]
    with _At(0):
        topology = PhysicalTopology(nodes, links)

    switch_config = engine_spec.switch_config()
    controller = Controller(
        topology,
        {n.id: switch_config for n in nodes if n.kind is NodeKind.FH_SWITCH},
    )

    # Traffic traces, one per cell, seeded per declaration order.
    traces: dict[str, TrafficTrace] = {}
    for index, cell in enumerate(scenario.cells):
        profiles = [cell.ues.profile(u) for u in range(cell.ues.count)]
        with _At(cell.line):
            traces[cell.node] = generate_trace(
                cell.cell, cell.scheme, profiles, cell.control, engine_spec.subframes, engine_spec.seed + index
            )

    infeasible: list[tuple[str, str]] = []
    bounds: dict[str, float] = {}
    feeds: list[CircuitFeed] = []
    cells_by_node = {c.node: c for c in scenario.cells}
    for spec in scenario.sessions:
        srcs = tuple(node_id[s] for s in spec.srcs)
        dsts = tuple(node_id[d] for d in spec.dsts)
        with _At(spec.line):
            policy = RegulatorPolicy(
                max_frame_bytes=spec.frame if spec.frame is not None else engine_spec.frame_bytes,
                frame_timeout=spec.timeout if spec.timeout is not None else engine_spec.frame_timeout,
            )
            request = SessionRequest(
                pattern=LogicalPattern(_PATTERNS[spec.pattern][2](srcs, dsts), ue_id=spec.ue),
                mean_rate=spec.mean_rate,
                peak_rate=spec.peak_rate,
                latency_class=spec.latency_class,
                latency_bound=spec.latency_bound,
                scheme=spec.scheme,
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
                if spec.traffic == "cbr":
                    cell_cfg = (
                        cells_by_node[src_name].cell if src_name in cells_by_node else CellConfig()
                    )
                    trace = constant_trace(
                        cell_cfg, spec.scheme or ClassicalIQ(), spec.cbr_rate, engine_spec.subframes
                    )
                else:
                    trace = traces[src_name]
                feeds.append(
                    CircuitFeed(
                        session_id=session.id,
                        circuit_id=circuit.circuit_id,
                        ingress_node=circuit.ingress,
                        ingress_port=circuit.ingress_port,
                        label=circuit.ingress_label,
                        latency_class=spec.latency_class,
                        policy=policy,
                        volumes=list(trace.volumes),
                        subframe_duration=trace.cell.subframe_duration,
                    )
                )

    world = World(
        topology=topology,
        switches=controller.switches,
        circuits=feeds,
        egress=dict(controller.egress),
        host_scheduler=switch_config.scheduler,
        host_queue_bytes=engine_spec.queue_bytes,
        wrr_weights=switch_config.wrr_weights,
    )
    return BuiltScenario(
        scenario=replace(scenario, engine=engine_spec),
        topology=topology,
        node_id=node_id,
        controller=controller,
        world=world,
        traces=traces,
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
    Identical inputs produce byte-identical files.
    """
    for size in sweep or ():
        if size < HEADER_BYTES:
            raise ValueError(f"sweep frame size {size} below header length {HEADER_BYTES}")
    built = build_scenario(scenario, seed=seed, subframes=subframes)
    os.makedirs(out_dir, exist_ok=True)

    tree = build_sync_tree(
        built.topology,
        [
            ClockSource(
                node=built.node_id[s.node], quality_rank=s.quality, frequency_offset=s.offset_ppb
            )
            for s in scenario.sources
        ],
    )
    status = propagate_sync(tree, built.topology, scenario.regen_factor)
    write_sync_csv(tree, status, os.path.join(out_dir, "sync.csv"))

    for node_name, trace in built.traces.items():
        write_trace_csv(trace, os.path.join(out_dir, f"trace_{node_name}.csv"))

    horizon = built.scenario.engine.horizon
    result = run(built.world, horizon, built.scenario.engine.seed)
    report = assemble_report(result, built.bounds)
    write_report_csvs(report, out_dir)
    built.controller.write_log_csv(os.path.join(out_dir, "control_log.csv"))

    if sweep:
        rows = overhead_sweep(built.world, sweep, horizon, built.scenario.engine.seed)
        write_sweep_csv(rows, os.path.join(out_dir, "sweep.csv"))

    mandatory = {s.name for s in scenario.sessions if not s.optional}
    failed = [(name, cause) for name, cause in built.infeasible if name in mandatory]
    if failed:
        details = "; ".join(f"{name}: {cause}" for name, cause in failed)
        print(f"infeasible mandatory sessions: {details}")
        return 1
    return 0
