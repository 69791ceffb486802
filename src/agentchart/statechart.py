"""Hierarchical statechart engine.

Supports basic states, XOR composition, AND orthogonality, shallow
history re-entry and join transitions (multiple sources in distinct
orthogonal regions).  Event processing is run-to-completion: an external
event is dispatched, enabled transitions fire as a maximal conflict-free
set, completion transitions and internally emitted events are drained
before the macrostep returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .errors import (
    DanglingReference,
    DuplicateId,
    IllegalJoin,
    LivelockDetected,
    MalformedComposite,
)

BASIC = "basic"
XOR = "xor-composite"
AND = "and-composite"

DEFAULT_QUEUE_LIMIT = 10_000

Guard = Callable[[Mapping[str, object]], bool]
Action = Callable[["ActionContext"], None]


@dataclass(frozen=True)
class Event:
    id: str


class TraceEvent(NamedTuple):
    """One engine occurrence; serializes to a single tab-separated line."""

    tick: int
    agent: str
    kind: str  # entered | exited | fired | emitted | perturbed
    subject: str
    detail: str = ""

    def to_line(self) -> str:
        return f"{self.tick}\t{self.agent}\t{self.kind}\t{self.subject}\t{self.detail}"


@dataclass(frozen=True)
class StateNode:
    id: str
    kind: str = BASIC
    children: tuple[str, ...] = ()
    initial: str | None = None
    history: str = "none"  # none | shallow
    entry_actions: tuple[Action, ...] = ()
    exit_actions: tuple[Action, ...] = ()


@dataclass(frozen=True)
class Transition:
    """e[c]/a arrow; more than one source encodes a join."""

    sources: tuple[str, ...]
    target: str
    event: str | None = None  # None = completion transition
    guard: Guard | None = None
    actions: tuple[Action, ...] = ()
    to_history: bool = False  # target via the composite's shallow-history entry
    label: str | None = None


@dataclass(frozen=True)
class Configuration:
    active: frozenset[str]
    history_memory: Mapping[str, str] = field(default_factory=dict)


class ActionContext:
    """What entry/exit/transition actions may touch during a macrostep."""

    def __init__(self, store: dict, snapshot: Mapping[str, object], emit_sink: list[Event]):
        self.vars = store  # writable store, visible to guards only next macrostep
        self.snapshot = snapshot  # read-only view taken at macrostep start
        self._emit_sink = emit_sink
        self.current_event: Event | None = None

    def emit(self, event_id: str) -> None:
        self._emit_sink.append(Event(event_id))


class Statechart:
    """Validated, immutable chart. Build through :func:`build_chart`.

    What a macrostep needs of the structure is resolved here once, per
    transition index: its domain, its exit scope and its entry path.
    """

    def __init__(self, nodes: dict[str, StateNode], transitions: list[Transition], root: str):
        self.nodes = nodes
        self.transitions = transitions
        self.root = root
        self.parent: dict[str, str] = {}
        for node in nodes.values():
            for child in node.children:
                self.parent[child] = node.id
        self.depth: dict[str, int] = {}
        self.ancestors: dict[str, frozenset[str]] = {}
        doc_order = self._index_tree()
        # innermost first; the stable sort keeps document order among equals
        exit_order = sorted(doc_order, key=lambda s: -self.depth[s])
        self.domain = [self._domain(tr) for tr in transitions]
        # the states each transition exits, when they are active, in exit order
        self.exit_scope = [
            tuple(s for s in exit_order if (s != root if d is None else d in self.ancestors[s]))
            for d in self.domain
        ]
        # from the domain (exclusive) down to the target; from the root itself
        # when the domain is None
        self.entry_path = [self._path_down(tr.target, d) for tr, d in zip(transitions, self.domain)]
        # event id -> [(decl_index, transition)] in conflict priority: deeper
        # source first, ties by declaration order
        source_depth = [max(self.depth[s] for s in tr.sources) for tr in transitions]
        self.by_event: dict[str | None, list[tuple[int, Transition]]] = {}
        for i in sorted(range(len(transitions)), key=lambda i: -source_depth[i]):
            self.by_event.setdefault(transitions[i].event, []).append((i, transitions[i]))

    def _index_tree(self) -> list[str]:
        """Record depths and ancestors; return the states in document order."""
        order = []
        stack = [(self.root, 0, frozenset())]
        while stack:
            sid, depth, anc = stack.pop()
            self.depth[sid] = depth
            self.ancestors[sid] = anc
            order.append(sid)
            child_anc = anc | {sid}
            for child in reversed(self.nodes[sid].children):
                stack.append((child, depth + 1, child_anc))
        return order

    def _domain(self, tr: Transition) -> str | None:
        """Deepest xor-composite that properly contains every source and the
        target.  And-composites cannot scope a transition: crossing between
        regions exits and re-enters the whole orthogonal component.

        None means the transition is scoped to the whole chart (restarts the
        root's interior).
        """
        anc = self.parent.get(tr.target)
        while anc is not None:
            if self.nodes[anc].kind == XOR and all(anc in self.ancestors[s] for s in tr.sources):
                return anc
            anc = self.parent.get(anc)
        return None

    def _path_down(self, target: str, domain: str | None) -> tuple[str, ...]:
        path = []
        sid = target
        while sid != domain:
            path.append(sid)
            sid = self.parent.get(sid)
        return tuple(reversed(path))

    def label_of(self, index: int) -> str:
        return self.transitions[index].label or f"t{index}"


def build_chart(nodes: list[StateNode], transitions: list[Transition] = ()) -> Statechart:
    """Validate structure and return an immutable chart.

    Raises DuplicateId, DanglingReference, MalformedComposite or
    IllegalJoin when an invariant is broken.
    """
    by_id: dict[str, StateNode] = {}
    for node in nodes:
        if node.id in by_id:
            raise DuplicateId(f"state id {node.id!r} declared twice")
        by_id[node.id] = node

    seen_as_child: set[str] = set()
    for node in by_id.values():
        for child in node.children:
            if child not in by_id:
                raise DanglingReference(f"{node.id!r} lists unknown child {child!r}")
            if child in seen_as_child:
                raise MalformedComposite(f"{child!r} has more than one parent")
            seen_as_child.add(child)

    roots = [s for s in by_id if s not in seen_as_child]
    if len(roots) != 1:
        raise MalformedComposite(f"expected exactly one root, found {sorted(roots)}")
    root = roots[0]

    for node in by_id.values():
        if node.kind == BASIC:
            if node.children:
                raise MalformedComposite(f"basic state {node.id!r} must have no children")
            if node.initial is not None:
                raise MalformedComposite(f"basic state {node.id!r} must have no initial state")
            if node.history != "none":
                raise MalformedComposite(f"history not permitted on basic state {node.id!r}")
        elif node.kind == XOR:
            if not node.children:
                raise MalformedComposite(f"xor-composite {node.id!r} needs at least one child")
            if node.initial is None or node.initial not in node.children:
                raise MalformedComposite(
                    f"xor-composite {node.id!r} needs an initial child from its children"
                )
        elif node.kind == AND:
            if len(node.children) < 2:
                raise MalformedComposite(f"and-composite {node.id!r} needs at least 2 regions")
            if node.initial is not None:
                raise MalformedComposite(f"and-composite {node.id!r} may not declare initial")
            if node.history != "none":
                raise MalformedComposite(f"history not permitted on and-composite {node.id!r}")
            for child in node.children:
                if by_id[child].kind == BASIC:
                    raise MalformedComposite(
                        f"region {child!r} of {node.id!r} must itself be a composite"
                    )
        else:
            raise MalformedComposite(f"unknown kind {node.kind!r} on {node.id!r}")
        if node.history not in ("none", "shallow"):
            raise MalformedComposite(
                f"{node.id!r}: only shallow history is supported, got {node.history!r}"
            )

    transitions = list(transitions)
    for i, tr in enumerate(transitions):
        if not tr.sources:
            raise MalformedComposite(f"transition {i} has no sources")
        for sid in tuple(tr.sources) + (tr.target,):
            if sid not in by_id:
                raise DanglingReference(f"transition {i} references unknown state {sid!r}")
        if tr.to_history:
            tnode = by_id[tr.target]
            if tnode.kind != XOR or tnode.history != "shallow":
                raise MalformedComposite(
                    f"transition {i}: history target {tr.target!r} is not a "
                    "shallow-history xor-composite"
                )

    chart = Statechart(by_id, transitions, root)
    for i, tr in enumerate(transitions):
        if len(tr.sources) > 1:
            _check_join(chart, i, tr)
    return chart


def _check_join(chart: Statechart, index: int, tr: Transition) -> None:
    """Join sources must sit in distinct regions of a common and-composite."""
    anc = chart.parent.get(tr.sources[0])
    while anc is not None:
        node = chart.nodes[anc]
        if node.kind == AND and all(anc in chart.ancestors[s] for s in tr.sources):
            regions = {
                next(c for c in node.children if c == s or c in chart.ancestors[s])
                for s in tr.sources
            }
            if len(regions) == len(tr.sources):
                return
        anc = chart.parent.get(anc)
    raise IllegalJoin(
        f"transition {index}: join sources {sorted(tr.sources)} do not lie in "
        "distinct orthogonal regions of a common and-composite"
    )


def initialize(
    chart: Statechart,
    vars: dict | None = None,
    trace: list[TraceEvent] | None = None,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
) -> Configuration:
    """Enter the default configuration (root, initial xor children, all and
    regions; entry actions outermost-first), then run to completion."""
    run = _Run(chart, Configuration(frozenset()), vars, [], trace, 0, "agent")
    run.default_complete(chart.root)
    run.run_to_completion(0, queue_limit)
    return Configuration(frozenset(run.active), run.history)


def dispatch(
    chart: Statechart,
    config: Configuration,
    event: Event,
    vars: dict | None = None,
    tick: int = 0,
    agent: str = "agent",
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    trace: list[TraceEvent] | None = None,
) -> tuple[Configuration, list[Event], list[TraceEvent]]:
    """Run one macrostep for ``event``.

    Returns the new configuration, every event emitted by actions, and
    the trace of the macrostep (also appended to ``trace`` if given).
    """
    run = _Run(chart, config, vars, [event], trace, tick, agent)
    mark = len(run.trace)
    run.ctx.current_event = event
    run.microstep(event.id)
    run.run_to_completion(1, queue_limit)
    step_trace = run.trace[mark:] if trace is not None else run.trace
    return Configuration(frozenset(run.active), run.history), run.queue[1:], step_trace


class _Run:
    """The working state of one initialize or dispatch call."""

    def __init__(self, chart, config, vars, queue, trace, tick, agent):
        self.chart = chart
        self.active = set(config.active)
        self.history = dict(config.history_memory)
        store = vars if vars is not None else {}
        self.queue = queue  # actions emit straight onto the queue
        self.ctx = ActionContext(store, MappingProxyType(dict(store)), queue)
        self.trace = trace if trace is not None else []
        self.tick = tick
        self.agent = agent

    def run_to_completion(self, qhead: int, queue_limit: int) -> None:
        """After the step just taken and after each queued event from
        ``qhead`` on: fire completion transitions until none is enabled, log
        the newly emitted events, then process the next queued event."""
        queue, logged = self.queue, qhead
        while True:
            guard = 0
            while self.microstep(None):
                guard += 1
                if guard > queue_limit:
                    raise LivelockDetected(f"completion cascade exceeded {queue_limit} steps")
            for ev in queue[logged:]:
                self.trace.append(TraceEvent(self.tick, self.agent, "emitted", ev.id, ""))
            logged = len(queue)
            if qhead == len(queue):
                return
            if qhead >= queue_limit:
                raise LivelockDetected(f"internal event queue exceeded {queue_limit} events")
            self.ctx.current_event = current = queue[qhead]
            qhead += 1
            self.microstep(current.id)

    def microstep(self, event_id: str | None) -> bool:
        """Fire one maximal conflict-free set of enabled transitions.

        ``event_id`` None selects completion transitions.  Returns True iff
        at least one transition fired.
        """
        chart, active, ctx = self.chart, self.active, self.ctx
        fired: list[tuple[int, Transition, list[str]]] = []
        exited: set[str] = set()
        for index, tr in chart.by_event.get(event_id, ()):
            if not all(s in active for s in tr.sources):
                continue
            if tr.guard is not None and not tr.guard(ctx.snapshot):
                continue
            exits = [s for s in chart.exit_scope[index] if s in active]
            if exited.isdisjoint(exits):
                fired.append((index, tr, exits))
                exited.update(exits)

        # every source lies in its transition's exit set (the never-exited root
        # aside), and the fired exit sets are disjoint: no firing disables another
        for index, tr, exits in fired:
            self.perform_exit(exits)
            self.trace.append(
                TraceEvent(self.tick, self.agent, "fired", chart.label_of(index), "->" + tr.target)
            )
            for action in tr.actions:
                action(ctx)
            self.perform_entry(index)
        return bool(fired)

    def perform_exit(self, exits: list[str]) -> None:
        chart = self.chart
        for sid in exits:
            parent = chart.parent.get(sid)
            if parent is not None:
                pnode = chart.nodes[parent]
                if pnode.kind == XOR and pnode.history == "shallow":
                    self.history[parent] = sid
            for action in chart.nodes[sid].exit_actions:
                action(self.ctx)
            self.active.discard(sid)
            self.trace.append(TraceEvent(self.tick, self.agent, "exited", sid, ""))

    def perform_entry(self, index: int) -> None:
        tr = self.chart.transitions[index]
        path = self.chart.entry_path[index]
        for i, sid in enumerate(path):
            if sid not in self.active:  # the root never exits
                self.enter_state(sid)
            node = self.chart.nodes[sid]
            # the regions of the target itself are entered by complete_interior
            if node.kind == AND and i + 1 < len(path):
                for child in node.children:
                    if child != path[i + 1]:
                        self.default_complete(child)

        self.complete_interior(tr.target, tr.to_history)

    def enter_state(self, sid: str) -> None:
        self.active.add(sid)
        self.trace.append(TraceEvent(self.tick, self.agent, "entered", sid, ""))
        for action in self.chart.nodes[sid].entry_actions:
            action(self.ctx)

    def complete_interior(self, sid: str, via_history: bool = False) -> None:
        """Enter the default interior of ``sid`` (already active itself)."""
        node = self.chart.nodes[sid]
        if node.kind == XOR:
            child = node.initial
            if via_history and node.history == "shallow":
                child = self.history.get(sid, node.initial)
            self.default_complete(child)
        elif node.kind == AND:
            for child in node.children:
                self.default_complete(child)

    def default_complete(self, sid: str) -> None:
        self.enter_state(sid)
        self.complete_interior(sid)
