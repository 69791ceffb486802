"""Embodied-agent layer: device inventory with an enable/disable selection,
controller derivation from the body, and the perception -> decision ->
effector step, whose behavior statechart pass is compiled once into the
engine lines a traced episode writes for every agent and tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import statechart as sc
from .controller import (
    HIDDEN,
    INPUT,
    OUTPUT,
    Connection,
    ControllerTopology,
    Neuron,
    eval_net,
    fresh_connection_id,
    quantize,
)
from .errors import BehaviorNotConfigured, PassNotReplayable, UnknownDevice

COMM_CHANNEL = "comm"
NEW_WEIGHT_SIGMA = 1.0  # std of a new input/output pair's Gaussian weight


@dataclass(frozen=True)
class DeviceSpec:
    id: str
    direction: str  # input | output
    channel: str  # environment variable name, or "comm"
    output_levels: tuple[str, ...] = ()  # outputs only; empty = continuous

    def __post_init__(self):
        if not self.channel:
            raise UnknownDevice(f"device {self.id!r} has an empty channel")
        if self.output_levels and self.direction != "output":
            raise UnknownDevice(f"device {self.id!r}: only outputs may declare levels")


@dataclass(frozen=True)
class BodyConfig:
    devices: tuple[DeviceSpec, ...]
    enabled: dict[str, bool]

    @cached_property
    def enabled_inputs(self) -> tuple[DeviceSpec, ...]:
        return tuple(d for d in self.devices if d.direction == "input" and self.enabled.get(d.id))

    @cached_property
    def enabled_outputs(self) -> tuple[DeviceSpec, ...]:
        return tuple(d for d in self.devices if d.direction == "output" and self.enabled.get(d.id))

    @cached_property
    def input_ids(self) -> frozenset[str]:
        return frozenset(d.id for d in self.enabled_inputs)

    def is_operable(self) -> bool:
        return bool(self.enabled_inputs) and bool(self.enabled_outputs)


# Percept / ActionSet are plain dicts keyed by device id.
Percept = dict[str, float]
ActionSet = dict[str, object]


def configure_body(devices: list[DeviceSpec], selection: dict[str, bool]) -> BodyConfig:
    """Apply an enable/disable selection over the inventory.  Devices
    absent from the selection are disabled."""
    declared = {d.id for d in devices}
    for did in selection:
        if did not in declared:
            raise UnknownDevice(f"selection names undeclared device {did!r}")
    enabled = {d.id: bool(selection.get(d.id, False)) for d in devices}
    return BodyConfig(tuple(devices), enabled)


def derive_controller(
    body: BodyConfig,
    prior: ControllerTopology | None = None,
    rng: np.random.Generator | None = None,
) -> ControllerTopology:
    """Mirror the body in the controller: one input neuron per enabled
    input device, one output neuron per enabled output device.

    Input and output neurons are enabled and keep the bias of the prior
    neuron with the same id and layer.  Connections between surviving
    neurons keep their prior weights; new input/output pairs get fresh
    Gaussian weights.  Hidden neurons in the prior survive unless an input or
    output neuron has their id.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    input_ids = [d.id for d in body.enabled_inputs]
    output_ids = [d.id for d in body.enabled_outputs]

    prior = prior or ControllerTopology()
    prior_bias = {(n.id, n.layer): n.bias for n in prior.neurons}
    neurons = [
        Neuron(nid, layer, bias=prior_bias.get((nid, layer), 0.0))
        for layer, ids in ((INPUT, input_ids), (OUTPUT, output_ids))
        for nid in ids
    ]
    io_ids = {n.id for n in neurons}
    neurons += [n for n in prior.neurons if n.layer == HIDDEN and n.id not in io_ids]
    alive = {n.id for n in neurons}

    connections: list[Connection] = []
    covered: set[tuple[str, str]] = set()
    for conn in prior.connections:
        if conn.from_id in alive and conn.to_id in alive:
            connections.append(conn)
            covered.add((conn.from_id, conn.to_id))
    for i in input_ids:
        for o in output_ids:
            if (i, o) not in covered:
                cid = fresh_connection_id(connections)
                connections.append(Connection(cid, i, o, float(rng.normal(0.0, NEW_WEIGHT_SIGMA))))
    return ControllerTopology(tuple(neurons), tuple(connections))


def require_mirror(body: BodyConfig, topology: ControllerTopology) -> None:
    """Raise BehaviorNotConfigured unless the controller mirrors the body as
    derive_controller builds it: its input and output neurons are exactly
    one enabled neuron per enabled input and output device, and no two
    neurons share an id."""
    if len(set(topology.ids())) != len(topology.neurons):
        raise BehaviorNotConfigured("controller neuron ids must be unique")
    for layer, devices in ((INPUT, body.enabled_inputs), (OUTPUT, body.enabled_outputs)):
        neurons = {n.id: n.enabled for n in topology.neurons if n.layer == layer}
        if neurons != {d.id: True for d in devices}:
            raise BehaviorNotConfigured(f"{layer} neurons must mirror the enabled {layer} devices")


# --- behavior statechart -------------------------------------------------

# States of the per-agent behavior chart (Perception, Decision and the
# Effector run as orthogonal regions; joins couple them).
B_ROOT = "behavior"
PERCEPTION = "perception"
P_WAIT = "waiting_for_stimuli"
P_PROC = "processing_inputs"
CONTROL = "controller"
C_READY = "controller_ready"
DECISION = "decision"
D_IDLE = "decision_idle"
D_RUN = "running_neural_network"
EFFECTOR = "effector"
E_IDLE = "effector_idle"
E_ACT = "actuating"

EV_SENSE = "sense"
EV_DECIDE = "decide"
EV_ACT = "act"
EV_TICK_DONE = "tick_done"
PASS_EVENTS = (EV_SENSE, EV_DECIDE, EV_ACT, EV_TICK_DONE)


def build_behavior_chart() -> sc.Statechart:
    nodes = [
        sc.StateNode(B_ROOT, sc.AND, children=(PERCEPTION, CONTROL, DECISION, EFFECTOR)),
        sc.StateNode(PERCEPTION, sc.XOR, children=(P_WAIT, P_PROC), initial=P_WAIT),
        sc.StateNode(P_WAIT),
        sc.StateNode(P_PROC),
        sc.StateNode(CONTROL, sc.XOR, children=(C_READY,), initial=C_READY),
        sc.StateNode(C_READY),
        sc.StateNode(DECISION, sc.XOR, children=(D_IDLE, D_RUN), initial=D_IDLE),
        sc.StateNode(D_IDLE),
        sc.StateNode(D_RUN),
        sc.StateNode(EFFECTOR, sc.XOR, children=(E_IDLE, E_ACT), initial=E_IDLE),
        sc.StateNode(E_IDLE),
        sc.StateNode(E_ACT),
    ]
    transitions = [
        sc.Transition((P_WAIT,), P_PROC, event=EV_SENSE, label="sense"),
        # join: deciding needs collected inputs AND a ready controller
        sc.Transition((P_PROC, C_READY), D_RUN, event=EV_DECIDE, label="run_network"),
        sc.Transition((D_RUN,), E_ACT, event=EV_ACT, label="actuate"),
        sc.Transition((E_ACT,), E_IDLE, event=EV_TICK_DONE, label="rest"),
    ]
    return sc.build_chart(nodes, transitions)


# One macrostep's engine lines, without their tick and agent.
Segment = tuple[tuple[str, str, str], ...]


def compile_pass(chart: sc.Statechart, start: sc.Configuration) -> tuple[Segment, ...]:
    """Run the interpreter once over ``PASS_EVENTS`` from ``start`` and keep
    each macrostep's engine lines as (kind, subject, detail) triples.

    A macrostep is a function of the configuration and the event alone, so
    a pass that reads and writes no data and ends in ``start`` gives the
    same lines on every tick.  Raises PassNotReplayable when a transition
    the pass's events (or completion) can fire has a guard or an action,
    when a state the pass enters or exits has an action, when the pass
    emits an event, or when it does not end in ``start``.
    """
    triggers = {*PASS_EVENTS, None}
    for index, tr in enumerate(chart.transitions):
        if tr.event in triggers and (tr.guard is not None or tr.actions):
            label = chart.label_of(index)
            raise PassNotReplayable(f"transition {label!r} has a guard or an action")
    segments = []
    config = start
    for event_id in PASS_EVENTS:
        config, emitted, lines = sc.dispatch(chart, config, sc.Event(event_id))
        if emitted:
            raise PassNotReplayable(f"{event_id!r} emits {[e.id for e in emitted]}")
        for line in lines:
            node = chart.nodes.get(line.subject) if line.kind in ("entered", "exited") else None
            if node is not None and (node.entry_actions or node.exit_actions):
                raise PassNotReplayable(f"state {node.id!r} has an entry or exit action")
        segments.append(tuple((line.kind, line.subject, line.detail) for line in lines))
    if config != start:
        raise PassNotReplayable("the pass does not end in the start configuration")
    return tuple(segments)


BEHAVIOR_CHART = build_behavior_chart()
BEHAVIOR_START = sc.initialize(BEHAVIOR_CHART)
BEHAVIOR_PASS = compile_pass(BEHAVIOR_CHART, BEHAVIOR_START)


def tick_text(tick: int, tails: list[str]) -> str:
    """The non-empty ``tails`` as whole trace.log lines of ``tick``."""
    sep = f"\n{tick}\t"
    return f"{tick}\t{sep.join(tails)}\n"


@dataclass
class Agent:
    """One live agent: body and controller plus controller state."""

    agent_id: str
    body: BodyConfig
    controller: ControllerTopology
    controller_state: dict[str, float] = field(default_factory=dict)


def step_agent(agent: Agent, percept: Percept) -> ActionSet:
    """One sense -> decide -> act pass: the controller maps the percept to
    the ActionSet and its state is updated in place on ``agent``.  The
    behavior chart's pass never changes an action, so it is not run here;
    a traced episode writes its lines."""
    body = agent.body
    if not body.is_operable():
        raise BehaviorNotConfigured(
            f"agent {agent.agent_id}: needs at least one enabled input and output"
        )
    if percept.keys() != body.input_ids:
        raise BehaviorNotConfigured(
            f"percept keys {sorted(percept)} do not match enabled inputs "
            f"{sorted(body.input_ids)}"
        )
    outputs, agent.controller_state = eval_net(agent.controller, agent.controller_state, percept)
    return {d.id: quantize(outputs[d.id], d.output_levels) for d in body.enabled_outputs}
