"""Embodied-agent layer: device inventory with an enable/disable selection,
controller derivation from the body, and the perception -> decision ->
effector step, whose behavior statechart is walked to record a trace.
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
    ControllerState,
    ControllerTopology,
    Neuron,
    eval_net,
    fresh_connection_id,
)
from .errors import BehaviorNotConfigured, UnknownDevice

COMM_CHANNEL = "comm"


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
    weight_sigma: float = 1.0,
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
                connections.append(Connection(cid, i, o, float(rng.normal(0.0, weight_sigma))))
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
C_CONF = "configuring_controller"
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


def build_behavior_chart() -> sc.Statechart:
    nodes = [
        sc.StateNode(B_ROOT, sc.AND, children=(PERCEPTION, CONTROL, DECISION, EFFECTOR)),
        sc.StateNode(PERCEPTION, sc.XOR, children=(P_WAIT, P_PROC), initial=P_WAIT),
        sc.StateNode(P_WAIT),
        sc.StateNode(P_PROC),
        sc.StateNode(CONTROL, sc.XOR, children=(C_READY, C_CONF), initial=C_READY),
        sc.StateNode(C_READY),
        sc.StateNode(C_CONF),
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


BEHAVIOR_CHART = build_behavior_chart()
BEHAVIOR_START = sc.initialize(BEHAVIOR_CHART)


@dataclass
class Agent:
    """One live agent: body and controller plus behavior-chart and
    controller state."""

    agent_id: str
    body: BodyConfig
    controller: ControllerTopology
    config: sc.Configuration = BEHAVIOR_START
    controller_state: ControllerState = field(default_factory=ControllerState)


def quantize(value: float, levels: tuple[str, ...]) -> str:
    """Equal-width thresholds over [0, 1] onto the ordered level list."""
    k = len(levels)
    idx = int(value * k)
    if idx >= k:
        idx = k - 1
    if idx < 0:
        idx = 0
    return levels[idx]


def step_agent(
    agent: Agent,
    percept: Percept,
    tick: int = 0,
    trace: list[sc.TraceEvent] | None = None,
) -> ActionSet:
    """One sense -> decide -> act pass: the controller maps the percept to
    the ActionSet and its state is updated in place on ``agent``.

    The behavior chart has no guards, actions or history and every pass
    returns it to its initial configuration, so it never changes an
    action; it is walked only to record ``trace``.
    """
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
    actions: ActionSet = {}
    for d in body.enabled_outputs:
        value = outputs[d.id]
        actions[d.id] = quantize(value, d.output_levels) if d.output_levels else value
    if trace is not None:
        _walk_behavior_chart(agent, percept, actions, tick, trace)
    return actions


def _walk_behavior_chart(
    agent: Agent,
    percept: Percept,
    actions: ActionSet,
    tick: int,
    trace: list[sc.TraceEvent],
) -> None:
    """Dispatch the pass's four events, each followed by the devices it
    reads or drives, and leave the agent in the chart's new configuration."""
    aid = agent.agent_id
    events = (
        (EV_SENSE, [(f"sensed:{d.id}", percept[d.id]) for d in agent.body.enabled_inputs]),
        (EV_DECIDE, ()),
        (EV_ACT, [(f"actuated:{did}", value) for did, value in actions.items()]),
        (EV_TICK_DONE, ()),
    )
    config = agent.config
    for event_id, devices in events:
        config, _, _ = sc.dispatch(
            BEHAVIOR_CHART, config, sc.Event(event_id), tick=tick, agent=aid, trace=trace
        )
        for subject, value in devices:
            trace.append(sc.TraceEvent(tick, aid, "fired", subject, repr(value)))
    agent.config = config
