"""Embodied-agent layer: device inventory with enable/disable history,
controller derivation from the body, and the perception -> decision ->
effector behavior loop driven by a statechart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def device(self, did: str) -> DeviceSpec:
        for d in self.devices:
            if d.id == did:
                return d
        raise UnknownDevice(did)

    def enabled_inputs(self) -> list[DeviceSpec]:
        return [d for d in self.devices if d.direction == "input" and self.enabled.get(d.id)]

    def enabled_outputs(self) -> list[DeviceSpec]:
        return [d for d in self.devices if d.direction == "output" and self.enabled.get(d.id)]

    def is_operable(self) -> bool:
        return bool(self.enabled_inputs()) and bool(self.enabled_outputs())


@dataclass
class AgentSpec:
    agent_id: str
    body: BodyConfig
    controller: ControllerTopology


# Percept / ActionSet are plain dicts keyed by device id.
Percept = dict[str, float]
ActionSet = dict[str, object]


def configure_body(
    devices: list[DeviceSpec],
    selection: dict[str, bool],
    prior: BodyConfig | None = None,
) -> BodyConfig:
    """Apply an enable/disable selection over the inventory.

    Devices absent from the selection keep their prior state when one is
    given (shallow-history semantics); on first entry they default to
    disabled.
    """
    declared = {d.id for d in devices}
    for did in selection:
        if did not in declared:
            raise UnknownDevice(f"selection names undeclared device {did!r}")
    enabled: dict[str, bool] = {}
    for d in devices:
        if d.id in selection:
            enabled[d.id] = bool(selection[d.id])
        elif prior is not None:
            enabled[d.id] = bool(prior.enabled.get(d.id, False))
        else:
            enabled[d.id] = False
    return BodyConfig(tuple(devices), enabled)


def derive_controller(
    body: BodyConfig,
    prior: ControllerTopology | None = None,
    rng: np.random.Generator | None = None,
    weight_sigma: float = 1.0,
) -> ControllerTopology:
    """Mirror the body in the controller: one input neuron per enabled
    input device, one output neuron per enabled output device.

    Connections between surviving neurons keep their prior weights; new
    input/output pairs get fresh Gaussian weights.  Hidden neurons in
    the prior survive unconditionally.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    input_ids = [d.id for d in body.enabled_inputs()]
    output_ids = [d.id for d in body.enabled_outputs()]

    neurons: list[Neuron] = [Neuron(nid, INPUT) for nid in input_ids]
    neurons += [Neuron(nid, OUTPUT) for nid in output_ids]
    prior_hidden = [n for n in (prior.neurons if prior else ()) if n.layer == HIDDEN]
    prior_by_id = {n.id: n for n in (prior.neurons if prior else ())}
    # keep prior biases for surviving io neurons
    neurons = [
        prior_by_id.get(n.id, n) if prior_by_id.get(n.id, n).layer == n.layer else n
        for n in neurons
    ]
    neurons += prior_hidden
    alive = {n.id for n in neurons}

    connections: list[Connection] = []
    covered: set[tuple[str, str]] = set()
    for conn in prior.connections if prior else ():
        if conn.from_id in alive and conn.to_id in alive:
            connections.append(conn)
            covered.add((conn.from_id, conn.to_id))
    k = len(connections)
    taken = {c.id for c in connections}
    for i in input_ids:
        for o in output_ids:
            if (i, o) in covered:
                continue
            while f"c{k}" in taken:
                k += 1
            connections.append(Connection(f"c{k}", i, o, float(rng.normal(0.0, weight_sigma))))
            taken.add(f"c{k}")
    return ControllerTopology(tuple(neurons), tuple(connections))


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


_BEHAVIOR_CHART: sc.Statechart | None = None


def behavior_chart() -> sc.Statechart:
    global _BEHAVIOR_CHART
    if _BEHAVIOR_CHART is None:
        _BEHAVIOR_CHART = build_behavior_chart()
    return _BEHAVIOR_CHART


@dataclass
class AgentRuntime:
    """One live agent: spec plus behavior-chart and controller state."""

    spec: AgentSpec
    config: sc.Configuration = None
    controller_state: ControllerState = field(default_factory=ControllerState)

    def __post_init__(self):
        if self.config is None:
            self.config = sc.initialize(behavior_chart())


# The behavior chart has no guards, actions or history, so a macrostep
# is a pure function of (active set, event); untraced steps hit a memo.
_DISPATCH_CACHE: dict[tuple[frozenset[str], str], sc.Configuration] = {}


def _behavior_dispatch(
    chart: sc.Statechart,
    config: sc.Configuration,
    event_id: str,
    tick: int,
    agent_id: str,
    trace: list[sc.TraceEvent] | None,
) -> sc.Configuration:
    if trace is not None:
        cfg, _, _ = sc.dispatch(
            chart, config, sc.Event(event_id), tick=tick, agent=agent_id, trace=trace
        )
        return cfg
    key = (config.active, event_id)
    cached = _DISPATCH_CACHE.get(key)
    if cached is None:
        cached, _, _ = sc.dispatch(chart, config, sc.Event(event_id))
        _DISPATCH_CACHE[key] = cached
    return cached


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
    agent: AgentRuntime,
    percept: Percept,
    tick: int = 0,
    trace: list[sc.TraceEvent] | None = None,
) -> ActionSet:
    """One sense -> decide -> act pass through the behavior chart.

    Returns the ActionSet; the controller state and chart configuration
    are updated in place on ``agent``.
    """
    body = agent.spec.body
    if not body.is_operable():
        raise BehaviorNotConfigured(
            f"agent {agent.spec.agent_id}: needs at least one enabled input and output"
        )
    enabled_inputs = {d.id for d in body.enabled_inputs()}
    if set(percept) != enabled_inputs:
        raise BehaviorNotConfigured(
            f"percept keys {sorted(percept)} do not match enabled inputs "
            f"{sorted(enabled_inputs)}"
        )

    chart = behavior_chart()
    aid = agent.spec.agent_id
    config = agent.config

    config = _behavior_dispatch(chart, config, EV_SENSE, tick, aid, trace)
    if trace is not None:
        for d in body.enabled_inputs():
            trace.append(sc.TraceEvent(tick, aid, "fired", f"sensed:{d.id}", repr(percept[d.id])))

    config = _behavior_dispatch(chart, config, EV_DECIDE, tick, aid, trace)
    outputs, agent.controller_state = eval_net(
        agent.spec.controller, agent.controller_state, dict(percept)
    )

    config = _behavior_dispatch(chart, config, EV_ACT, tick, aid, trace)
    actions: ActionSet = {}
    for d in body.enabled_outputs():
        value = outputs.get(d.id, 0.0)
        if d.output_levels:
            actions[d.id] = quantize(value, d.output_levels)
        else:
            actions[d.id] = value
    if trace is not None:
        for did in actions:
            trace.append(sc.TraceEvent(tick, aid, "fired", f"actuated:{did}", repr(actions[did])))

    config = _behavior_dispatch(chart, config, EV_TICK_DONE, tick, aid, trace)
    agent.config = config
    return actions
