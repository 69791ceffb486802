"""Perturbable environment: orthogonal scalar variables, first-match
context selection, actuation routing and next-tick neighbor messaging.

One update function computes every variable from the previous tick's
values, so the order in which it computes them never changes the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from .body import COMM_CHANNEL, BodyConfig, Percept
from .errors import NonFiniteVariable, UnknownChannel, UnknownDevice
from .statechart import TraceEvent

# update: (new_tick, previous values, effects by channel) -> a new dict of
# every variable's value; it never mutates the previous mapping
Update = Callable[
    [int, Mapping[str, float], Mapping[str, list[tuple[str, object]]]], dict[str, float]
]


@dataclass(frozen=True)
class ContextRule:
    context_id: str
    predicate: Callable[[Mapping[str, float]], bool]


class Environment:
    """Single-process synchronous environment shared by all agents."""

    def __init__(
        self,
        initial: dict[str, float],
        update: Update,
        context_rules: list[ContextRule],
        neighbors: dict[str, list[str]] | None = None,
    ):
        self.update = update
        self.context_rules = list(context_rules)
        self.neighbors = dict(neighbors or {})
        self.bodies: dict[str, BodyConfig] = {}
        # per agent, each enabled output's id -> the channel it drives
        self.effect_channels: dict[str, dict[str, str]] = {}
        self.tick = 0
        self.pending_effects: dict[str, list[tuple[str, object]]] = {}
        self._comm_outbox: list[tuple[str, object]] = []
        self.comm_mailbox: dict[str, list[tuple[str, object]]] = {}
        # current values; step() replaces this mapping and never mutates it,
        # so snapshots and the update function may hold on to it
        self.values: dict[str, float] = dict(initial)
        self.context = self._select_context(self.values)

    def register_agent(self, agent_id: str, body: BodyConfig) -> None:
        """Add an agent; every enabled device must read or drive a declared
        variable or the comm channel."""
        for device in body.enabled_inputs + body.enabled_outputs:
            if device.channel != COMM_CHANNEL and device.channel not in self.values:
                raise UnknownChannel(
                    f"device {device.id!r} uses unknown channel {device.channel!r}"
                )
        self.bodies[agent_id] = body
        self.effect_channels[agent_id] = {d.id: d.channel for d in body.enabled_outputs}
        self.neighbors.setdefault(agent_id, [])
        self.comm_mailbox.setdefault(agent_id, [])

    def _select_context(self, snapshot: Mapping[str, float]) -> str:
        for rule in self.context_rules:
            if rule.predicate(snapshot):
                return rule.context_id
        raise UnknownChannel(
            "no context rule matched; scenarios must declare a catch-all context"
        )

    # --- per-tick phases -------------------------------------------------

    def apply_effects(
        self,
        actions: list[tuple[str, dict[str, object]]],
        trace: list[TraceEvent] | None = None,
    ) -> None:
        """Route this tick's actuation values onto their channels.

        Communication values are staged for delivery to the sender's
        neighbors at the next step; everything else accumulates, grouped by
        channel, for the update function.
        """
        for agent_id, action_set in actions:
            channels = self.effect_channels.get(agent_id)
            if channels is None:
                raise UnknownChannel(f"agent {agent_id!r} is not registered")
            for device_id, value in action_set.items():
                channel = channels.get(device_id)
                if channel is None:
                    raise UnknownDevice(f"agent {agent_id!r} has no enabled output {device_id!r}")
                if channel == COMM_CHANNEL:
                    self._comm_outbox.append((agent_id, value))
                    if trace is not None:
                        trace.append(
                            TraceEvent(self.tick, agent_id, "emitted", COMM_CHANNEL, repr(value))
                        )
                else:
                    self.pending_effects.setdefault(channel, []).append((agent_id, value))

    def step(self, trace: list[TraceEvent] | None = None) -> None:
        """Advance one tick: simultaneous variable update, mailbox swap,
        context re-selection."""
        previous = self.values
        new_tick = self.tick + 1
        new_values = self.update(new_tick, previous, MappingProxyType(self.pending_effects))
        for name, value in new_values.items():
            if not math.isfinite(value):
                raise NonFiniteVariable(f"variable {name!r} became non-finite: {value}")
        if trace is not None:
            for name, value in new_values.items():
                old = previous[name]
                if value != old:
                    trace.append(
                        TraceEvent(new_tick, "env", "perturbed", name, f"{old!r}->{value!r}")
                    )
        self.values = new_values

        # messages sent at tick t are readable at t+1 and gone at t+2
        mailbox: dict[str, list[tuple[str, object]]] = {aid: [] for aid in self.bodies}
        for sender, value in self._comm_outbox:
            for neighbor in self.neighbors.get(sender, ()):
                if neighbor in mailbox:
                    mailbox[neighbor].append((sender, value))
        self.comm_mailbox = mailbox
        self._comm_outbox = []
        self.pending_effects = {}
        self.tick = new_tick
        self.context = self._select_context(new_values)

    def perceive(self, agent_id: str) -> Percept:
        """One value per enabled input device of the agent.

        Sensors read their channel variable; comm devices read the mean
        of last tick's messages (0 when the mailbox is empty).
        """
        body = self.bodies.get(agent_id)
        if body is None:
            raise UnknownChannel(f"agent {agent_id!r} is not registered")
        percept: Percept = {}
        for device in body.enabled_inputs:
            if device.channel == COMM_CHANNEL:
                messages = self.comm_mailbox.get(agent_id, [])
                if messages:
                    percept[device.id] = sum(float(v) for _, v in messages) / len(messages)
                else:
                    percept[device.id] = 0.0
            else:
                percept[device.id] = self.values[device.channel]
        return percept


@dataclass(frozen=True)
class TickSnapshot:
    """Per-tick record consumed by task evaluation."""

    tick: int
    variables: dict[str, float]
    context: str


def snapshot_row(env: Environment) -> TickSnapshot:
    return TickSnapshot(env.tick, env.values, env.context)


@dataclass
class EpisodeTrace:
    """Variable/context history of one episode plus optional engine trace."""

    snapshots: list[TickSnapshot] = field(default_factory=list)
    events: list[TraceEvent] | None = None

    def to_csv(self) -> str:
        if not self.snapshots:
            return ""
        names = sorted(self.snapshots[0].variables)
        lines = ["tick," + ",".join(names) + ",context"]
        for snap in self.snapshots:
            cells = [str(snap.tick)] + [repr(snap.variables[n]) for n in names] + [snap.context]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
