"""Perturbable environment: orthogonal scalar variables, a context
function, actuation routing and next-tick neighbor messaging.

One update function computes every variable from the previous tick's
values, so the order in which it computes them never changes the result;
one context function names the context of each tick's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .body import COMM_CHANNEL, BodyConfig, Percept, TextSink
from .errors import NonFiniteVariable, UnknownChannel, UnknownDevice

# each agent's id and ActionSet, and the same values grouped by the channel
# they drive: channel -> [(agent id, value)]
Actions = Iterable[tuple[str, dict[str, object]]]
Effects = dict[str, list[tuple[str, object]]]
# update: (new_tick, previous values, effects) -> a new dict of every
# variable's value; it never mutates the previous mapping
Update = Callable[
    [int, Mapping[str, float], Mapping[str, list[tuple[str, object]]]], dict[str, float]
]


class Environment:
    """Single-process synchronous environment shared by all agents."""

    def __init__(
        self,
        initial: dict[str, float],
        update: Update,
        context: Callable[[Mapping[str, float]], str],
        neighbors: dict[str, list[str]] | None = None,
    ):
        self.update = update
        self.context_of = context
        self.neighbors = dict(neighbors or {})
        self.bodies: dict[str, BodyConfig] = {}
        # per agent, each enabled output's id -> the channel it drives
        self.effect_channels: dict[str, dict[str, str]] = {}
        self.tick = 0
        self.comm_mailbox: dict[str, list[tuple[str, object]]] = {}
        # current values; advance() replaces this mapping and never mutates it,
        # so snapshots and the update function may hold on to it
        self.values: dict[str, float] = _finite(dict(initial))
        self.context = context(self.values)

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

    # --- per-tick phases -------------------------------------------------

    def apply_effects(self, actions: Actions) -> Effects:
        """Group ``actions`` by channel, in the order they come."""
        effects: Effects = {}
        for agent_id, action_set in actions:
            channels = self.effect_channels.get(agent_id)
            if channels is None:
                raise UnknownChannel(f"agent {agent_id!r} is not registered")
            for device_id, value in action_set.items():
                channel = channels.get(device_id)
                if channel is None:
                    raise UnknownDevice(f"agent {agent_id!r} has no enabled output {device_id!r}")
                effects.setdefault(channel, []).append((agent_id, value))
        return effects

    def step(self, actions: Actions = (), trace: TextSink | None = None) -> None:
        """Advance one tick under ``actions``, grouped by ``apply_effects``."""
        self.advance(self.apply_effects(actions), trace)

    def advance(self, effects: Effects, trace: TextSink | None = None) -> None:
        """Advance one tick under ``effects``: simultaneous variable update,
        mailbox swap, context re-selection.  With ``trace``, write one text
        piece to it: the comm messages sent at this tick as ``emitted`` lines,
        then each variable that changed as a ``perturbed`` line of the next
        tick, if there are any."""
        previous = self.values
        new_tick = self.tick + 1
        new_values = self.update(new_tick, previous, MappingProxyType(effects))
        if new_values.keys() != previous.keys():
            raise UnknownChannel(f"update must return exactly the variables {sorted(previous)}")
        _finite(new_values)
        if trace is not None:
            lines = [
                f"{self.tick}\t{sender}\temitted\t{COMM_CHANNEL}\t{value!r}\n"
                for sender, value in effects.get(COMM_CHANNEL, ())
            ]
            lines += [
                f"{new_tick}\tenv\tperturbed\t{name}\t{previous[name]!r}->{value!r}\n"
                for name, value in new_values.items()
                if value != previous[name]
            ]
            if lines:
                trace.write("".join(lines))
        self.values = new_values

        # messages sent at tick t are readable at t+1 and gone at t+2
        mailbox: dict[str, list[tuple[str, object]]] = {aid: [] for aid in self.bodies}
        for sender, value in effects.get(COMM_CHANNEL, ()):
            for neighbor in self.neighbors.get(sender, ()):
                if neighbor in mailbox:
                    mailbox[neighbor].append((sender, value))
        self.comm_mailbox = mailbox
        self.tick = new_tick
        self.context = self.context_of(new_values)

    def perceive(self, agent_id: str) -> Percept:
        """One value per enabled input device of the agent.

        Sensors read their channel variable; comm devices read
        ``comm_mean`` of the agent's mailbox.
        """
        body = self.bodies.get(agent_id)
        if body is None:
            raise UnknownChannel(f"agent {agent_id!r} is not registered")
        messages = self.comm_mailbox[agent_id]
        return {
            d.id: comm_mean(messages) if d.channel == COMM_CHANNEL else self.values[d.channel]
            for d in body.enabled_inputs
        }


def comm_mean(messages: list[tuple[str, object]]) -> float:
    """What a comm input reads: the mean of last tick's messages, 0 when the
    mailbox is empty."""
    total = 0  # left to right from the int 0: sum() compensates from Python 3.12
    for _, value in messages:
        total += float(value)
    return total / len(messages) if messages else 0.0


def _finite(values: dict[str, float]) -> dict[str, float]:
    if not all(map(math.isfinite, values.values())):
        name, value = next((n, v) for n, v in values.items() if not math.isfinite(v))
        raise NonFiniteVariable(f"variable {name!r} is not finite: {value}")
    return values


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
    """Variable/context history of one episode plus, when traced, the sink
    its engine trace was written to as trace.log text while it ran.
    ``events`` is None for an untraced episode."""

    snapshots: list[TickSnapshot] = field(default_factory=list)
    events: TextSink | None = None

    def to_csv(self) -> str:
        if not self.snapshots:
            return ""
        names = sorted(self.snapshots[0].variables)
        lines = ["tick," + ",".join(names) + ",context"]
        for snap in self.snapshots:
            cells = [str(snap.tick)] + [repr(snap.variables[n]) for n in names] + [snap.context]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
