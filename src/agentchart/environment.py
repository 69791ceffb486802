"""Perturbable environment: orthogonal scalar variables, a context
function, actuation routing and next-tick neighbor messaging.

The variables are one row of floats, in an order of names fixed when the
environment is built.  One update function computes every variable's new
row from the previous tick's row, so the order in which it computes them
never changes the result; one context function names the context of each
tick's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .body import COMM_CHANNEL, BodyConfig, Percept
from .errors import NonFiniteVariable, UnknownChannel, UnknownDevice

# each agent's id and ActionSet, and the same values grouped by the channel
# they drive: channel -> [(agent id, value)]
Actions = Iterable[tuple[str, dict[str, object]]]
Effects = dict[str, list[tuple[str, object]]]
# update: (new_tick, previous row, effects) -> a new row of every variable's
# value, in the environment's ``names`` order; it never mutates the previous row
# and never reads effects[COMM_CHANNEL], which reach only comm inputs
Update = Callable[[int, Sequence[float], Mapping[str, list[tuple[str, object]]]], list[float]]


class Environment:
    """Single-process synchronous environment shared by all agents."""

    def __init__(
        self,
        initial: Mapping[str, float],
        update: Update,
        context: Callable[[list[float]], str],
        neighbors: dict[str, list[str]] | None = None,
    ):
        # the variables' order, the order of ``initial``, is each row's order
        self.names: tuple[str, ...] = tuple(initial)
        self.update = update
        self.context_of = context
        self.neighbors = dict(neighbors or {})
        self.bodies: dict[str, BodyConfig] = {}
        # per agent, each enabled output's id -> the channel it drives
        self.effect_channels: dict[str, dict[str, str]] = {}
        self.tick = 0
        self.comm_mailbox: dict[str, list[tuple[str, object]]] = {}
        # current values; advance() replaces this row and never mutates it
        self.row: list[float] = self._checked(list(initial.values()))
        self.context = context(self.row)

    @property
    def values(self) -> Mapping[str, float]:
        """The current row by variable name, a read-only mapping built on
        each call."""
        return MappingProxyType(dict(zip(self.names, self.row)))

    def register_agent(self, agent_id: str, body: BodyConfig) -> None:
        """Add an agent; every enabled device must read or drive a declared
        variable or the comm channel."""
        for device in body.enabled_inputs + body.enabled_outputs:
            if device.channel != COMM_CHANNEL and device.channel not in self.names:
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

    def step(self, actions: Actions = ()) -> None:
        """Advance one tick under ``actions``, grouped by ``apply_effects``."""
        self.advance(self.apply_effects(actions))

    def advance(self, effects: Effects) -> None:
        """Advance one tick under ``effects``: ``next_row``, then the mailbox
        swap.  Nothing of the tick is kept unless its row is."""
        self.row, self.context = self.next_row(self.tick + 1, self.row, effects)
        # messages sent at tick t are readable at t+1 and gone at t+2
        mailbox: dict[str, list[tuple[str, object]]] = {aid: [] for aid in self.bodies}
        for sender, value in effects.get(COMM_CHANNEL, ()):
            for neighbor in self.neighbors.get(sender, ()):
                if neighbor in mailbox:
                    mailbox[neighbor].append((sender, value))
        self.comm_mailbox = mailbox
        self.tick += 1

    def next_row(self, tick: int, row: Sequence[float], effects: Effects) -> tuple[list, str]:
        """The row that ``row`` becomes at ``tick`` under ``effects``,
        checked, and its context; it changes nothing of the environment."""
        row = self._checked(self.update(tick, row, MappingProxyType(effects)))
        return row, self.context_of(row)

    def _checked(self, row: list[float]) -> list[float]:
        """``row`` if it holds one finite value per variable."""
        if len(row) != len(self.names):
            raise UnknownChannel(f"update must return one value for each of {list(self.names)}")
        if not all(map(math.isfinite, row)):
            name, value = next((n, v) for n, v in zip(self.names, row) if not math.isfinite(v))
            raise NonFiniteVariable(f"variable {name!r} is not finite: {value}")
        return row

    def perceive(self, agent_id: str) -> Percept:
        """One value per enabled input device of the agent.

        Sensors read their channel variable; comm devices read
        ``comm_mean`` of the agent's mailbox.
        """
        body = self.bodies.get(agent_id)
        if body is None:
            raise UnknownChannel(f"agent {agent_id!r} is not registered")
        messages, values = self.comm_mailbox[agent_id], self.values
        return {
            d.id: comm_mean(messages) if d.channel == COMM_CHANNEL else values[d.channel]
            for d in body.enabled_inputs
        }


def comm_mean(messages: list[tuple[str, object]]) -> float:
    """What a comm input reads: the mean of last tick's messages, 0 when the
    mailbox is empty."""
    total = 0  # left to right from the int 0: sum() compensates from Python 3.12
    for _, value in messages:
        total += float(value)
    return total / len(messages) if messages else 0.0


def snapshot_row(env: Environment) -> tuple[list[float], str]:
    """The current tick's record: its row and its context."""
    return env.row, env.context


class TextSink(Protocol):
    """Where a traced episode's text goes as it is made: an open text file,
    or an ``io.StringIO``.  Each ``write`` gets whole lines, each ending in
    a newline."""

    def write(self, text: str, /) -> object: ...


@dataclass(frozen=True)
class EpisodeTrace:
    """The two sinks a traced episode writes to as it runs: ``events``
    receives trace.log's text and ``table`` episode.csv's.  An untraced
    episode is ``EpisodeTrace()``, whose sinks are None."""

    events: TextSink | None = None
    table: TextSink | None = None
