"""Neural-network controller: neurons, weighted connections (recurrence
allowed), synchronous one-step evaluation, and the connection-only
mutation surface used by the "adjust" reconfiguration path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from graphlib import TopologicalSorter

import numpy as np

from .errors import NonFiniteInput, require

INPUT = "input"
HIDDEN = "hidden"
OUTPUT = "output"


@dataclass(frozen=True)
class Neuron:
    id: str
    layer: str  # input | hidden | output
    enabled: bool = True
    bias: float = 0.0


@dataclass(frozen=True)
class Connection:
    id: str
    from_id: str
    to_id: str
    weight: float
    enabled: bool = True


@dataclass(frozen=True)
class ControllerTopology:
    neurons: tuple[Neuron, ...] = ()
    connections: tuple[Connection, ...] = ()

    def ids(self, layer: str | None = None) -> list[str]:
        return [n.id for n in self.neurons if layer is None or n.layer == layer]

    @cached_property
    def eval_plan(self):
        """``(input_ids, steps, output_ids, slots)``, built once per topology.
        ``slots`` numbers the enabled neurons: the inputs, then one step
        ``(slot, bias, forward, recurrent, None)`` per other neuron in a
        topological order of the forward edges, with its incoming ``(slot,
        weight)`` pairs of each kind in declaration order, and no output."""
        forward, recurrent = split_edges(self)
        enabled = {n.id: n for n in self.neurons if n.enabled}
        fwd_in: dict[str, list[tuple[str, float]]] = {nid: [] for nid in enabled}
        rec_in: dict[str, list[tuple[str, float]]] = {nid: [] for nid in enabled}
        for c in forward:
            fwd_in[c.to_id].append((c.from_id, c.weight))
        for c in recurrent:
            rec_in[c.to_id].append((c.from_id, c.weight))
        # each neuron sums its own edge lists in their fixed order, so every
        # topological order gives the same values
        order = TopologicalSorter({nid: [frm for frm, _ in fwd_in[nid]] for nid in enabled})
        inputs = tuple(nid for nid, n in enabled.items() if n.layer == INPUT)
        ordered = [nid for nid in order.static_order() if enabled[nid].layer != INPUT]
        slots = {nid: k for k, nid in enumerate(inputs + tuple(ordered))}

        def indexed(edges):
            return tuple((slots[frm], weight) for frm, weight in edges)

        steps = tuple(
            (slots[nid], enabled[nid].bias, indexed(fwd_in[nid]), indexed(rec_in[nid]), None)
            for nid in ordered
        )
        outputs = tuple(nid for nid, n in enabled.items() if n.layer == OUTPUT)
        return inputs, steps, outputs, slots


@dataclass(frozen=True)
class MutationPolicy:
    weight_sigma: float = 0.5
    toggle_prob: float = 0.05
    add_prob: float = 0.1

    def __post_init__(self):
        require(self.weight_sigma > 0, "search.mutation.weight_sigma must be > 0")
        for name in ("toggle_prob", "add_prob"):
            require(
                0.0 <= getattr(self, name) <= 1.0, f"search.mutation.{name} must lie in [0, 1]"
            )


_EPS_LO = math.ulp(0.0)
_EPS_HI = 1.0 - math.ulp(1.0) / 2


def sigmoid(x: float) -> float:
    # split form avoids overflow; clamp keeps the value strictly in (0,1)
    # even when exp() underflows at extreme |x|
    if x >= 0:
        y = 1.0 / (1.0 + math.exp(-x))
        return _EPS_HI if y > _EPS_HI else y  # y >= 0.5
    z = math.exp(x)
    y = z / (1.0 + z)
    return _EPS_LO if _EPS_LO > y else y  # y < 0.5, or NaN passed through


def split_edges(topology: ControllerTopology) -> tuple[list[Connection], list[Connection]]:
    """Partition effective connections into forward and recurrent.

    A connection is effective when it and both endpoints are enabled.
    Walking connections in declaration order, an edge that would close a
    cycle among the forward edges accepted so far is recurrent.
    """
    enabled_neurons = {n.id for n in topology.neurons if n.enabled}
    adj: dict[str, set[str]] = {}

    def reaches(frm: str, to: str) -> bool:
        stack, seen = [frm], set()
        while stack:
            cur = stack.pop()
            if cur == to:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(adj.get(cur, ()))
        return False

    forward: list[Connection] = []
    recurrent: list[Connection] = []
    for conn in topology.connections:
        if not conn.enabled or conn.from_id not in enabled_neurons or conn.to_id not in enabled_neurons:
            continue
        if conn.from_id == conn.to_id or reaches(conn.to_id, conn.from_id):
            recurrent.append(conn)
        else:
            forward.append(conn)
            adj.setdefault(conn.from_id, set()).add(conn.to_id)
    return forward, recurrent


def quantize(value: float, levels: tuple[str, ...]) -> object:
    """Equal-width thresholds over [0, 1] onto the ordered level list; an
    output without levels is continuous and drives ``value`` itself.  A
    non-finite ``value``, such as a NaN from a NaN weight, raises
    ``NonFiniteInput``.  Of ``sigmoid(total)``, it is what ``cuts`` decides."""
    if not levels:
        if math.isfinite(value):
            return value
        raise NonFiniteInput(f"output value is not finite: {value}")
    k = len(levels)
    try:
        idx = int(value * k)
    except (ValueError, OverflowError):  # int(nan), int(+-inf): no check costs a tick
        raise NonFiniteInput(f"output value is not finite: {value}") from None
    if idx >= k:
        idx = k - 1
    if idx < 0:
        idx = 0
    return levels[idx]


def cuts(k: int) -> tuple[float, ...]:
    """The ends of a window ``(c - m, c + m)`` around each sum ``c =
    ln(i/(k-i))``, ``0 < i < k``, whose sigmoid is ``i/k``, with ``m = 1e-9 *
    (1 + |c|)``, in ascending order, then +inf.  A sum whose ``bisect_right``
    into them is even, ``b``, quantizes to ``k`` levels as level ``b >> 1``;
    an odd one lies in a window, or is +inf or NaN.  This is exact: outside a
    window the true sigmoid lies more than ``sigmoid'(c) * m`` from every
    ``i/k``, 2.5e-10 for two levels and about 3.8e-10 for three, far beyond
    the rounding of ``c``, of ``sigmoid`` and of ``quantize``'s ``value * k``;
    and ``sigmoid`` clamps -inf to its least value, of level 0."""
    ends = [math.log(i / (k - i)) for i in range(1, k)]
    return (*(c + s * 1e-9 * (1 + abs(c)) for c in ends for s in (-1, 1)), math.inf)


def activate(steps, act: list[float], prev: list[float], acted: list | None = None) -> None:
    """The neuron update over steps shaped as ``eval_plan``'s, with the
    inputs in ``act``: each step's slot gets sigmoid(bias + sum of
    weight*value), the forward terms first, read from ``act``, then the
    recurrent ones, read from the previous tick's ``prev``.  A step whose
    last field is an output ``(cuts, levels, j)`` also sets ``acted[j]`` to
    the ``quantize`` of that value, which raises ``NonFiniteInput`` on a NaN;
    but with ``cuts``, given for a levelled output whose slot no edge reads,
    a sum outside every window decides the level alone, by ``cuts``' rule,
    and the slot keeps what it held."""
    for slot, total, forward, recurrent, out in steps:
        for src, weight in forward:
            total += weight * act[src]
        for src, weight in recurrent:
            total += weight * prev[src]
        if out is None:
            act[slot] = sigmoid(total)
            continue
        cut, levels, j = out
        if cut and not (b := bisect_right(cut, total)) & 1:
            acted[j] = levels[b >> 1]
        else:
            act[slot] = value = sigmoid(total)
            acted[j] = quantize(value, levels)


def eval_net(
    topology: ControllerTopology,
    previous: dict[str, float],
    inputs: dict[str, float],
) -> tuple[dict[str, float], dict[str, float]]:
    """Synchronous one-step update by neuron id through ``activate``; returns
    the outputs and every enabled neuron's activation, which the next tick
    passes back as ``previous``.  Input neurons take the supplied values
    verbatim; a recurrent edge from a neuron that ``previous`` lacks reads 0."""
    for nid, value in inputs.items():
        if not math.isfinite(value):
            raise NonFiniteInput(f"input for neuron {nid!r} is not finite: {value}")
    input_ids, steps, output_ids, slots = topology.eval_plan
    act = [0.0] * len(slots)
    for k, nid in enumerate(input_ids):
        if nid not in inputs:
            raise NonFiniteInput(f"missing input for enabled input neuron {nid!r}")
        act[k] = inputs[nid]
    activate(steps, act, [previous.get(nid, 0.0) for nid in slots])
    activation = dict(zip(slots, act))
    return {nid: activation[nid] for nid in output_ids}, activation


def mutate_connections(
    topology: ControllerTopology,
    rng: np.random.Generator,
    policy: MutationPolicy,
) -> ControllerTopology:
    """Perturb/toggle existing connections and maybe add one new one.

    The neuron set is never modified; this is the whole mutation surface
    of the "adjust" path.
    """
    new_connections: list[Connection] = []
    for conn in topology.connections:
        weight = conn.weight + float(rng.normal(0.0, policy.weight_sigma))
        enabled = conn.enabled
        if policy.toggle_prob > 0 and rng.random() < policy.toggle_prob:
            enabled = not enabled
        new_connections.append(replace(conn, weight=weight, enabled=enabled))

    enabled_ids = [n.id for n in topology.neurons if n.enabled]
    if enabled_ids and policy.add_prob > 0 and rng.random() < policy.add_prob:
        frm = enabled_ids[int(rng.integers(len(enabled_ids)))]
        to = enabled_ids[int(rng.integers(len(enabled_ids)))]
        weight = float(rng.normal(0.0, policy.weight_sigma))
        new_connections.append(Connection(fresh_connection_id(new_connections), frm, to, weight))
    return replace(topology, connections=tuple(new_connections))


def fresh_connection_id(connections: Sequence[Connection]) -> str:
    """The first free id ``c<k>`` with ``k`` at least ``len(connections)``."""
    taken = {c.id for c in connections}
    k = len(connections)
    while f"c{k}" in taken:
        k += 1
    return f"c{k}"
