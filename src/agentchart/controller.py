"""Neural-network controller: neurons, weighted connections (recurrence
allowed), synchronous one-step evaluation, and the connection-only
mutation surface used by the "adjust" reconfiguration path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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
        """Evaluation order, incoming-edge table, enabled neurons by id, and
        enabled input and output ids; built on first use, once per topology."""
        forward, recurrent = split_edges(self)
        incoming: dict[str, list[tuple[str, float, bool]]] = {}
        for c in forward:
            incoming.setdefault(c.to_id, []).append((c.from_id, c.weight, False))
        for c in recurrent:
            incoming.setdefault(c.to_id, []).append((c.from_id, c.weight, True))
        order = _topo_order(self, forward)
        by_id = {n.id: n for n in self.neurons if n.enabled}
        inputs = [nid for nid, n in by_id.items() if n.layer == INPUT]
        outputs = [nid for nid, n in by_id.items() if n.layer == OUTPUT]
        return order, incoming, by_id, inputs, outputs


@dataclass(frozen=True)
class ControllerState:
    """Previous-tick activations; what recurrent edges read."""

    activation: dict[str, float] = field(default_factory=dict)


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
    else:
        z = math.exp(x)
        y = z / (1.0 + z)
    return min(max(y, _EPS_LO), _EPS_HI)


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


def _topo_order(topology: ControllerTopology, forward: list[Connection]) -> list[str]:
    ids = [n.id for n in topology.neurons if n.enabled]
    indeg = {nid: 0 for nid in ids}
    out: dict[str, list[str]] = {nid: [] for nid in ids}
    for c in forward:
        indeg[c.to_id] += 1
        out[c.from_id].append(c.to_id)
    ready = [nid for nid in ids if indeg[nid] == 0]
    order: list[str] = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for nxt in out[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return order


def eval_net(
    topology: ControllerTopology,
    state: ControllerState,
    inputs: dict[str, float],
) -> tuple[dict[str, float], ControllerState]:
    """Synchronous one-step update.

    Input neurons take the supplied values verbatim.  Every other
    enabled neuron computes sigmoid(bias + sum of enabled incoming
    weight*value), where forward edges read this tick's upstream value
    in topological order and recurrent edges read the previous state.
    """
    for nid, value in inputs.items():
        if not math.isfinite(value):
            raise NonFiniteInput(f"input for neuron {nid!r} is not finite: {value}")
    order, incoming, by_id, input_ids, output_ids = topology.eval_plan
    for nid in input_ids:
        if nid not in inputs:
            raise NonFiniteInput(f"missing input for enabled input neuron {nid!r}")

    previous = state.activation
    activation: dict[str, float] = {}
    for nid in order:
        neuron = by_id[nid]
        if neuron.layer == INPUT:
            activation[nid] = inputs[nid]
            continue
        total = neuron.bias
        for from_id, weight, is_recurrent in incoming.get(nid, ()):
            if is_recurrent:
                total += weight * previous.get(from_id, 0.0)
            else:
                total += weight * activation[from_id]
        activation[nid] = sigmoid(total)

    outputs = {nid: activation[nid] for nid in output_ids}
    return outputs, ControllerState(activation)


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
        cid = _fresh_connection_id(topology)
        new_connections.append(
            Connection(cid, frm, to, float(rng.normal(0.0, policy.weight_sigma)))
        )
    return replace(topology, connections=tuple(new_connections))


def _fresh_connection_id(topology: ControllerTopology) -> str:
    taken = {c.id for c in topology.connections}
    k = len(topology.connections)
    while f"c{k}" in taken:
        k += 1
    return f"c{k}"

