"""Canonical JSON serialization and digests for bodies and controllers.

Digest stability matters: the adjust/reconfigure guarantees are checked
by comparing these hashes across search steps.
"""

from __future__ import annotations

import hashlib
import json
import math

from .body import BodyConfig, DeviceSpec
from .controller import HIDDEN, INPUT, OUTPUT, Connection, ControllerTopology, Neuron


def device_to_dict(d: DeviceSpec) -> dict:
    return {
        "id": d.id,
        "direction": d.direction,
        "channel": d.channel,
        "output_levels": list(d.output_levels),
    }


def body_to_dict(body: BodyConfig) -> dict:
    return {
        "devices": [device_to_dict(d) for d in body.devices],
        "enabled": {d.id: bool(body.enabled[d.id]) for d in body.devices},
    }


def topology_to_dict(topology: ControllerTopology) -> dict:
    return {
        "neurons": [
            {"id": n.id, "layer": n.layer, "enabled": n.enabled, "bias": n.bias}
            for n in topology.neurons
        ],
        "connections": [
            {"id": c.id, "from": c.from_id, "to": c.to_id, "weight": c.weight, "enabled": c.enabled}
            for c in topology.connections
        ],
    }


def _finite(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"weights and biases must be finite numbers, not {value!r}")
    return float(value)


def topology_from_dict(data: dict) -> ControllerTopology:
    """Inverse of topology_to_dict.  Raises ValueError for a controller
    that eval_net could not evaluate: an unknown layer, a duplicate id, a
    connection to no neuron, or a weight or bias that is not finite."""
    neurons = tuple(
        Neuron(n["id"], n["layer"], bool(n.get("enabled", True)), _finite(n.get("bias", 0.0)))
        for n in data["neurons"]
    )
    connections = tuple(
        Connection(
            c["id"], c["from"], c["to"], _finite(c["weight"]), bool(c.get("enabled", True))
        )
        for c in data["connections"]
    )
    neuron_ids = [n.id for n in neurons]
    for n in neurons:
        if n.layer not in (INPUT, HIDDEN, OUTPUT):
            raise ValueError(f"neuron {n.id!r} has unknown layer {n.layer!r}")
    for ids in (neuron_ids, [c.id for c in connections]):
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate id in {ids!r}")
    for c in connections:
        if c.from_id not in neuron_ids or c.to_id not in neuron_ids:
            raise ValueError(f"connection {c.id!r} names no neuron")
    return ControllerTopology(neurons, connections)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha(data) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def body_digest(body: BodyConfig) -> str:
    return _sha(body_to_dict(body))


def neuron_digest(topology: ControllerTopology) -> str:
    return _sha(topology_to_dict(topology)["neurons"])


def config_digest(body: BodyConfig, topology: ControllerTopology) -> str:
    return _sha({"body": body_to_dict(body), "controller": topology_to_dict(topology)})
