"""Canonical JSON serialization and digests for bodies and controllers.

Digest stability matters: the adjust/reconfigure guarantees are checked
by comparing these hashes across search steps.
"""

from __future__ import annotations

import hashlib
import json

from .body import BodyConfig, DeviceSpec
from .controller import Connection, ControllerTopology, Neuron


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


def topology_from_dict(data: dict) -> ControllerTopology:
    neurons = tuple(
        Neuron(n["id"], n["layer"], bool(n.get("enabled", True)), float(n.get("bias", 0.0)))
        for n in data["neurons"]
    )
    connections = tuple(
        Connection(c["id"], c["from"], c["to"], float(c["weight"]), bool(c.get("enabled", True)))
        for c in data["connections"]
    )
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
