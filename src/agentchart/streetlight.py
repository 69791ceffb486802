"""Autonomous street-light case study.

N lights on a line, each with five candidate devices (lighting sensor,
motion sensor, wireless in/out, three-level light switch), a day/night
environment with per-light brightness and people flow, and an
energy-plus-service score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .body import BodyConfig, DeviceSpec, configure_body
from .environment import Environment, EpisodeTrace
from .errors import require
from .evaluation import EvaluationRecord

LEVELS = ("OFF", "DIM", "ON")

LIGHTING_SENSOR = "lighting_sensor"
MOTION_SENSOR = "motion_sensor"
WIRELESS_IN = "wireless_in"
WIRELESS_SPEAKER = "wireless_speaker"
LIGHT_SWITCH = "light_switch"

DAY = "day"
NIGHT = "night"


@dataclass(frozen=True)
class AmbientProfile:
    """Periodic daylight curve in [0, 1]."""

    kind: str = "cosine"  # cosine | constant
    value: float = 1.0  # constant only
    period: int = 0  # cosine only; 0 means episode_ticks // 2

    def __post_init__(self):
        require(self.kind in ("cosine", "constant"), "ambient.kind must be 'cosine' or 'constant'")
        require(0.0 <= self.value <= 1.0, "ambient.value must lie in [0, 1]")
        require(self.period >= 0, "ambient.period must be >= 0")

    def __call__(self, tick: int, episode_ticks: int) -> float:
        if self.kind == "constant":
            return self.value
        period = self.period or max(2, episode_ticks // 2)
        return 0.5 + 0.5 * math.cos(2.0 * math.pi * tick / period)


@dataclass(frozen=True)
class PeopleProcess:
    """Seeded arrival rule: per-light flow values in [0, 1]."""

    kind: str = "random"  # random | none
    rate: float = 0.3

    def __post_init__(self):
        require(self.kind in ("random", "none"), "people.kind must be 'random' or 'none'")
        require(0.0 <= self.rate <= 1.0, "people.rate must lie in [0, 1]")

    def sample(self, seed: int, ticks: int, n_lights: int) -> np.ndarray:
        if self.kind == "none":
            return np.zeros((ticks + 1, n_lights))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
        arrivals = rng.random((ticks + 1, n_lights)) < self.rate
        intensity = rng.random((ticks + 1, n_lights))
        return np.where(arrivals, intensity, 0.0)


@dataclass(frozen=True)
class StreetlightRules:
    """Context-weighted score: energy spent plus darkness under people."""

    w_energy: dict[str, float] = field(default_factory=lambda: {DAY: 2.0, NIGHT: 1.0})
    w_dark: dict[str, float] = field(default_factory=lambda: {DAY: 0.5, NIGHT: 2.0})
    energy_on: float = 1.0
    target_brightness: float = 0.6

    def __post_init__(self):
        for group, weights in (("w_energy", self.w_energy), ("w_dark", self.w_dark)):
            for ctx, w in weights.items():
                require(w >= 0, f"score.{group}.{ctx} must be >= 0")
        require(self.energy_on >= 0, "score.energy_on must be >= 0")
        require(
            0.0 <= self.target_brightness <= 1.0, "score.target_brightness must lie in [0, 1]"
        )

    def energy_of(self, level: str) -> float:
        # DIM draws half of ON
        return {LEVELS[0]: 0.0, LEVELS[1]: 0.5 * self.energy_on, LEVELS[2]: self.energy_on}[level]


@dataclass
class StreetLightScenario:
    n_lights: int = 10
    episode_ticks: int = 200
    ambient: AmbientProfile = field(default_factory=AmbientProfile)
    people: PeopleProcess = field(default_factory=PeopleProcess)
    light_contribution: dict[str, float] = field(
        default_factory=lambda: {"OFF": 0.0, "DIM": 0.35, "ON": 0.7}
    )
    neighbor_radius: int = 1
    spillover: float = 0.5
    dusk_threshold: float = 0.5
    rules: StreetlightRules = field(default_factory=StreetlightRules)
    devices: tuple[DeviceSpec, ...] = ()

    def __post_init__(self):
        require(self.n_lights >= 1, "n_lights must be >= 1")
        require(self.episode_ticks >= 1, "episode_ticks must be >= 1")
        require(self.neighbor_radius >= 1, "neighbor_radius must be >= 1")
        require(self.spillover >= 0, "spillover must be >= 0")
        require(0.0 <= self.dusk_threshold <= 1.0, "dusk_threshold must lie in [0, 1]")
        c = self.light_contribution
        require(
            0.0 == c.get("OFF", 0.0) <= c["DIM"] <= c["ON"],
            "light_contribution must satisfy 0 = OFF <= DIM <= ON",
        )
        # per light and tick, energy is at most energy_on and the darkness
        # deficit at most 1, so this bounds the episode score
        r = self.rules
        worst_tick = max(r.w_energy.values()) * r.energy_on + max(r.w_dark.values())
        require(
            math.isfinite(worst_tick * self.n_lights * self.episode_ticks),
            "score weights are too large: the episode score would overflow",
        )
        if not self.devices:
            self.devices = device_template()

    @property
    def n_agents(self) -> int:
        return self.n_lights

    def agent_ids(self) -> list[str]:
        return [f"light_{i}" for i in range(self.n_lights)]

    def body_for(self, index: int, selection: dict[str, bool]) -> BodyConfig:
        resolved = [
            DeviceSpec(d.id, d.direction, _resolve(d.channel, index), d.output_levels)
            for d in self.devices
        ]
        return configure_body(resolved, selection)

    def neighbor_map(self) -> dict[str, list[str]]:
        ids = self.agent_ids()
        return {
            ids[i]: [
                ids[j]
                for j in range(self.n_lights)
                if j != i and abs(j - i) <= self.neighbor_radius
            ]
            for i in range(self.n_lights)
        }

    def build_env(self, seed: int, bodies: dict[str, BodyConfig]) -> Environment:
        flows = self.people.sample(seed, self.episode_ticks, self.n_lights).tolist()
        ambient = self.ambient
        ticks = self.episode_ticks
        contribution = dict(self.light_contribution)
        energy_of = {level: self.rules.energy_of(level) for level in LEVELS}
        spill = self.spillover
        radius = self.neighbor_radius
        n = self.n_lights
        names = [
            (f"light_{i}", f"brightness_{i}", f"people_flow_{i}", f"energy_{i}")
            for i in range(n)
        ]

        def update(t, previous, effects) -> dict[str, float]:
            daylight = float(ambient(t, ticks))
            light = []
            energy = []
            for light_name, *_ in names:
                own = spent = 0.0
                for _, level in effects.get(light_name, ()):
                    own += contribution[level]
                    spent += energy_of[level]
                light.append(own)
                energy.append(spent)
            flow = flows[min(t, ticks)]
            values = {"daylight": daylight}
            for i, (light_name, brightness_name, flow_name, energy_name) in enumerate(names):
                # in index order, skipping i: a window sum minus light[i] rounds differently
                spilled = 0.0
                for j in range(max(0, i - radius), min(n, i + radius + 1)):
                    if j != i:
                        spilled += light[j]
                values[light_name] = light[i]
                values[brightness_name] = min(1.0, daylight + light[i] + spill * spilled)
                values[flow_name] = flow[i]
                values[energy_name] = energy[i]
            return values

        def context(values) -> str:
            return DAY if values["daylight"] >= self.dusk_threshold else NIGHT

        env = Environment(update(0, {}, {}), update, context, self.neighbor_map())
        for aid, body in bodies.items():
            env.register_agent(aid, body)
        return env

    def score(self, trace: EpisodeTrace, episode: int = 0, digest: str = "") -> EvaluationRecord:
        return streetlight_score(trace, self.rules, self.n_lights, episode, digest)


def _resolve(channel: str, index: int) -> str:
    return channel.replace("@self", f"_{index}")


def device_template() -> tuple[DeviceSpec, ...]:
    """The five candidate devices of one street light."""
    return (
        DeviceSpec(LIGHTING_SENSOR, "input", "brightness@self"),
        DeviceSpec(MOTION_SENSOR, "input", "people_flow@self"),
        DeviceSpec(WIRELESS_IN, "input", "comm"),
        DeviceSpec(WIRELESS_SPEAKER, "output", "comm"),
        DeviceSpec(LIGHT_SWITCH, "output", "light@self", LEVELS),
    )


def streetlight_score(
    trace: EpisodeTrace,
    rules: StreetlightRules,
    n_lights: int,
    episode: int = 0,
    digest: str = "",
) -> EvaluationRecord:
    """score = sum over ticks of context-weighted energy plus
    context-weighted darkness-under-people service penalty; lower is
    better."""
    names = [(f"energy_{i}", f"people_flow_{i}", f"brightness_{i}") for i in range(n_lights)]
    breakdown: dict[str, float] = {}
    for snap in trace.snapshots:
        values = snap.variables
        energy = sum(values[e] for e, _, _ in names)
        deficit = sum(
            values[f] * max(0.0, rules.target_brightness - values[b]) for _, f, b in names
        )
        term = rules.w_energy[snap.context] * energy + rules.w_dark[snap.context] * deficit
        breakdown[snap.context] = breakdown.get(snap.context, 0.0) + term
    return EvaluationRecord(episode, sum(breakdown.values()), breakdown, digest)
