"""Episodes and the reconfiguration cycle.

An episode runs every agent of a scenario under one shared genotype and
hands the trace to the scenario's own score (for the street lights,
``agentchart.streetlight.streetlight_score``).  A patience-based policy
picks between "adjust" (connection-only mutation) and "reconfigure"
(structural body search), driving a (1+λ) hill climb over the genotype.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .body import (
    COMM_CHANNEL,
    Agent,
    DeviceSpec,
    configure_body,
    derive_controller,
    quantize,
    require_mirror,
    step_agent,  # noqa: F401  perfbench's layer sites wrap it at this name
    walk_behavior_chart,
)
from .controller import ControllerTopology, MutationPolicy, activate, mutate_connections
from .environment import Effects, EpisodeTrace, TickSnapshot, comm_mean, snapshot_row
from .errors import NonFiniteInput, require
from .serialize import config_digest
from .statechart import TraceEvent

if TYPE_CHECKING:  # streetlight imports this module
    from .streetlight import StreetLightScenario

ADJUST = "adjust"
RECONFIGURE = "reconfigure"


@dataclass(frozen=True)
class EvaluationRecord:
    episode: int
    score: float
    breakdown: dict[str, float]
    config_digest: str


@dataclass(frozen=True)
class SearchPolicy:
    patience: int = 10
    budget: int = 200  # episode budget across the whole run
    mutation: MutationPolicy = field(default_factory=MutationPolicy)

    def __post_init__(self):
        require(self.patience >= 1, "search.patience must be >= 1")
        require(self.budget >= 1, "search.budget must be >= 1")


def decide(history: list[EvaluationRecord], policy: SearchPolicy) -> str | None:
    """The next command's kind: ADJUST while the best score keeps
    improving, RECONFIGURE after ``patience`` episodes without
    improvement, None once the episode budget is spent."""
    if not history:
        raise ValueError("decide() needs a non-empty history")
    if len(history) >= policy.budget:
        return None
    if len(history) >= policy.patience:
        scores = [r.score for r in history]
        start = max(len(scores) - policy.patience, 1)
        improved = start < len(scores) and min(scores[start:]) < min(scores[:start])
        if not improved:
            return RECONFIGURE
    return ADJUST


# --- genotype and episode runner ----------------------------------------


@dataclass(frozen=True)
class Genotype:
    """Shared agent design: device selection plus controller topology."""

    selection: dict[str, bool]
    topology: ControllerTopology


def genotype_digest(scenario: StreetLightScenario, genotype: Genotype) -> str:
    body = configure_body(list(scenario.devices), genotype.selection)
    return config_digest(body, genotype.topology)


def genotype_operable(scenario: StreetLightScenario, genotype: Genotype) -> bool:
    return configure_body(list(scenario.devices), genotype.selection).is_operable()


def run_episode(
    scenario: StreetLightScenario,
    genotype: Genotype,
    seed: int,
    episode: int = 0,
    collect_events: bool = False,
) -> tuple[EvaluationRecord, EpisodeTrace]:
    """One fixed-length episode of every agent under one configuration.

    Each agent's inputs and outputs are resolved to plan slots once; every
    tick runs each agent's sense -> decide -> act pass over activation
    lists, walking its behavior chart only when ``collect_events``.  An
    inoperable body (no enabled input or output) scores +inf so that
    structural search can still enumerate it.
    """
    require(seed >= 0, "seed must be >= 0")
    digest = genotype_digest(scenario, genotype)
    ids = scenario.agent_ids()
    bodies = {aid: scenario.body_for(i, genotype.selection) for i, aid in enumerate(ids)}
    if any(not b.is_operable() for b in bodies.values()):
        return (
            EvaluationRecord(episode, math.inf, {}, digest),
            EpisodeTrace([], [] if collect_events else None),
        )
    require_mirror(bodies[ids[0]], genotype.topology)

    env = scenario.build_env(seed, bodies)
    _, steps, _, slots = genotype.topology.eval_plan
    # per agent: inputs (id, slot, channel) and outputs (id, slot, channel, levels)
    wired = [
        (
            aid,
            Agent(aid, body, genotype.topology),
            [(d.id, slots[d.id], d.channel) for d in body.enabled_inputs],
            [(d.id, slots[d.id], d.channel, d.output_levels) for d in body.enabled_outputs],
        )
        for aid, body in bodies.items()
    ]
    # the effects table's channels in the order agents first drive them
    channels = dict.fromkeys(channel for *_, outputs in wired for _, _, channel, _ in outputs)
    previous = [[0.0] * len(slots) for _ in wired]
    events: list[TraceEvent] | None = [] if collect_events else None
    snapshots: list[TickSnapshot] = []
    for t in range(scenario.episode_ticks):
        values, mailbox = env.values, env.comm_mailbox
        effects: Effects = {channel: [] for channel in channels}
        for k, (aid, agent, inputs, outputs) in enumerate(wired):
            act = [0.0] * len(slots)
            for did, slot, channel in inputs:
                value = comm_mean(mailbox[aid]) if channel == COMM_CHANNEL else values[channel]
                if not math.isfinite(value):
                    raise NonFiniteInput(f"input for neuron {did!r} is not finite: {value}")
                act[slot] = value
            activate(steps, act, previous[k])
            previous[k] = act
            for _, slot, channel, levels in outputs:
                effects[channel].append((aid, quantize(act[slot], levels)))
            if events is not None:
                percept = {did: act[slot] for did, slot, _ in inputs}
                actions = {did: quantize(act[slot], levels) for did, slot, _, levels in outputs}
                walk_behavior_chart(agent, percept, actions, t, events)
        env.advance(effects, events)
        snapshots.append(snapshot_row(env))
    trace = EpisodeTrace(snapshots, events)
    return scenario.score(trace, episode, digest), trace


# --- (1+λ) search --------------------------------------------------------


@dataclass(frozen=True)
class MetricsRow:
    generation: int
    best_score: float
    mean_score: float
    command: str
    config_digest: str

    def to_csv(self) -> str:
        return (
            f"{self.generation},{self.best_score!r},{self.mean_score!r},"
            f"{self.command},{self.config_digest}"
        )


@dataclass
class SearchResult:
    best: Genotype
    best_record: EvaluationRecord
    history: list[EvaluationRecord]
    metrics: list[MetricsRow]


def _candidate_rng(seed: int, generation: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, generation, k)))


def initial_genotype(scenario: StreetLightScenario, seed: int) -> Genotype:
    """Random operable selection with a full input->output topology."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    devices = list(scenario.devices)
    while True:
        selection = {d.id: bool(rng.random() < 0.5) for d in devices}
        body = configure_body(devices, selection)
        if body.is_operable():
            break
    topology = derive_controller(body, prior=None, rng=rng)
    return Genotype(selection, topology)


def _mutate(
    scenario: StreetLightScenario,
    genotype: Genotype,
    kind: str,
    mutation: MutationPolicy,
    rng: np.random.Generator,
) -> Genotype:
    """ADJUST perturbs the connections under ``mutation``; RECONFIGURE flips
    one device and derives the controller from the incumbent's."""
    if kind == ADJUST:
        return replace(genotype, topology=mutate_connections(genotype.topology, rng, mutation))
    selection = dict(genotype.selection)
    device_ids = [d.id for d in scenario.devices]
    flip = device_ids[int(rng.integers(len(device_ids)))]
    selection[flip] = not selection[flip]
    body = configure_body(list(scenario.devices), selection)
    topology = derive_controller(body, prior=genotype.topology, rng=rng)
    return Genotype(selection, topology)


def all_selections(devices: tuple[DeviceSpec, ...]) -> list[dict[str, bool]]:
    ids = [d.id for d in devices]
    return [dict(zip(ids, bits)) for bits in itertools.product([False, True], repeat=len(ids))]


def _sweep(scenario: StreetLightScenario, seed: int, incumbent: Genotype) -> list[Genotype]:
    """One candidate per enabled-set.  Every controller is derived from one
    fully-enabled base topology and inherits its weights, so all 2^d
    configurations are compared on equal terms."""
    base_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    all_on = {d.id: True for d in scenario.devices}
    base = derive_controller(
        configure_body(list(scenario.devices), all_on),
        prior=incumbent.topology,
        rng=base_rng,
    )
    return [
        Genotype(sel, derive_controller(configure_body(list(scenario.devices), sel), prior=base))
        for sel in all_selections(scenario.devices)
    ]


def run_search(
    scenario: StreetLightScenario,
    seed: int,
    generations: int,
    lam: int = 4,
    policy: SearchPolicy | None = None,
    jobs: int = 1,
    exhaustive: bool = False,
    on_generation: Callable[[int, str, Genotype, list[Genotype]], None] | None = None,
) -> SearchResult:
    """(1+λ) hill climb over the shared genotype.

    Generation 0 evaluates the initial random genotype; each later
    generation spawns λ candidates via the current reconfiguration
    command and replaces the incumbent on strict improvement.  With
    ``exhaustive`` the single search generation instead sweeps every
    enabled-set, deriving each controller from the incumbent's weights.
    """
    require(seed >= 0, "seed must be >= 0")
    require(generations >= 1, "generations must be >= 1")
    require(lam >= 1, "lambda must be >= 1")
    require(jobs >= 1, "jobs must be >= 1")
    policy = policy or SearchPolicy()
    episode_seed = seed  # constant across episodes: scores stay comparable

    def evaluate(genotype: Genotype, episode: int) -> EvaluationRecord:
        return run_episode(scenario, genotype, episode_seed, episode=episode)[0]

    incumbent = initial_genotype(scenario, seed)
    record = best_record = evaluate(incumbent, 0)
    history = [record]
    metrics = [MetricsRow(0, record.score, record.score, "init", record.config_digest)]

    # an exhaustive run is one generation, the sweep, without the policy
    for generation in range(1, 2 if exhaustive else generations):
        if exhaustive:
            kind, candidates = RECONFIGURE, _sweep(scenario, seed, incumbent)
        else:
            kind = decide(history, policy)
            if kind is None:
                break
            rngs = (_candidate_rng(seed, generation, k) for k in range(lam))
            candidates = [_mutate(scenario, incumbent, kind, policy.mutation, r) for r in rngs]
        if on_generation:
            on_generation(generation, kind, incumbent, candidates)
        episodes = range(len(history), len(history) + len(candidates))
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                records = list(pool.map(evaluate, candidates, episodes))
        else:
            records = list(map(evaluate, candidates, episodes))
        history.extend(records)
        finite = [r.score for r in records if math.isfinite(r.score)]
        mean = sum(finite) / len(finite) if finite else math.inf
        best_k = min(range(len(records)), key=lambda k: (records[k].score, k))
        if records[best_k].score < best_record.score:
            incumbent, best_record = candidates[best_k], records[best_k]
        metrics.append(
            MetricsRow(generation, best_record.score, mean, kind, best_record.config_digest)
        )
    return SearchResult(incumbent, best_record, history, metrics)
