"""Episodes and the reconfiguration cycle.

An episode runs every agent of a scenario under one shared genotype and
adds up its score and breakdown tick by tick with the scenario's per-tick
term (for the street lights, ``agentchart.streetlight.tick_score``).  A
patience-based policy picks between "adjust" (connection-only mutation)
and "reconfigure" (structural body search), driving a (1+λ) hill climb
over the genotype; the climb digests only the genotypes it keeps and runs
each distinct genotype's episode once, and each set of provably fixed lamp
levels once, and each tick under each set of lamp levels once as far as
its bounded cache holds.
"""

from __future__ import annotations

import itertools
import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .body import (
    BEHAVIOR_PASS,
    COMM_CHANNEL,
    BodyConfig,
    DeviceSpec,
    configure_body,
    derive_controller,
    quantize,
    require_mirror,
    step_agent,  # noqa: F401  perfbench's layer sites wrap it at this name
    tick_text,
)
from .controller import (
    ControllerTopology,
    MutationPolicy,
    activate,
    mutate_connections,
    sigmoid,
)
from .environment import (
    Effects,
    EpisodeTrace,
    comm_mean,
    snapshot_row,  # noqa: F401  perfbench's layer sites wrap it at this name
)
from .errors import NonFiniteInput, require
from .serialize import config_digest
from .streetlight import UNIT_CHANNELS, StreetLightScenario

ADJUST = "adjust"
RECONFIGURE = "reconfigure"
TICK_ROWS = 16  # the rows a scope of a search's cache holds per tick, at most


@dataclass(frozen=True)
class EvaluationRecord:
    episode: int
    score: float
    breakdown: dict[str, float]


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


def fixed_levels(body: BodyConfig, topology: ControllerTopology) -> tuple | None:
    """The levels of ``body``'s enabled outputs that drive a variable, in
    their order, if each is provably one level whatever its inputs and
    state, else None; ``()`` for a body whose outputs all drive the comm
    channel.

    An output is fixed when every enabled input reads a channel of
    ``UNIT_CHANNELS``, it has levels, the spread ``|bias| + sum |w|`` over
    its effective incoming edges is finite, and the sigmoid of its least
    sum ``lo`` less ``m`` and of its greatest sum ``hi`` plus ``m``, with
    ``m = 1e-9 * (1 + spread)``, quantize alike.  This is exact: every value
    a neuron sums, an input, a sigmoid or a previous tick's, lies in
    [0, 1], so every sum lies in [lo, hi]; a finite spread bounds every
    partial sum, so none is NaN; rounding moves a sum far less than ``m``,
    and ``m`` moves the sigmoid by more than 2e-10 at the level edges
    (+-ln 2 for three levels), far more than its own rounding; and the
    street-light update reads only the lamps' effects.  It reads
    ``topology.connections``, not ``eval_plan``, which a memo hit never
    builds.
    """
    unit = all(d.channel in UNIT_CHANNELS for d in body.enabled_inputs)
    bias = {n.id: n.bias for n in topology.neurons if n.enabled}
    levels = []
    for d in body.enabled_outputs:
        if d.channel == COMM_CHANNEL:
            continue
        if not (unit and d.output_levels):
            return None
        lo = hi = bias[d.id]
        spread = abs(lo)
        for c in topology.connections:
            if c.to_id == d.id and c.enabled and c.from_id in bias:
                spread += abs(c.weight)
                if c.weight < 0:
                    lo += c.weight
                else:
                    hi += c.weight
        if not math.isfinite(spread):
            return None
        m = 1e-9 * (1 + spread)
        level = quantize(sigmoid(lo - m), d.output_levels)
        if level != quantize(sigmoid(hi + m), d.output_levels):
            return None
        levels.append(level)
    return tuple(levels)


def run_episode(
    scenario: StreetLightScenario,
    genotype: Genotype,
    seed: int,
    episode: int = 0,
    trace: EpisodeTrace | None = None,
    cache: dict | None = None,
) -> tuple[EvaluationRecord, EpisodeTrace]:
    """One fixed-length episode of every agent under one configuration.

    Each agent's inputs and outputs are resolved to plan slots, and its
    sensors to columns of the environment's row, once; every tick runs each
    agent's sense -> decide -> act pass over activation lists and scores the
    environment's new row with the scenario's ``tick_score``; it keeps no
    row but in ``cache``.
    Untraced, it returns ``EpisodeTrace()``.  With a ``trace`` it returns it,
    and each tick writes two text pieces to ``trace.events``: every agent's
    pass lines, in agent order, before the environment advances:
    ``BEHAVIOR_PASS``'s engine lines, with a ``sensed:`` line per input after
    the first macrostep's and an ``actuated:`` line per output after the
    third's, laid out once per episode with only these value lines filled in
    again; then the comm messages sent at the tick as ``emitted`` lines and
    each variable that changed as a ``perturbed`` line of the next tick, if
    there are any.  Then
    it writes the tick's episode.csv line, whose header it wrote first, to
    ``trace.table``: no text is kept back, and a ``write`` that raises ends
    the episode.  Each row value's repr is made once, and each output's
    value quantized once.  An inoperable genotype (its shared body enables
    no input or no output) scores +inf without writing, so that structural
    search can still enumerate it.

    ``cache`` is a search's, for one scenario, in one scope per seed and
    per set of enabled outputs that drive a variable rather than the comm
    channel.  A scope holds the scores of the operable genotypes run in it,
    and one dict per tick keyed by those outputs' values, grouped by
    channel, each holding at most ``TICK_ROWS`` ``(row, context, term)``.
    No update reads the comm channel (``environment.Update``) and the
    street-light update never reads the previous row
    (``StreetLightScenario.build_env``), so a tick's new row is its scope's
    and its key's, and a genotype whose driven outputs each keep one level
    scores as any other with those levels: a score's key is the levels
    ``fixed_levels`` proves, ``()`` for a lampless genotype, whose scope
    drives nothing, and else the selection and topology.  A genotype found
    takes its ``(score, breakdown)`` with this call's ``episode``, skipping
    the ``NonFiniteInput`` check, which finite weights never trip: with
    inputs in [0, 1] a neuron's sum is finite or +-inf, which ``sigmoid``
    clamps, so no comm input is ever non-finite.  A tick found skips the
    update, the context function and the term.  A traced call takes the
    ticks of its scope if the scope exists, serving and storing rows as an
    untraced call does, but never creates a scope and never reads or stores
    a score, so its record is always a fresh sum.
    """
    require(seed >= 0, "seed must be >= 0")
    traced, trace = trace is not None, trace or EpisodeTrace()
    shared = configure_body(list(scenario.devices), genotype.selection)
    if not shared.is_operable():
        return EvaluationRecord(episode, math.inf, {}), trace
    require_mirror(shared, genotype.topology)
    scores = ticks = None
    if cache is not None:
        drives = tuple(d.id for d in shared.enabled_outputs if d.channel != COMM_CHANNEL)
        scope = (seed, drives)
        if traced:  # the rows of a scope that exists, and never a score
            ticks = cache.get(scope, (None, None))[1]
        else:  # a scope's default is built only when it is missing
            scores, ticks = cache.get(scope) or cache.setdefault(
                scope, ({}, [{} for _ in range(scenario.episode_ticks)])
            )
            key = fixed_levels(shared, genotype.topology)
            if key is None:
                key = frozenset(genotype.selection.items()), genotype.topology
            if key in scores:
                score, breakdown = scores[key]
                return EvaluationRecord(episode, score, dict(breakdown)), trace
    ids = scenario.agent_ids()
    bodies = {aid: scenario.body_for(i, genotype.selection) for i, aid in enumerate(ids)}
    env = scenario.build_env(seed, bodies)
    _, steps, _, slots = genotype.topology.eval_plan
    n_slots = len(slots)
    column = {name: k for k, name in enumerate(env.names)}
    column[COMM_CHANNEL] = None  # a comm input reads the mailbox
    # per agent: inputs (id, slot, row column) and outputs (id, slot, channel, levels)
    wired = [
        (
            aid,
            [(d.id, slots[d.id], column[d.channel]) for d in body.enabled_inputs],
            [(d.id, slots[d.id], d.channel, d.output_levels) for d in body.enabled_outputs],
        )
        for aid, body in bodies.items()
    ]
    # the effects table's channels in the order agents first drive them, and
    # those the update reads, whose values key a tick's new row in the cache
    channels = dict.fromkeys(channel for *_, outputs in wired for _, _, channel, _ in outputs)
    keyed = [channel for channel in channels if channel != COMM_CHANNEL]
    if traced:
        # every agent's pass lines without the tick, in agent order: the four
        # macrosteps' engine lines, the first followed by a sensed: line per
        # input, the third by an actuated: line per output.  Each tick fills
        # the value lines: (position, head, slot, row column) per input, and
        # (position, head, slot, channel, levels, line per level) per output
        sense, run_network, actuate, rest = (
            [f"\t{kind}\t{subject}\t{detail}" for kind, subject, detail in segment]
            for segment in BEHAVIOR_PASS
        )
        tails, sensing, acting, emitted = [], [], [], []
        for aid, inputs, outputs in wired:
            tails += [aid + line for line in sense]
            sensing.append([])
            for did, slot, col in inputs:
                head = f"{aid}\tfired\tsensed:{did}\t"
                sensing[-1].append((len(tails), head, slot, col))
                tails.append(head)
            tails += [aid + line for line in run_network + actuate]
            acting.append([])
            for did, slot, channel, levels in outputs:
                head = f"{aid}\tfired\tactuated:{did}\t"
                by_level = {level: head + repr(level) for level in levels}
                acting[-1].append((len(tails), head, slot, channel, levels, by_level))
                tails.append(head)
            tails += [aid + line for line in rest]
        texts = [repr(value) for value in env.row]
        order = sorted(range(len(env.names)), key=env.names.__getitem__)
        trace.table.write("tick," + ",".join(env.names[k] for k in order) + ",context\n")
    previous = [[0.0] * n_slots for _ in wired]
    term_of = scenario.tick_score(env.names)
    breakdown: dict[str, float] = {}
    for t in range(scenario.episode_ticks):
        row, mailbox = env.row, env.comm_mailbox
        effects: Effects = {channel: [] for channel in channels}
        for k, (aid, inputs, outputs) in enumerate(wired):
            act = [0.0] * n_slots
            for did, slot, col in inputs:
                value = comm_mean(mailbox[aid]) if col is None else row[col]
                if not math.isfinite(value):
                    raise NonFiniteInput(f"input for neuron {did!r} is not finite: {value}")
                act[slot] = value
            activate(steps, act, previous[k])
            previous[k] = act
            if not traced:
                for _, slot, channel, levels in outputs:
                    effects[channel].append((aid, quantize(act[slot], levels)))
                continue
            # a sensor's value is row[col], whose repr the row's text holds
            for pos, head, slot, col in sensing[k]:
                tails[pos] = head + (repr(act[slot]) if col is None else texts[col])
            for pos, head, slot, channel, levels, by_level in acting[k]:
                value = quantize(act[slot], levels)
                effects[channel].append((aid, value))
                tails[pos] = by_level[value] if by_level else head + repr(value)
                if channel == COMM_CHANNEL:  # the fill ends in the value's repr
                    emitted.append(f"{t}\t{aid}\temitted\t{channel}\t{tails[pos][len(head):]}\n")
        if traced:
            trace.events.write(tick_text(t, tails))
        if ticks is None:
            env.advance(effects)
            term = term_of(env.row, env.context)
        else:
            rows, driven = ticks[t], tuple([v for channel in keyed for _, v in effects[channel]])
            known = rows.get(driven)
            if known is None:
                env.advance(effects)
                term = term_of(env.row, env.context)
                if len(rows) >= TICK_ROWS:
                    rows.clear()  # a thread that races it only misses
                rows[driven] = array("d", env.row), env.context, term
            else:
                env.advance(effects, (known[0].tolist(), known[1]))
                term = known[2]
        breakdown[env.context] = breakdown.get(env.context, 0.0) + term
        if traced:
            old_texts, texts = texts, [repr(value) for value in env.row]
            lines, emitted = emitted, []
            lines += [
                f"{env.tick}\tenv\tperturbed\t{name}\t{old_texts[k]}->{texts[k]}\n"
                for k, name in enumerate(env.names)
                if env.row[k] != row[k]
            ]
            if lines:
                trace.events.write("".join(lines))
            values = ",".join([texts[k] for k in order])
            trace.table.write(f"{env.tick},{values},{env.context}\n")
    score = reduce(add, breakdown.values(), 0)
    if scores is not None:
        scores[key] = score, dict(breakdown)
    return EvaluationRecord(episode, score, breakdown), trace


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
    cache: dict | None = None  # the search's, which a traced re-run of its seed reads


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
    generation spawns λ candidates via the current reconfiguration command,
    the last only as many as the episode budget has left, and replaces the
    incumbent on strict improvement.  With ``exhaustive`` the single search
    generation instead sweeps every enabled-set, deriving each controller
    from the incumbent's weights.  The result holds the search's cache,
    whose rows of ``seed`` serve a traced re-run of its best genotype.
    """
    require(seed >= 0, "seed must be >= 0")
    require(generations >= 1, "generations must be >= 1")
    require(lam >= 1, "lambda must be >= 1")
    require(jobs >= 1, "jobs must be >= 1")
    policy = policy or SearchPolicy()
    episode_seed = seed  # constant across episodes: scores stay comparable
    # one cache per search, so each distinct genotype's episode runs once (a
    # RECONFIGURE flip re-derives the incumbent's controller deterministically)
    # and each tick under each set of lamp levels once.  Threads may race on
    # it, which only reruns deterministic work
    cache: dict = {}

    def evaluate(genotype: Genotype, episode: int) -> EvaluationRecord:
        return run_episode(scenario, genotype, episode_seed, episode, cache=cache)[0]

    incumbent = initial_genotype(scenario, seed)
    record = best_record = evaluate(incumbent, 0)
    digest = genotype_digest(scenario, incumbent)
    history = [record]
    metrics = [MetricsRow(0, record.score, record.score, "init", digest)]

    # an exhaustive run is one generation, the sweep, without the policy
    for generation in range(1, 2 if exhaustive else generations):
        if exhaustive:
            kind, candidates = RECONFIGURE, _sweep(scenario, seed, incumbent)
        else:
            kind = decide(history, policy)
            if kind is None:
                break
            left = min(lam, policy.budget - len(history))
            rngs = (_candidate_rng(seed, generation, k) for k in range(left))
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
        # left to right from the int 0, not sum(): it compensates from Python 3.12
        mean = reduce(add, finite, 0) / len(finite) if finite else math.inf
        best_k = min(range(len(records)), key=lambda k: (records[k].score, k))
        if records[best_k].score < best_record.score:
            incumbent, best_record = candidates[best_k], records[best_k]
            digest = genotype_digest(scenario, incumbent)
        metrics.append(MetricsRow(generation, best_record.score, mean, kind, digest))
    return SearchResult(incumbent, best_record, history, metrics, cache)
