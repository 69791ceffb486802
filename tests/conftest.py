"""Shared helpers: random chart generation, the configuration invariant
oracle, a strategy of street-light scenarios, and the interpreter walk and
name-keyed episode-record oracles used by unit and acceptance tests."""

from __future__ import annotations

import random
from functools import reduce
from operator import add

from hypothesis import strategies as st

from agentchart.body import BEHAVIOR_CHART, BEHAVIOR_START, PASS_EVENTS, Agent, step_agent
from agentchart.evaluation import EvaluationRecord
from agentchart.statechart import (
    AND,
    BASIC,
    XOR,
    Configuration,
    Event,
    StateNode,
    Statechart,
    TraceEvent,
    Transition,
    build_chart,
    dispatch,
)
from agentchart.streetlight import AmbientProfile, PeopleProcess, StreetLightScenario

EVENT_ALPHABET = ["alpha", "beta", "gamma", "delta"]


def check_configuration(chart: Statechart, config: Configuration) -> None:
    """Assert the structural invariants of an active configuration: the root
    is active, so is every active state's parent, an active xor-composite
    has exactly one active child and an active and-composite all its
    regions.  The parents are checked before the composites, so a broken
    configuration fails on the same invariant on every run."""
    active = config.active
    assert chart.root in active, "root must be active"
    for sid in active:
        parent = chart.parent.get(sid)
        if parent is not None:
            assert parent in active, f"active state {sid} has inactive parent {parent}"
    for sid in active:
        node = chart.nodes[sid]
        live = [c for c in node.children if c in active]
        if node.kind == XOR:
            assert len(live) == 1, f"xor-composite {sid} has {len(live)} active children"
        elif node.kind == AND:
            assert len(live) == len(node.children), f"and-composite {sid} missing regions"


def random_tree(rng: random.Random, max_depth: int = 3) -> list[StateNode]:
    nodes: list[StateNode] = []
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"s{counter[0]}"

    def make(depth: int, force_composite: bool = False) -> str:
        sid = fresh()
        roll = rng.random()
        if depth >= max_depth or (roll < 0.45 and not force_composite):
            nodes.append(StateNode(sid))
            return sid
        if roll < 0.85 or force_composite and roll < 0.93:
            kids = [make(depth + 1) for _ in range(rng.randint(1, 3))]
            history = "shallow" if rng.random() < 0.3 else "none"
            nodes.append(
                StateNode(sid, XOR, tuple(kids), initial=rng.choice(kids), history=history)
            )
            return sid
        regions = []
        for _ in range(rng.randint(2, 3)):
            rid = fresh()
            sub = [make(depth + 2) for _ in range(rng.randint(1, 3))]
            nodes.append(StateNode(rid, XOR, tuple(sub), initial=rng.choice(sub)))
            regions.append(rid)
        nodes.append(StateNode(sid, AND, tuple(regions)))
        return sid

    make(0, force_composite=True)
    return nodes


def random_chart(rng: random.Random) -> Statechart:
    """A structurally valid random chart with random transitions,
    including history targets and joins where the tree allows them."""
    nodes = random_tree(rng)
    by_id = {n.id: n for n in nodes}
    ids = [n.id for n in nodes]
    root = nodes[-1].id  # make() appends the root last

    children_of = {n.id: n.children for n in nodes}

    def descendants(sid: str) -> list[str]:
        out, stack = [], [sid]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(children_of[cur])
        return out

    transitions: list[Transition] = []
    for _ in range(rng.randint(1, 6)):
        src = rng.choice(ids)
        tgt = rng.choice(ids)
        event = rng.choice(EVENT_ALPHABET)
        node = by_id[tgt]
        to_history = node.kind == XOR and node.history == "shallow" and rng.random() < 0.5
        transitions.append(Transition((src,), tgt, event=event, to_history=to_history))

    and_nodes = [n for n in nodes if n.kind == AND]
    if and_nodes and rng.random() < 0.6:
        comp = rng.choice(and_nodes)
        regions = rng.sample(list(comp.children), 2)
        sources = tuple(rng.choice(descendants(r)) for r in regions)
        transitions.append(Transition(sources, rng.choice(ids), event=rng.choice(EVENT_ALPHABET)))

    return build_chart(nodes, transitions)


def history_motif_chart(rng: random.Random):
    """Chart embedding the shallow-history round-trip motif: a shallow
    xor-composite C, an outside state, leave/return transitions and some
    random movement inside C."""
    k = rng.randint(2, 4)
    kids = [f"c{i}" for i in range(k)]
    nodes = [
        StateNode("root", XOR, ("C", "outside"), initial=rng.choice(["C", "outside"])),
        StateNode("C", XOR, tuple(kids), initial=kids[0], history="shallow"),
        StateNode("outside"),
    ] + [StateNode(c) for c in kids]
    transitions = [
        Transition(("C",), "outside", event="leave"),
        Transition(("outside",), "C", event="return", to_history=True),
    ]
    for i in range(rng.randint(1, 4)):
        transitions.append(
            Transition((rng.choice(kids),), rng.choice(kids), event=f"move{i % 2}")
        )
    return build_chart(nodes, transitions), kids


# --- street-light scenarios ----------------------------------------------

unit = st.floats(0.0, 1.0)


@st.composite
def scenarios(draw, light_ticks=360):
    """Street-light scenarios of 1-12 lights and 1-30 ticks, with at most
    ``light_ticks`` lights times ticks."""
    dim = draw(unit)
    ambient = draw(
        st.one_of(
            st.builds(AmbientProfile, kind=st.just("cosine"), period=st.integers(0, 50)),
            st.builds(AmbientProfile, kind=st.just("constant"), value=unit),
        )
    )
    n_lights = draw(st.integers(1, min(12, light_ticks)))
    return StreetLightScenario(
        n_lights=n_lights,
        episode_ticks=draw(st.integers(1, min(30, light_ticks // n_lights))),
        ambient=ambient,
        people=draw(st.builds(PeopleProcess, kind=st.sampled_from(["random", "none"]), rate=unit)),
        light_contribution={"OFF": 0.0, "DIM": dim, "ON": draw(st.floats(dim, 2.0))},
        neighbor_radius=draw(st.integers(1, 4)),
        spillover=draw(st.floats(0.0, 3.0)),
    )


# --- the behavior chart's pass, walked by the interpreter -----------------


def reference_walk(agent, percept, actions, tick, trace, config=BEHAVIOR_START):
    """The interpreter's walk of one pass: dispatch each of ``PASS_EVENTS``
    from ``config``, the first followed by a ``sensed:`` line per input
    read and the third by an ``actuated:`` line per output driven; appends
    TraceEvents to ``trace`` and returns the configuration the pass ends in."""
    aid = agent.agent_id
    values = (
        [(f"sensed:{d.id}", percept[d.id]) for d in agent.body.enabled_inputs],
        (),
        [(f"actuated:{did}", value) for did, value in actions.items()],
        (),
    )
    for event_id, devices in zip(PASS_EVENTS, values):
        config, _, _ = dispatch(
            BEHAVIOR_CHART, config, Event(event_id), tick=tick, agent=aid, trace=trace
        )
        for subject, value in devices:
            trace.append(TraceEvent(tick, aid, "fired", subject, repr(value)))
    return config


# --- name-keyed episode records ----------------------------------------
# A tick as ``(tick, {variable name: value}, context)``: the record the
# episode's rows and contexts are checked against, mapped through the names.


def reference_score(ticks, rules, n_lights):
    """The street-light score over name-keyed ticks, as one fold per
    generator with ``max(0.0, gap)``; each fold adds left to right from the
    int 0, as ``sum()`` does before Python 3.12."""
    names = [(f"energy_{i}", f"people_flow_{i}", f"brightness_{i}") for i in range(n_lights)]
    breakdown = {}
    for _, values, context in ticks:
        energy = reduce(add, (values[e] for e, _, _ in names), 0)
        deficit = reduce(
            add,
            (values[f] * max(0.0, rules.target_brightness - values[b]) for _, f, b in names),
            0,
        )
        term = rules.w_energy[context] * energy + rules.w_dark[context] * deficit
        breakdown[context] = breakdown.get(context, 0.0) + term
    return reduce(add, breakdown.values(), 0), breakdown


def reference_episode(scenario, genotype, seed, episode=0, trace=None):
    """The episode as the dict-level views run it: every tick, each agent's
    ``perceive`` -> ``step_agent``, then an untraced ``Environment.step`` and
    a name-keyed tick ``(tick, values, context)``, scored by
    ``reference_score``; for operable genotypes only.  With ``trace`` it
    writes trace.log's text itself, each tick: every agent's pass lines, the
    ``to_line()`` of its chart's ``reference_walk`` from where the last one
    ended, then the ``emitted`` and ``perturbed`` lines, from the agents' comm
    actions and the name-keyed values before and after the step."""
    ids = scenario.agent_ids()
    bodies = {aid: scenario.body_for(i, genotype.selection) for i, aid in enumerate(ids)}
    env = scenario.build_env(seed, bodies)
    agents = [Agent(aid, bodies[aid], genotype.topology) for aid in ids]
    configs = {aid: BEHAVIOR_START for aid in ids}
    channel = {(aid, d.id): d.channel for aid, body in bodies.items() for d in body.enabled_outputs}
    ticks = []
    for t in range(scenario.episode_ticks):
        actions, walked = [], []
        for agent in agents:
            aid, percept = agent.agent_id, env.perceive(agent.agent_id)
            action_set = step_agent(agent, percept)
            actions.append((aid, action_set))
            if trace is not None:
                configs[aid] = reference_walk(agent, percept, action_set, t, walked, configs[aid])
        before = dict(env.values)
        env.step(actions)
        after = dict(env.values)
        if trace is not None:
            trace.write("".join(f"{event.to_line()}\n" for event in walked))
            for aid, action_set in actions:
                for device_id, value in action_set.items():
                    if channel[aid, device_id] == "comm":
                        trace.write(f"{t}\t{aid}\temitted\tcomm\t{value!r}\n")
            for name, value in after.items():
                if value != before[name]:
                    trace.write(f"{t + 1}\tenv\tperturbed\t{name}\t{before[name]!r}->{value!r}\n")
        ticks.append((env.tick, after, env.context))
    score = reference_score(ticks, scenario.rules, scenario.n_lights)
    return EvaluationRecord(episode, *score), ticks


def reference_csv(ticks) -> str:
    """episode.csv's text from name-keyed ticks: the variables in sorted
    name order, each value's repr, then the context."""
    if not ticks:
        return ""
    names = sorted(ticks[0][1])
    lines = ["tick," + ",".join(names) + ",context"]
    for tick, values, context in ticks:
        lines.append(",".join([str(tick)] + [repr(values[n]) for n in names] + [context]))
    return "\n".join(lines) + "\n"


def count_updates(mp) -> list[int]:
    """With the monkeypatch ``mp``, wrap the update of every environment
    that ``StreetLightScenario.build_env`` builds; the returned list gets
    the tick of each of their calls."""
    calls: list[int] = []
    build_env = StreetLightScenario.build_env

    def counting_build_env(self, *args):
        env = build_env(self, *args)
        update = env.update

        def counted(t, previous, effects):
            calls.append(t)
            return update(t, previous, effects)

        env.update = counted
        return env

    mp.setattr(StreetLightScenario, "build_env", counting_build_env)
    return calls


def read_csv(text):
    """episode.csv's text as ``streetlight_score`` takes it: the names, the
    rows of floats in the names' order and the contexts."""
    header, *lines = text.splitlines()
    fields = [line.split(",") for line in lines]
    rows = [[float(value) for value in f[1:-1]] for f in fields]
    return tuple(header.split(",")[1:-1]), rows, [f[-1] for f in fields]
