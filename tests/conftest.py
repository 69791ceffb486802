"""Shared helpers: random chart generation, the configuration invariant
oracle and the name-keyed episode-record oracles used by unit and
acceptance tests."""

from __future__ import annotations

import random
from functools import reduce
from operator import add

from agentchart.statechart import (
    AND,
    BASIC,
    XOR,
    Configuration,
    StateNode,
    Statechart,
    Transition,
    build_chart,
)

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


def read_csv(text):
    """episode.csv's text as ``streetlight_score`` takes it: the names, the
    rows of floats in the names' order and the contexts."""
    header, *lines = text.splitlines()
    fields = [line.split(",") for line in lines]
    rows = [[float(value) for value in f[1:-1]] for f in fields]
    return tuple(header.split(",")[1:-1]), rows, [f[-1] for f in fields]
