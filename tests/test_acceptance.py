"""Acceptance gate: one test per release criterion, each printing a
pass/fail line.  Everything here is oracle-backed or closed-form; no
criterion trusts the code under test for its expected value.
"""

import json
import math
import random
import statistics
import time

import numpy as np
import pytest
from test_controller import oracle_eval, random_topology

from agentchart.body import Agent, configure_body, derive_controller, step_agent
from agentchart.cli import EXIT_OK, main as cli_main
from agentchart.controller import Neuron, ControllerTopology, eval_net
from agentchart.evaluation import (
    ADJUST,
    Genotype,
    run_episode,
    run_search,
)
from agentchart.serialize import body_digest, neuron_digest
from agentchart.statechart import Event, dispatch, initialize
from agentchart.streetlight import (
    AmbientProfile,
    PeopleProcess,
    StreetLightScenario,
    StreetlightRules,
    device_template,
    streetlight_score,
)
from conftest import EVENT_ALPHABET, check_configuration, history_motif_chart, random_chart
from test_body import street_devices


def report(number: int, name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")
    assert ok, f"criterion {number} failed: {name}"


def small_scenario(**overrides):
    params = dict(
        n_lights=3,
        episode_ticks=20,
        ambient=AmbientProfile(kind="cosine", period=20),
        people=PeopleProcess(kind="random", rate=0.4),
    )
    params.update(overrides)
    return StreetLightScenario(**params)


def test_criterion_1_statechart_invariants():
    started = time.perf_counter()
    ok = True

    for k in range(1_000):
        rng = random.Random(1_000 + k)
        chart = random_chart(rng)
        config = initialize(chart)
        check_configuration(chart, config)
        for _ in range(6):
            config, _, _ = dispatch(chart, config, Event(rng.choice(EVENT_ALPHABET)))
            check_configuration(chart, config)

    # shallow history restores the last visited child after a round trip
    for k in range(100):
        rng = random.Random(5_000 + k)
        chart, kids = history_motif_chart(rng)
        config = initialize(chart)
        if "outside" in config.active:
            config, _, _ = dispatch(chart, config, Event("return"))
        for _ in range(rng.randint(0, 5)):
            config, _, _ = dispatch(chart, config, Event(rng.choice(["move0", "move1"])))
        last_child = next(s for s in config.active if s in kids)
        config, _, _ = dispatch(chart, config, Event("leave"))
        config, _, _ = dispatch(chart, config, Event("return"))
        ok = ok and last_child in config.active

    # first entry with no memory takes the declared default child
    chart, kids = history_motif_chart(random.Random(0))
    config = initialize(chart)
    if "outside" in config.active:
        config, _, _ = dispatch(chart, config, Event("return"))
    ok = ok and kids[0] in config.active

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    report(1, f"statechart invariants over 1000 random charts ({elapsed:.1f}s)", ok)


def test_criterion_2_body_controller_mapping():
    violations = 0

    for k in range(500):
        rng = random.Random(k)
        devices = [
            type(street_devices()[0])(f"d{j}", rng.choice(["input", "output"]), f"ch{j}")
            for j in range(rng.randint(1, 10))
        ]
        selection = {d.id: rng.random() < 0.5 for d in devices}
        body = configure_body(devices, selection)
        topo = derive_controller(body, rng=np.random.default_rng(k))
        if len(topo.ids("input")) != len(body.enabled_inputs):
            violations += 1
        if len(topo.ids("output")) != len(body.enabled_outputs):
            violations += 1

    # and the same invariant for every candidate a live search produces
    scenario = small_scenario()

    def spy(generation, kind, incumbent, candidates):
        nonlocal violations
        for cand in candidates:
            body = configure_body(list(scenario.devices), cand.selection)
            if len(cand.topology.ids("input")) != len(body.enabled_inputs):
                violations += 1
            if len(cand.topology.ids("output")) != len(body.enabled_outputs):
                violations += 1

    run_search(scenario, seed=0, generations=15, lam=3, on_generation=spy)
    report(2, "body to controller neuron-count mapping (500 inventories + search)", violations == 0)


def test_criterion_3_adjust_restriction():
    scenario = small_scenario()
    devices = list(scenario.devices)
    adjust_steps = 0
    ok = True

    def spy(generation, kind, incumbent, candidates):
        nonlocal adjust_steps, ok
        if kind != ADJUST:
            return
        adjust_steps += 1
        base_body = body_digest(configure_body(devices, incumbent.selection))
        base_neurons = neuron_digest(incumbent.topology)
        for cand in candidates:
            if body_digest(configure_body(devices, cand.selection)) != base_body:
                ok = False
            if neuron_digest(cand.topology) != base_neurons:
                ok = False

    run_search(scenario, seed=1, generations=50, lam=4, on_generation=spy)
    ok = ok and adjust_steps > 0
    report(3, f"adjust touches connections only ({adjust_steps} adjust generations)", ok)


def test_criterion_4_embodiment_loop():
    # one light, pitch dark, controller pinned to ON through a large
    # output bias; exact brightness follows the closed-form rule
    # min(1, ambient + contribution[level]) with ambient = 0
    scenario = StreetLightScenario(
        n_lights=1,
        episode_ticks=2,
        ambient=AmbientProfile(kind="constant", value=0.0),
        people=PeopleProcess(kind="none"),
    )
    selection = {d.id: d.id in ("lighting_sensor", "light_switch") for d in scenario.devices}
    topology = ControllerTopology(
        (Neuron("lighting_sensor", "input"), Neuron("light_switch", "output", bias=10.0)),
        (),
    )
    body = scenario.body_for(0, selection)
    env = scenario.build_env(seed=0, bodies={"light_0": body})
    agent = Agent("light_0", body, topology)

    percept_t0 = env.perceive("light_0")
    actions_t0 = step_agent(agent, percept_t0, 0)
    env.step([("light_0", actions_t0)])
    percept_t1 = env.perceive("light_0")
    actions_t1 = step_agent(agent, percept_t1, 1)

    ok = (
        percept_t0 == {"lighting_sensor": 0.0}
        and actions_t0 == {"light_switch": "ON"}
        and env.values["brightness_0"] == 0.7
        and percept_t1 == {"lighting_sensor": 0.7}
        and actions_t1 == {"light_switch": "ON"}
    )
    report(4, "two-tick closed perception-action-perturbation loop", ok)


def test_criterion_5_neural_oracle():
    worst = 0.0
    checked = 0
    for k in range(120):
        rng = random.Random(9_000 + k)
        topo = random_topology(rng, max_neurons=8)
        state = {}
        oracle_state = {}
        for _ in range(3):
            inputs = {n.id: rng.uniform(-1, 2) for n in topo.neurons if n.layer == "input"}
            outputs, state = eval_net(topo, state, inputs)
            expected, oracle_state = oracle_eval(topo, oracle_state, inputs)
            for nid, value in expected.items():
                worst = max(worst, abs(outputs[nid] - value))
                checked += 1
    ok = checked > 0 and worst <= 1e-12
    report(5, f"eval_net vs unrolled oracle, 120 topologies (max err {worst:.2e})", ok)


def test_criterion_6_structural_search_oracle():
    template = {d.id: d for d in device_template()}
    four = tuple(template[k] for k in
                 ("lighting_sensor", "motion_sensor", "wireless_speaker", "light_switch"))
    scenario = small_scenario(n_lights=2, episode_ticks=10, devices=four)
    ok = True

    for seed in range(10):
        seen = []

        def spy(generation, kind, incumbent, candidates, seen=seen):
            seen.extend(candidates)

        result = run_search(scenario, seed=seed, generations=1, exhaustive=True,
                            on_generation=spy)
        if len(seen) != 16:
            ok = False
            continue
        # brute force: score each frozen-weight configuration independently
        scores = [run_episode(scenario, g, seed)[0].score for g in seen]
        best_k = min(range(16), key=lambda k: (scores[k], k))
        init_score = run_search(scenario, seed=seed, generations=1).best_record.score
        if result.best_record.score != min(scores[best_k], init_score):
            ok = False
        if scores[best_k] < init_score and result.best.selection != seen[best_k].selection:
            ok = False
    report(6, "exhaustive structural search equals brute-force argmin, 10 seeds", ok)


@pytest.mark.slow
def test_criterion_7_training_sanity():
    def full_scenario():
        return StreetLightScenario(n_lights=10, episode_ticks=200)

    started = time.perf_counter()
    timed = run_search(full_scenario(), seed=0, generations=30, lam=4)
    elapsed = time.perf_counter() - started
    best_curve = [row.best_score for row in timed.metrics]
    non_increasing = best_curve == sorted(best_curve, reverse=True)

    wins = 0
    for seed in range(20):
        scenario = full_scenario()
        result = run_search(scenario, seed=seed, generations=30, lam=4)
        baselines = []
        for b in range(20):
            genotype = Genotype(
                {d.id: True for d in scenario.devices},
                derive_controller(
                    configure_body(list(scenario.devices), {d.id: True for d in scenario.devices}),
                    rng=np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9, b))),
                ),
            )
            baselines.append(run_episode(scenario, genotype, seed)[0].score)
        if result.best_record.score < statistics.median(baselines):
            wins += 1

    ok = elapsed < 60.0 and non_increasing and wins >= 18
    report(
        7,
        f"training sanity ({elapsed:.1f}s, beats baseline median {wins}/20 seeds)",
        ok,
    )


def test_criterion_8_cli_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"n_lights": 3, "episode_ticks": 25}))

    def run(out, jobs):
        code = cli_main([
            "run", "--scenario", str(scenario_path), "--seed", "3",
            "--generations", "6", "--lambda", "3", "--jobs", str(jobs),
            "--out", str(out), "--trace",
        ])
        assert code == EXIT_OK

    run(tmp_path / "a", 1)
    run(tmp_path / "b", 1)
    run(tmp_path / "c", 4)
    ok = True
    for name in ("metrics.csv", "best_agent.json", "trace.log"):
        a = (tmp_path / "a" / name).read_bytes()
        if a != (tmp_path / "b" / name).read_bytes():
            ok = False
        if a != (tmp_path / "c" / name).read_bytes():
            ok = False
    report(8, "byte-identical reruns, --jobs 4 equals --jobs 1", ok)


def test_criterion_9_scoring_linearity():
    """The street-light score, which every run uses: scaling both weight
    tables by c scales every score by c and keeps the argmin."""
    rng = random.Random(31)
    contexts = ["day", "night"]
    n_lights = 3
    ok = True

    names = tuple(
        f"{name}_{i}" for i in range(n_lights) for name in ("energy", "people_flow", "brightness")
    )

    def random_trace():
        rows, row_contexts = [], []
        for _ in range(6):
            row = []
            for _ in range(n_lights):
                row += (rng.choice([0.0, 0.5, 1.0]), rng.random(), rng.random())
            rows.append(row)
            row_contexts.append(rng.choice(contexts))
        return names, rows, row_contexts

    for trial in range(30):
        rules = StreetlightRules(
            w_energy={ctx: rng.uniform(0.1, 2.0) for ctx in contexts},
            w_dark={ctx: rng.uniform(0.1, 2.0) for ctx in contexts},
        )
        c = rng.uniform(0.1, 10.0)
        scaled = StreetlightRules(
            w_energy={k: c * w for k, w in rules.w_energy.items()},
            w_dark={k: c * w for k, w in rules.w_dark.items()},
        )
        candidates = [random_trace() for _ in range(8)]
        base = [streetlight_score(*t, rules, n_lights)[0] for t in candidates]
        big = [streetlight_score(*t, scaled, n_lights)[0] for t in candidates]
        for s0, s1 in zip(base, big):
            scale = abs(s0) if s0 != 0 else 1.0
            if abs(s1 - c * s0) > 1e-12 * max(1.0, c * scale):
                ok = False
        if min(range(8), key=lambda k: base[k]) != min(range(8), key=lambda k: big[k]):
            ok = False
    report(9, "score scales linearly in the weights, argmin unchanged", ok)
