import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agentchart import statechart
from agentchart.body import Agent, configure_body, derive_controller, step_agent
from agentchart.controller import HIDDEN, OUTPUT, Connection, ControllerTopology, Neuron
from agentchart.environment import EpisodeTrace, TickSnapshot, snapshot_row
from agentchart.errors import BehaviorNotConfigured
from agentchart.evaluation import (
    ADJUST,
    RECONFIGURE,
    EvaluationRecord,
    Genotype,
    SearchPolicy,
    all_selections,
    decide,
    genotype_digest,
    run_episode,
    run_search,
)
from agentchart.serialize import body_digest, neuron_digest
from agentchart.statechart import dispatch
from agentchart.streetlight import (
    AmbientProfile,
    PeopleProcess,
    StreetLightScenario,
    StreetlightRules,
    device_template,
    streetlight_score,
)


def lights_trace(rows):
    """rows: one (context, [(energy, people_flow, brightness) per light])
    per tick, at ticks 1..len(rows)."""
    snapshots = []
    for t, (ctx, lights) in enumerate(rows):
        variables = {}
        for i, (energy, flow, brightness) in enumerate(lights):
            variables[f"energy_{i}"] = energy
            variables[f"people_flow_{i}"] = flow
            variables[f"brightness_{i}"] = brightness
        snapshots.append(TickSnapshot(t + 1, variables, ctx))
    return EpisodeTrace(snapshots)


def small_scenario(**overrides):
    params = dict(
        n_lights=2,
        episode_ticks=10,
        ambient=AmbientProfile(kind="cosine", period=10),
        people=PeopleProcess(kind="random", rate=0.5),
    )
    params.update(overrides)
    return StreetLightScenario(**params)


class TestEvaluateEpisode:
    """Episodes are scored by the scenario's own score, streetlight_score."""

    def test_day_night_weighted_sum(self):
        # hand-computed, one light, target 0.75:
        # day   2*1.0 + 0.5*(0.0*0.5)                = 2.0
        # day   2*0.5 + 0.5*(1.0*(0.75-0.25))        = 1.25
        # night 1*1.0 + 2.0*(0.5*(0.75-0.25))        = 1.5
        rules = StreetlightRules(
            w_energy={"day": 2.0, "night": 1.0},
            w_dark={"day": 0.5, "night": 2.0},
            target_brightness=0.75,
        )
        trace = lights_trace(
            [("day", [(1.0, 0.0, 1.0)]),
             ("day", [(0.5, 1.0, 0.25)]),
             ("night", [(1.0, 0.5, 0.25)])]
        )
        record = streetlight_score(trace, rules, 1)
        assert record.score == 4.75
        assert record.breakdown == {"day": 3.25, "night": 1.5}

    def test_zero_weights_give_zero(self):
        rules = StreetlightRules(w_energy={"day": 0.0}, w_dark={"day": 0.0})
        trace = lights_trace([("day", [(1.0, 0.9, 0.0), (0.5, 1.0, 0.1)])] * 5)
        assert streetlight_score(trace, rules, 2).score == 0.0

    def test_matches_double_loop_oracle_on_random_traces(self):
        rng = random.Random(17)
        contexts = ["day", "night", "storm"]
        for _ in range(40):
            n = rng.randint(1, 4)
            rules = StreetlightRules(
                w_energy={c: rng.uniform(0, 3) for c in contexts},
                w_dark={c: rng.uniform(0, 3) for c in contexts},
                energy_on=rng.uniform(0, 2),
                target_brightness=rng.uniform(0, 1),
            )
            rows = [
                (
                    rng.choice(contexts),
                    [
                        (rng.choice([0.0, 0.5, 1.0]) * rules.energy_on, rng.random(), rng.random())
                        for _ in range(n)
                    ],
                )
                for _ in range(5)
            ]
            expected = 0.0
            for ctx, lights in rows:
                for energy, flow, brightness in lights:
                    deficit = flow * max(0.0, rules.target_brightness - brightness)
                    expected += rules.w_energy[ctx] * energy + rules.w_dark[ctx] * deficit
            got = streetlight_score(lights_trace(rows), rules, n).score
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def records(scores):
    return [EvaluationRecord(k, s, {}, "") for k, s in enumerate(scores)]


class TestDecide:
    def test_strict_improvement_keeps_adjusting(self):
        policy = SearchPolicy(patience=10, budget=200)
        history = records([100.0 - k for k in range(30)])
        assert decide(history, policy) == ADJUST

    def test_flat_history_escalates_after_patience(self):
        policy = SearchPolicy(patience=10, budget=200)
        assert decide(records([50.0] * 10), policy) == RECONFIGURE

    def test_short_flat_history_still_adjusts(self):
        policy = SearchPolicy(patience=10, budget=200)
        assert decide(records([50.0] * 9), policy) == ADJUST

    def test_recent_improvement_resets_patience(self):
        policy = SearchPolicy(patience=5, budget=200)
        history = records([50.0] * 8 + [40.0] + [45.0] * 3)
        assert decide(history, policy) == ADJUST

    def test_budget_spent_stops(self):
        policy = SearchPolicy(patience=10, budget=12)
        assert decide(records([1.0] * 12), policy) is None

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            decide([], SearchPolicy())

    @given(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, math.inf]), min_size=1, max_size=12),
        st.integers(1, 14),
    )
    def test_equals_window_rescan_oracle(self, scores, patience):
        # the oracle rescans min(scores[:t]) for every t in the window
        policy = SearchPolicy(patience=patience, budget=200)
        expected = ADJUST
        if len(scores) >= patience:
            window = range(len(scores) - patience, len(scores))
            if not any(t > 0 and scores[t] < min(scores[:t]) for t in window):
                expected = RECONFIGURE
        assert decide(records(scores), policy) == expected

    def test_run_search_follows_decide(self):
        # every generation runs the command decide() gives for the episodes
        # before it, and the search ends at the first None
        scenario = small_scenario(episode_ticks=5)
        policy = SearchPolicy(patience=2, budget=9)
        commands = []
        for seed in range(4):
            result = run_search(scenario, seed=seed, generations=30, lam=2, policy=policy)
            episodes = 1
            for row in result.metrics[1:]:
                assert row.command == decide(result.history[:episodes], policy)
                commands.append(row.command)
                episodes += 2
            assert len(result.history) == episodes
            assert decide(result.history, policy) is None
        assert {ADJUST, RECONFIGURE} <= set(commands)


class TestRunEpisode:
    def test_inoperable_genotype_scores_inf(self):
        scenario = small_scenario()
        result = run_search(scenario, seed=1, generations=1)
        genotype = result.best
        dead = type(genotype)({d.id: False for d in scenario.devices}, genotype.topology)
        record, trace = run_episode(scenario, dead, seed=1)
        assert record.score == math.inf
        assert trace.snapshots == []

    @pytest.mark.parametrize(
        "neurons,motion_sensor",
        [
            pytest.param([Neuron("lighting_sensor", "input")], False, id="no_switch_neuron"),
            pytest.param(
                [Neuron("lighting_sensor", "input"), Neuron("light_switch", "output", False)],
                False,
                id="disabled_switch_neuron",
            ),
            pytest.param(
                [Neuron("lighting_sensor", "input"), Neuron("light_switch", "output")],
                True,
                id="sensor_without_neuron",
            ),
            pytest.param(
                [
                    Neuron("lighting_sensor", "input"),
                    Neuron("light_switch", "output"),
                    Neuron("lighting_sensor", "hidden"),
                ],
                False,
                id="duplicate_neuron_id",
            ),
        ],
    )
    def test_controller_must_mirror_the_body(self, neurons, motion_sensor):
        # a missing or disabled output neuron once played the light as OFF,
        # an enabled sensor without an input neuron was ignored, and so was
        # a sensor whose id a hidden neuron also had
        scenario = small_scenario(episode_ticks=5)
        selection = {d.id: False for d in scenario.devices}
        selection.update(lighting_sensor=True, light_switch=True, motion_sensor=motion_sensor)
        genotype = Genotype(selection, ControllerTopology(tuple(neurons)))
        with pytest.raises(BehaviorNotConfigured):
            run_episode(scenario, genotype, seed=0)

    def test_same_seed_same_score(self):
        scenario = small_scenario()
        genotype = run_search(scenario, seed=2, generations=1).best
        a, _ = run_episode(scenario, genotype, seed=5)
        b, _ = run_episode(scenario, genotype, seed=5)
        assert a.score == b.score

    def test_trace_covers_every_tick(self):
        scenario = small_scenario(episode_ticks=7)
        genotype = run_search(scenario, seed=3, generations=1).best
        _, trace = run_episode(scenario, genotype, seed=3)
        assert [s.tick for s in trace.snapshots] == list(range(1, 8))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_traced_and_untraced_episodes_agree(self, seed):
        # differential: walking the behavior chart for the trace must not
        # change a single snapshot or score, and only the traced run walks it
        scenario = small_scenario(n_lights=3, episode_ticks=12)
        genotype = random_genotype(scenario, random.Random(seed))
        calls = []

        def counting_dispatch(*args, **kwargs):
            calls.append(args[2].id)
            return dispatch(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(statechart, "dispatch", counting_dispatch)
            plain, plain_trace = run_episode(scenario, genotype, seed=seed % 1000)
            assert calls == []
            traced, traced_trace = run_episode(
                scenario, genotype, seed=seed % 1000, collect_events=True
            )
        assert len(calls) == 4 * scenario.n_lights * scenario.episode_ticks
        assert math.isfinite(plain.score)
        assert plain == traced
        assert plain_trace.snapshots == traced_trace.snapshots
        assert plain_trace.events is None and traced_trace.events

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_kernel_equals_dict_level_reference(self, seed):
        # differential: the compiled tick loop against the dict-level views
        # it replaced, bit for bit, traced and untraced
        scenario = small_scenario(n_lights=4, episode_ticks=15)
        genotype = random_genotype(scenario, random.Random(seed))
        for collect_events in (False, True):
            record, trace = run_episode(scenario, genotype, seed % 1000, 3, collect_events)
            expected, expected_trace = reference_episode(
                scenario, genotype, seed % 1000, 3, collect_events
            )
            assert repr(record) == repr(expected)
            assert trace.snapshots == expected_trace.snapshots
            assert trace.events == expected_trace.events


def reference_episode(scenario, genotype, seed, episode=0, collect_events=False):
    """The episode as the dict-level views run it: every tick, each agent's
    ``perceive`` -> ``step_agent``, then ``Environment.step`` and a
    ``snapshot_row``; for operable genotypes only."""
    ids = scenario.agent_ids()
    bodies = {aid: scenario.body_for(i, genotype.selection) for i, aid in enumerate(ids)}
    env = scenario.build_env(seed, bodies)
    agents = [Agent(aid, bodies[aid], genotype.topology) for aid in ids]
    events = [] if collect_events else None
    snapshots = []
    for t in range(scenario.episode_ticks):
        actions = [(a.agent_id, step_agent(a, env.perceive(a.agent_id), t, events)) for a in agents]
        env.step(actions, events)
        snapshots.append(snapshot_row(env))
    trace = EpisodeTrace(snapshots, events)
    return scenario.score(trace, episode, genotype_digest(scenario, genotype)), trace


def random_genotype(scenario, rng: random.Random) -> Genotype:
    """Both comm devices and a random rest of the body; the derived controller
    plus hidden neurons, a self-loop and random edges (cycles among them),
    with about one edge in five disabled."""
    devices = list(scenario.devices)
    selection = {d.id: rng.random() < 0.5 for d in devices}
    selection.update(wireless_in=True, wireless_speaker=True)
    body = configure_body(devices, selection)
    base = derive_controller(body, rng=np.random.default_rng(rng.randrange(2**32)))
    hidden = [Neuron(f"h{k}", HIDDEN, bias=rng.gauss(0, 1)) for k in range(rng.randint(1, 3))]
    neurons = base.neurons + tuple(hidden)
    ids = [n.id for n in neurons]
    # the self-loop reaches every output, so the previous tick's state counts
    loop = hidden[0].id
    edges = [Connection("loop", loop, loop, rng.gauss(0, 4))]
    edges += [Connection(f"o{k}", loop, o, rng.gauss(0, 4)) for k, o in enumerate(base.ids(OUTPUT))]
    edges += [
        Connection(f"x{k}", rng.choice(ids), rng.choice(ids), rng.gauss(0, 2))
        for k in range(rng.randint(2, 8))
    ]
    connections = tuple(
        replace(c, enabled=rng.random() < 0.8) for c in base.connections + tuple(edges)
    )
    return Genotype(selection, ControllerTopology(neurons, connections))


class TestRunSearch:
    def test_single_generation_only_evaluates_initial(self):
        result = run_search(small_scenario(), seed=4, generations=1)
        assert len(result.metrics) == 1
        assert result.metrics[0].command == "init"
        assert len(result.history) == 1

    def test_best_score_never_increases(self):
        for seed in range(20):
            result = run_search(small_scenario(), seed=seed, generations=8, lam=2)
            scores = [row.best_score for row in result.metrics]
            assert scores == sorted(scores, reverse=True)

    def test_reproducible_metrics(self):
        a = run_search(small_scenario(), seed=9, generations=6, lam=3)
        b = run_search(small_scenario(), seed=9, generations=6, lam=3)
        assert [r.to_csv() for r in a.metrics] == [r.to_csv() for r in b.metrics]

    def test_adjust_generations_keep_body_and_neurons_fixed(self):
        scenario = small_scenario()
        seen = []

        def spy(generation, kind, incumbent, candidates):
            seen.append((kind, incumbent, list(candidates)))

        run_search(scenario, seed=6, generations=10, lam=3, on_generation=spy)
        assert any(kind == ADJUST for kind, _, _ in seen)
        devices = list(scenario.devices)
        for kind, incumbent, candidates in seen:
            if kind != ADJUST:
                continue
            base_body = body_digest(configure_body(devices, incumbent.selection))
            base_neurons = neuron_digest(incumbent.topology)
            for cand in candidates:
                assert body_digest(configure_body(devices, cand.selection)) == base_body
                assert neuron_digest(cand.topology) == base_neurons

    def test_exhaustive_matches_brute_force_argmin(self):
        scenario = small_scenario(n_lights=2, episode_ticks=6)
        for seed in (0, 1, 2):
            result = run_search(scenario, seed=seed, generations=1, exhaustive=True)
            # oracle: rebuild every candidate the same way and take the
            # plain min over independently run episodes
            spy_candidates = []

            def spy(generation, kind, incumbent, candidates):
                spy_candidates.extend(candidates)

            run_search(scenario, seed=seed, generations=1, exhaustive=True, on_generation=spy)
            assert len(spy_candidates) == 2 ** len(scenario.devices)
            best = min(
                (run_episode(scenario, g, seed)[0].score for g in spy_candidates),
            )
            init_score = run_search(scenario, seed=seed, generations=1).best_record.score
            assert result.best_record.score == min(best, init_score)

    def test_exhaustive_enumerates_all_selections(self):
        devices = device_template()
        sels = all_selections(devices)
        assert len(sels) == 2 ** len(devices)
        assert len({tuple(sorted(s.items())) for s in sels}) == len(sels)

    def test_metrics_digest_matches_best_genotype(self):
        scenario = small_scenario()
        result = run_search(scenario, seed=11, generations=5, lam=2)
        assert result.metrics[-1].config_digest == genotype_digest(scenario, result.best)
