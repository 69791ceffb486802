import io
import math
import random
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agentchart import evaluation, statechart
from agentchart.body import DeviceSpec, configure_body, derive_controller
from agentchart.controller import (
    HIDDEN,
    INPUT,
    OUTPUT,
    Connection,
    ControllerTopology,
    Neuron,
)
from agentchart.environment import Environment, EpisodeTrace
from agentchart.errors import BehaviorNotConfigured, NonFiniteInput, NonFiniteVariable
from agentchart.evaluation import (
    ADJUST,
    RECONFIGURE,
    EvaluationRecord,
    Genotype,
    SearchPolicy,
    all_selections,
    decide,
    fixed_levels,
    genotype_digest,
    initial_genotype,
    run_episode,
    run_search,
)
from agentchart.serialize import body_digest, neuron_digest
from agentchart.statechart import dispatch
from agentchart.streetlight import (
    LEVELS,
    AmbientProfile,
    PeopleProcess,
    StreetLightScenario,
    StreetlightRules,
    device_template,
    streetlight_score,
)

from conftest import count_updates, read_csv, reference_csv, reference_episode, scenarios


def lights_trace(rows):
    """rows: one (context, [(energy, people_flow, brightness) per light])
    per tick, at ticks 1..len(rows)."""
    n = len(rows[0][1])
    names = tuple(
        f"{name}_{i}" for i in range(n) for name in ("energy", "people_flow", "brightness")
    )
    return (
        names,
        [[value for light in lights for value in light] for _, lights in rows],
        [ctx for ctx, _ in rows],
    )


def traced(**sinks):
    """An ``EpisodeTrace`` whose sinks are new ``io.StringIO``s, but for those given."""
    return EpisodeTrace(**{"events": io.StringIO(), "table": io.StringIO(), **sinks})


def sink(write):
    """A text sink that hands every piece to ``write``."""
    return SimpleNamespace(write=write)


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
        score, breakdown = streetlight_score(*trace, rules, 1)
        assert score == 4.75
        assert breakdown == {"day": 3.25, "night": 1.5}

    def test_zero_weights_give_zero(self):
        rules = StreetlightRules(w_energy={"day": 0.0}, w_dark={"day": 0.0})
        trace = lights_trace([("day", [(1.0, 0.9, 0.0), (0.5, 1.0, 0.1)])] * 5)
        assert streetlight_score(*trace, rules, 2)[0] == 0.0

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
            got = streetlight_score(*lights_trace(rows), rules, n)[0]
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def records(scores):
    return [EvaluationRecord(k, s, {}) for k, s in enumerate(scores)]


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
        assert record.score == math.inf and trace == EpisodeTrace()
        # traced, it writes nothing to either sink
        sinks = traced()
        record, trace = run_episode(scenario, dead, seed=1, trace=sinks)
        assert record.score == math.inf and trace is sinks
        assert sinks.events.getvalue() == sinks.table.getvalue() == ""

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
        _, trace = run_episode(scenario, genotype, seed=3, trace=traced())
        header, *lines = trace.table.getvalue().splitlines()
        names = header.split(",")
        assert names[0] == "tick" and names[-1] == "context"
        assert names[1:-1] == sorted(names[1:-1])
        assert all(line.count(",") == len(names) - 1 for line in lines)
        ticks = [line.split(",")[0] for line in lines]
        assert ticks == [str(t) for t in range(1, 8)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_traced_and_untraced_episodes_agree(self, seed):
        # differential: replaying the behavior chart for the trace must not
        # change the score, and neither run dispatches: the pass is compiled
        # once at import.  streetlight_score over the rows of the written
        # episode.csv adds up the same per-tick term as the kernel
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
            sinks = traced()
            record, trace = run_episode(scenario, genotype, seed=seed % 1000, trace=sinks)
        assert calls == []
        assert math.isfinite(plain.score)
        assert plain == record
        assert plain_trace == EpisodeTrace()
        assert trace is sinks and sinks.events.getvalue()
        names, rows, contexts = read_csv(sinks.table.getvalue())
        assert len(rows) == len(contexts) == scenario.episode_ticks
        folded = streetlight_score(names, rows, contexts, scenario.rules, scenario.n_lights)
        assert repr(folded) == repr((plain.score, plain.breakdown))

    @settings(max_examples=50, deadline=None)
    @given(scenarios(light_ticks=60), st.integers(min_value=0, max_value=2**32 - 1))
    def test_kernel_equals_dict_level_reference(self, scenario, seed):
        # differential: the compiled tick loop and its column-indexed record
        # against the dict-level views and name-keyed ticks they replaced,
        # bit for bit: the score and its breakdown, traced and untraced, and,
        # traced, episode.csv's text, which holds every value's repr and
        # every context, and trace.log's, whose pass lines the reference
        # takes from the statechart interpreter's walk of each agent's chart
        genotype = random_genotype(scenario, random.Random(seed))
        for sinks in (None, traced()):
            expected_sink = io.StringIO() if sinks else None
            record, trace = run_episode(scenario, genotype, seed % 1000, 3, sinks)
            expected, expected_ticks = reference_episode(
                scenario, genotype, seed % 1000, 3, expected_sink
            )
            assert repr(record) == repr(expected)
            if sinks is None:
                assert trace == EpisodeTrace()
                continue
            assert trace is sinks
            # as lines, like trace.log's text below
            csv, expected_csv = sinks.table.getvalue(), reference_csv(expected_ticks)
            assert csv.splitlines(True) == expected_csv.splitlines(True)
            # the text of trace.log, byte for byte, however it is pieced;
            # compared as lines, which pytest explains cheaply when they differ
            text, expected_text = sinks.events.getvalue(), expected_sink.getvalue()
            assert text.splitlines(True) == expected_text.splitlines(True)

    def test_trace_is_written_as_the_episode_runs(self):
        # a sink whose k-th write raises ends the episode there, having had
        # the first k-1 pieces of the full run; every tick writes to both
        # sinks, so fewer than k ticks were advanced: no text of trace.log,
        # and no line of episode.csv, waits for the end of the episode
        scenario = small_scenario(n_lights=3, episode_ticks=12)
        genotype = random_genotype(scenario, random.Random(7))
        advance = Environment.advance
        for failing in ("events", "table"):
            full: list[str] = []
            run_episode(scenario, genotype, 1, trace=traced(**{failing: sink(full.append)}))
            assert len(full) >= scenario.episode_ticks
            for k in range(1, len(full) + 1):
                received: list[str] = []
                ticks_run: list[int] = []

                def write(text):
                    if len(received) == k - 1:
                        raise OSError("sink full")
                    received.append(text)

                def counted_advance(env, effects):
                    advance(env, effects)
                    ticks_run.append(env.tick)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(Environment, "advance", counted_advance)
                    with pytest.raises(OSError, match="sink full"):
                        run_episode(scenario, genotype, 1, trace=traced(**{failing: sink(write)}))
                assert received == full[: k - 1]
                assert len(ticks_run) < k
            if failing == "events":
                # the last write, the last tick's emitted and perturbed lines,
                # fails once that tick has advanced
                assert len(ticks_run) == scenario.episode_ticks
            else:
                # the header, then each tick's line once that tick has advanced
                assert len(full) == 1 + scenario.episode_ticks
                assert len(ticks_run) == scenario.episode_ticks

    def test_bad_row_writes_nothing_of_its_tick(self):
        # the update's row for tick k holds a NaN: the episode raises, and of
        # the step from tick k-1 to k, trace.log has the agents' lines but no
        # emitted line (stamped k-1) and no perturbed line (stamped k), and
        # episode.csv has no line for tick k
        scenario = small_scenario(n_lights=3, episode_ticks=12)
        genotype = random_genotype(scenario, random.Random(7))
        build_env, k = StreetLightScenario.build_env, 5

        def poisoned_build_env(self, *args):
            env = build_env(self, *args)
            update = env.update

            def poisoned(t, previous, effects):
                row = update(t, previous, effects)
                return [math.nan, *row[1:]] if t == k else row

            env.update = poisoned
            return env

        sinks = traced()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreetLightScenario, "build_env", poisoned_build_env)
            with pytest.raises(NonFiniteVariable, match="'daylight'"):
                run_episode(scenario, genotype, 1, trace=sinks)
        events = {tuple(line.split("\t")[:3:2]) for line in sinks.events.getvalue().splitlines()}
        # the step before wrote both kinds of line, the failing one neither
        assert {(str(k - 2), "emitted"), (str(k - 1), "perturbed")} <= events
        assert not {(str(k - 1), "emitted"), (str(k), "perturbed")} & events
        assert (str(k - 1), "fired") in events
        ticks = [line.split(",")[0] for line in sinks.table.getvalue().splitlines()]
        assert ticks == ["tick", *map(str, range(1, k))]

    def test_nan_weight_raises_non_finite_input(self):
        # a NaN weight makes the lamp output's sum NaN, which quantize
        # cannot place on a level, traced or not
        scenario = small_scenario()
        genotype = random_genotype(scenario, random.Random(4), light_switch=True)
        topology = genotype.topology
        connections = tuple(
            replace(c, weight=math.nan, enabled=True) if c.to_id == "light_switch" else c
            for c in topology.connections
        )
        assert any(c.to_id == "light_switch" for c in connections)
        nan = replace(genotype, topology=replace(topology, connections=connections))
        for sinks in (None, traced()):
            with pytest.raises(NonFiniteInput, match="output value is not finite: nan"):
                run_episode(scenario, nan, 1, trace=sinks)

    def test_traced_episode_holds_no_trace_text(self):
        # the heap peak of a traced episode stays under a quarter of the
        # trace.log characters it writes (a twentieth here: it keeps no
        # row); kept until the episode ended, the text took 1.1 times as much
        scenario = small_scenario(n_lights=20, episode_ticks=300)
        genotype = random_genotype(scenario, random.Random(3))
        written = 0

        def discard(text):
            nonlocal written
            written += len(text)

        tracemalloc.start()
        try:
            sinks = EpisodeTrace(sink(discard), sink(len))
            run_episode(scenario, genotype, 0, trace=sinks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert written > 5_000_000
        assert peak < 0.25 * written

    def test_traced_episode_keeps_no_rows(self):
        # a traced 10-light episode's heap peak grows by less than a quarter
        # of one kept row per tick: about 100 B per tick, from the people
        # flows drawn up front as one array, against about 400 B when they
        # were drawn as Python floats and 1,122 B when each tick's (row,
        # context) was kept
        def peak(ticks):
            scenario = small_scenario(n_lights=10, episode_ticks=ticks)
            genotype = random_genotype(scenario, random.Random(3))
            tracemalloc.start()
            try:
                run_episode(scenario, genotype, 0, trace=EpisodeTrace(sink(len), sink(len)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(800) - peak(200)) / 600 < 250


def stored(cache):
    """Every score key of a search's cache, scope by scope."""
    return [(scope, key) for scope, (scores, _) in cache.items() for key in scores]


class TestScoreMemo:
    """``run_episode``'s ``cache=``, as a search's memo of the operable
    genotypes it has run: one scope per seed and per set of outputs that
    drive a variable, whose scores are keyed by selection and topology, or
    by ``()`` in the scope of a lampless genotype, whose outputs all drive
    the comm channel."""

    def setup_method(self):
        self.scenario = small_scenario(n_lights=3, episode_ticks=12)
        self.genotype = random_genotype(self.scenario, random.Random(5))

    def test_hit_keeps_the_callers_episode_index(self):
        cache = {}
        first, first_trace = run_episode(self.scenario, self.genotype, 1, 3, cache=cache)
        assert len(stored(cache)) == 1
        hit, hit_trace = run_episode(self.scenario, self.genotype, 1, 8, cache=cache)
        assert hit == replace(first, episode=8)
        # an untraced episode keeps no rows, whether it ran or was a hit
        assert first_trace == hit_trace == EpisodeTrace()
        assert len(stored(cache)) == 1

    def test_mutating_a_breakdown_does_not_change_a_later_hit(self):
        cache = {}
        miss, _ = run_episode(self.scenario, self.genotype, 1, cache=cache)
        expected = dict(miss.breakdown)
        miss.breakdown.clear()
        hit, _ = run_episode(self.scenario, self.genotype, 1, cache=cache)
        assert hit.breakdown == expected
        hit.breakdown["day"] = -1.0
        again, _ = run_episode(self.scenario, self.genotype, 1, cache=cache)
        assert again.breakdown == expected

    def test_traced_call_reads_rows_but_never_a_score(self):
        plain, _ = run_episode(self.scenario, self.genotype, 1)
        cache = {}
        run_episode(self.scenario, self.genotype, 1, trace=traced(), cache=cache)
        # it creates no scope
        assert cache == {}
        # a planted entry for the same key is not read by a traced call, but
        # the scope's rows are: it makes no update
        run_episode(self.scenario, self.genotype, 1, cache=cache)
        ((scope, key),) = stored(cache)
        cache[scope][0][key] = (-1.0, {})
        before = repr(cache)
        with pytest.MonkeyPatch.context() as mp:
            updates = count_updates(mp)
            record, trace = run_episode(
                self.scenario, self.genotype, 1, trace=traced(), cache=cache
            )
        assert updates == []
        assert record == plain and trace.table.getvalue().count("\n") == 1 + 12
        assert repr(cache) == before
        # while an untraced call reads it
        assert run_episode(self.scenario, self.genotype, 1, cache=cache)[0].score == -1.0

    def test_another_seed_misses(self):
        cache = {}
        run_episode(self.scenario, self.genotype, 1, cache=cache)
        other, trace = run_episode(self.scenario, self.genotype, 2, cache=cache)
        # it ran and stored a second entry, in a scope of its own, and kept no rows
        assert trace == EpisodeTrace() and len(stored(cache)) == len(cache) == 2
        assert other == run_episode(self.scenario, self.genotype, 2)[0]

    def test_inoperable_genotype_is_never_stored(self):
        dead = Genotype({d.id: False for d in self.scenario.devices}, self.genotype.topology)
        cache = {}
        for episode in range(2):
            record, _ = run_episode(self.scenario, dead, 1, episode, cache=cache)
            assert record == EvaluationRecord(episode, math.inf, {})
        assert cache == {}

    def test_lampless_genotypes_share_one_entry(self):
        # different sensors and weights, but the speaker is the only output of
        # both: the second is a hit, and builds no environment
        first = random_genotype(
            self.scenario, random.Random(1), light_switch=False, motion_sensor=False
        )
        second = random_genotype(
            self.scenario, random.Random(2), light_switch=False, motion_sensor=True
        )
        assert first.selection != second.selection
        assert first.topology.connections != second.topology.connections
        cache = {}
        run_episode(self.scenario, first, 1, 3, cache=cache)
        assert stored(cache) == [((1, ()), ())]

        def no_build_env(*args):
            raise AssertionError("a hit builds no environment")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreetLightScenario, "build_env", no_build_env)
            hit, trace = run_episode(self.scenario, second, 1, 8, cache=cache)
        # one scope, the empty one, whose only score key is ()
        assert stored(cache) == [((1, ()), ())] and trace == EpisodeTrace()
        # with this call's episode index, 8
        assert repr(hit) == repr(run_episode(self.scenario, second, 1, 8)[0])

    def test_lampless_controller_must_mirror_the_body_on_a_hit(self):
        lampless = random_genotype(self.scenario, random.Random(1), light_switch=False)
        cache = {}
        run_episode(self.scenario, lampless, 1, cache=cache)
        assert stored(cache) == [((1, ()), ())]
        # the same body without the speaker's output neuron
        topology = lampless.topology
        neurons = tuple(n for n in topology.neurons if n.id != "wireless_speaker")
        broken = replace(lampless, topology=replace(topology, neurons=neurons))
        with pytest.raises(BehaviorNotConfigured):
            run_episode(self.scenario, broken, 1, cache=cache)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lampless_episode_scores_the_idle_environment(self, seed):
        # the oracle the lampless scope rests on, run without the cache:
        # agents that only talk leave the environment as if nobody acted
        scenario = small_scenario(n_lights=4, episode_ticks=15)
        genotype = random_genotype(scenario, random.Random(seed), light_switch=False)
        record, _ = run_episode(scenario, genotype, seed % 1000)
        assert repr((record.score, record.breakdown)) == repr(steady_score(scenario, seed % 1000))


def steady_score(scenario, seed, level=None):
    """The score and breakdown of an environment stepped with every lamp at
    ``level``, or with nobody acting."""
    ids = scenario.agent_ids()
    bodies = {aid: scenario.body_for(i, {"light_switch": True}) for i, aid in enumerate(ids)}
    env = scenario.build_env(seed, bodies)
    actions = [] if level is None else [(aid, {"light_switch": level}) for aid in ids]
    rows, contexts = [], []
    for _ in range(scenario.episode_ticks):
        env.step(actions)
        rows.append(env.row)
        contexts.append(env.context)
    return streetlight_score(env.names, rows, contexts, scenario.rules, scenario.n_lights)


# a sensor of each light's own lamp, whose value may exceed 1
LAMP_METER = DeviceSpec("lamp_meter", "input", "light@self")
LN2 = math.log(2)  # a three-level output's sigmoid edges 1/3 and 2/3 lie at -ln 2 and ln 2


class TestFixedLevels:
    """``fixed_levels``: a genotype whose lamps provably hold one level, for
    every input in [0, 1] and every state, is keyed by those levels, from
    bounds ``lo`` and ``hi`` on each lamp output's sum widened by
    ``m = 1e-9 * (1 + spread)``."""

    scenario = small_scenario(n_lights=3, devices=device_template() + (LAMP_METER,))

    def genotype(self, bias=0.0, outputs=("light_switch",), **inputs):
        """The ``inputs`` and ``outputs``, an edge of each input's weight to
        each output, and the outputs' ``bias``."""
        selection = {d.id: d.id in inputs or d.id in outputs for d in self.scenario.devices}
        neurons = tuple(Neuron(i, INPUT) for i in inputs)
        neurons += tuple(Neuron(o, OUTPUT, bias=bias) for o in outputs)
        connections = tuple(
            Connection(f"{i}-{o}", i, o, weight) for i, weight in inputs.items() for o in outputs
        )
        return Genotype(selection, ControllerTopology(neurons, connections))

    def levels(self, genotype):
        body = configure_body(list(self.scenario.devices), genotype.selection)
        return fixed_levels(body, genotype.topology)

    def test_bounds_inside_the_middle_level_give_dim(self):
        # lo = 0.2 - 0.4, hi = 0.2 + 0.3
        genotype = self.genotype(0.2, lighting_sensor=0.3, motion_sensor=-0.4)
        assert self.levels(genotype) == ("DIM",)
        cache = {}
        run_episode(self.scenario, genotype, 1, cache=cache)
        assert stored(cache) == [((1, ("light_switch",)), ("DIM",))]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bounds_within_the_margin_of_an_edge_keep_the_full_key(self, sign):
        # m is about 1.7e-9 here: a bound 1e-10 inside an edge may cross it
        assert self.levels(self.genotype(lighting_sensor=sign * (LN2 - 1e-10))) is None
        # while one 1e-8 inside it may not, and the brightness reaches 1, so
        # the sum reaches the bound itself
        near = self.genotype(lighting_sensor=sign * (LN2 - 1e-8))
        assert self.levels(near) == ("DIM",)
        record, _ = run_episode(self.scenario, near, 2)
        assert repr((record.score, record.breakdown)) == repr(steady_score(self.scenario, 2, "DIM"))

    @pytest.mark.parametrize(
        "bias, weight",
        [(1.7e308, 1e308), (1.7e308, math.inf), (-1.7e308, -math.inf), (0.0, math.nan)],
    )
    def test_a_non_finite_spread_keeps_the_full_key(self, bias, weight):
        # the first three bound the lamp at ON or OFF, but an infinite spread
        # proves nothing: an infinite weight times an input of 0 is NaN
        assert self.levels(self.genotype(bias, lighting_sensor=weight)) is None

    def test_an_input_outside_the_unit_channels_keeps_the_full_key(self):
        assert self.levels(self.genotype(lighting_sensor=0.1)) == ("DIM",)
        assert self.levels(self.genotype(lamp_meter=0.1)) is None
        assert self.levels(self.genotype(lighting_sensor=0.1, lamp_meter=0.1)) is None

    def test_a_lampless_body_keeps_the_empty_key(self):
        speaker = ("wireless_speaker",)
        assert self.levels(self.genotype(lamp_meter=1e308, outputs=speaker)) == ()

    def test_genotypes_with_one_fixed_level_share_one_entry(self):
        # different bodies and weights, both lamps DIM: the second is a hit,
        # which builds no environment and no evaluation plan
        fixed = dict(light_switch=True, lamp_meter=False)
        first = random_genotype(self.scenario, random.Random(1), 0.01, **fixed)
        second = random_genotype(self.scenario, random.Random(2), 0.01, **fixed)
        assert first.selection != second.selection
        cache = {}
        run_episode(self.scenario, first, 1, 3, cache=cache)
        assert stored(cache) == [((1, ("light_switch",)), ("DIM",))]

        def no_build_env(*args):
            raise AssertionError("a hit builds no environment")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreetLightScenario, "build_env", no_build_env)
            hit, trace = run_episode(self.scenario, second, 1, 8, cache=cache)
        assert "eval_plan" not in vars(second.topology)
        assert stored(cache) == [((1, ("light_switch",)), ("DIM",))] and trace == EpisodeTrace()
        assert repr(hit) == repr(run_episode(self.scenario, second, 1, 8)[0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_fixed_dim_episode_scores_the_all_dim_environment(self, seed):
        # the oracle the fixed-level key rests on, run without the cache:
        # lamps that stay DIM, whatever else the agents sense, say or hold
        scenario = small_scenario(n_lights=4, episode_ticks=15)
        genotype = random_genotype(scenario, random.Random(seed), 0.01, light_switch=True)
        body = configure_body(list(scenario.devices), genotype.selection)
        assert fixed_levels(body, genotype.topology) == ("DIM",)
        record, _ = run_episode(scenario, genotype, seed % 1000)
        dim = steady_score(scenario, seed % 1000, "DIM")
        assert repr((record.score, record.breakdown)) == repr(dim)


def fixed_key(scenario, genotype):
    """The driven outputs and the levels ``fixed_levels`` proves of an
    operable genotype, ``((), ())`` for a lampless one, or None."""
    body = configure_body(list(scenario.devices), genotype.selection)
    levels = fixed_levels(body, genotype.topology) if body.is_operable() else None
    drives = tuple(d.id for d in body.enabled_outputs if d.channel != "comm")
    return None if levels is None else (drives, levels)


def memo_free_episodes(scenario, seed, jobs, generations, lam, start=None):
    """Differential: every history entry of a search from the initial
    genotype, or from ``start``, re-run by a plain run_episode without the
    memo, gives the same episode, score and breakdown, and the kernel ran at
    most one genotype per set of fixed levels (``fixed_key``) per thread,
    more than one only when the first ones raced.  Returns the counts of
    operable entries and of episodes the search built, and the ``fixed_key``
    counts of the entries and of the episodes built."""
    ran, candidates = [], []
    running = threading.local()
    build_env = StreetLightScenario.build_env

    def spy(scenario, genotype, *args, **kwargs):
        running.genotype = genotype
        return run_episode(scenario, genotype, *args, **kwargs)

    def counting_build_env(self, *args, **kwargs):
        ran.append(running.genotype)
        return build_env(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StreetLightScenario, "build_env", counting_build_env)
        mp.setattr(evaluation, "run_episode", spy)
        if start is not None:
            mp.setattr(evaluation, "initial_genotype", lambda scenario, seed: start)
        result = run_search(
            scenario,
            seed=seed,
            generations=generations,
            lam=lam,
            jobs=jobs,
            on_generation=lambda g, kind, incumbent, cands: candidates.extend(cands),
        )
    genotypes = [start or initial_genotype(scenario, seed)] + candidates
    assert len(genotypes) == len(result.history)
    operable = 0
    for k, (genotype, record) in enumerate(zip(genotypes, result.history)):
        expected, _ = run_episode(scenario, genotype, seed, episode=k)
        assert (record.episode, record.score, record.breakdown) == (
            expected.episode,
            expected.score,
            expected.breakdown,
        )
        operable += math.isfinite(expected.score)

    def fixed_keys(genotypes):
        return Counter(key for key in (fixed_key(scenario, g) for g in genotypes) if key)

    runs = fixed_keys(ran)
    assert all(n <= jobs for n in runs.values()), runs
    return operable, len(ran), fixed_keys(genotypes), runs


def random_genotype(scenario, rng: random.Random, scale: float = 1.0, **fixed: bool) -> Genotype:
    """Both comm devices, the devices ``fixed`` sets as it says, and a random
    rest of the body; the derived controller plus hidden neurons, a
    self-loop and random edges (cycles among them), with about one edge in
    five disabled, and every weight and bias times ``scale``."""
    devices = list(scenario.devices)
    selection = {d.id: rng.random() < 0.5 for d in devices}
    selection.update({"wireless_in": True, "wireless_speaker": True, **fixed})
    body = configure_body(devices, selection)
    base = derive_controller(body, rng=np.random.default_rng(rng.randrange(2**32)))
    hidden = [
        Neuron(f"h{k}", HIDDEN, bias=rng.gauss(0, 1) * scale) for k in range(rng.randint(1, 3))
    ]
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
        replace(c, weight=c.weight * scale, enabled=rng.random() < 0.8)
        for c in base.connections + tuple(edges)
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memo_equals_memo_free_episodes(self, jobs):
        # the seeds are ones whose RECONFIGURE generations repeat genotypes,
        # so the memo is hit, and seeds 11 and 6 meet genotypes with fixed
        # levels: 76 and 44 lampless ones, and 3 and 9 whose lamps stay DIM
        served = Counter()
        for seed in (4, 11, 6):
            operable, built, fixed, runs = memo_free_episodes(small_scenario(), seed, jobs, 30, 4)
            # fewer episodes were built than operable entries: the memo was hit
            assert built < operable
            served += fixed - runs
        assert served[(), ()] >= 2 and served[("light_switch",), ("DIM",)] >= 2

    @settings(max_examples=20, deadline=None)
    @given(
        scenarios(light_ticks=20),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1, 2]),
        st.sampled_from([None, 0.05]),
    )
    def test_memo_equals_memo_free_episodes_on_drawn_scenarios(self, scenario, seed, jobs, scale):
        # from a small-weighted random start with a lamp, a search meets
        # genotypes with fixed lamp levels, hidden neurons and cycles
        start = None if scale is None else random_genotype(
            scenario, random.Random(seed), scale, light_switch=True
        )
        memo_free_episodes(scenario, seed, jobs, 10, 3, start)

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

    def test_exhaustive_sweep_ignores_the_budget(self):
        # the brute-force argmin needs every body: the sweep runs all 2^d of
        # them however small search.budget is
        scenario = small_scenario(n_lights=2, episode_ticks=6)
        policy = SearchPolicy(budget=3)
        result = run_search(scenario, seed=0, generations=1, policy=policy, exhaustive=True)
        assert len(result.history) == 1 + 2 ** len(scenario.devices)

    def test_exhaustive_enumerates_all_selections(self):
        devices = device_template()
        sels = all_selections(devices)
        assert len(sels) == 2 ** len(devices)
        assert len({tuple(sorted(s.items())) for s in sels}) == len(sels)

    def test_metrics_digest_matches_best_genotype(self):
        # each row's digest is the incumbent's after that generation: the one
        # the next generation starts from, and for the last row the result's
        scenario = small_scenario()
        incumbents = []
        result = run_search(
            scenario,
            seed=8,
            generations=12,
            lam=2,
            on_generation=lambda generation, kind, incumbent, _: incumbents.append(incumbent),
        )
        incumbents.append(result.best)
        digests = [genotype_digest(scenario, g) for g in incumbents]
        assert [row.config_digest for row in result.metrics] == digests
        assert len(set(digests)) > 1

    def test_digests_only_the_genotypes_it_keeps(self):
        # default size: once for the initial genotype, once per accepted candidate
        calls = []

        def counting_digest(scenario, genotype):
            calls.append(genotype)
            return genotype_digest(scenario, genotype)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "genotype_digest", counting_digest)
            result = run_search(StreetLightScenario(), seed=0, generations=30, lam=4)
        scores = [row.best_score for row in result.metrics]
        accepted = sum(b < a for a, b in zip(scores, scores[1:]))
        assert len(calls) == 1 + accepted
        assert len(calls) < len(result.history)


# a second switch on every light that drives light 0's lamp: a body with it
# and without the light switch drives as many lamp channels as one with the
# switch alone, but not the same ones
BEACON = DeviceSpec("beacon", "output", "light_0", LEVELS)


def without_cache(*args, **kwargs):
    """``run_episode`` as a search calls it, with the search's cache
    dropped; a call without one fails."""
    kwargs.pop("cache")
    return run_episode(*args, **kwargs)


class TestTickCache:
    """``run_episode``'s ``cache=``, as a search's cache of the rows,
    contexts and score terms of each tick, keyed by the values of the
    outputs that drive the update, in one scope per seed and per set of
    those outputs."""

    @settings(max_examples=30, deadline=None)
    @given(
        scenarios(light_ticks=30),
        st.sampled_from([(), (BEACON,)]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1, 2]),
    )
    # a search whose switch-only and beacon-only bodies meet the same levels
    @example(small_scenario(episode_ticks=15), (BEACON,), 16, 1)
    def test_search_equals_cache_free_search(self, scenario, extra, seed, jobs):
        # the exhaustive search runs every body, the beacon's among them
        scenario = replace(scenario, devices=device_template() + extra)
        for exhaustive in (False, True):
            search = dict(generations=16, lam=3, jobs=jobs, exhaustive=exhaustive)
            cached = run_search(scenario, seed % 1000, **search)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "run_episode", without_cache)
                plain = run_search(scenario, seed % 1000, **search)
            assert repr(cached.history) == repr(plain.history)
            assert [r.to_csv() for r in cached.metrics] == [r.to_csv() for r in plain.metrics]
            assert repr(cached.best_record) == repr(plain.best_record)
            assert cached.best == plain.best

    def test_bound_holds_and_threads_agree(self):
        # 4 lights have 81 lamp levels a tick, more than the bound, so the
        # search empties some tick's dict; after every call no tick holds more
        scenario = small_scenario(n_lights=4, episode_ticks=10)
        policy = SearchPolicy(budget=2000)
        held, cleared = [], []

        def spy(*args, cache, **kwargs):
            before = {id(rows): len(rows) for scope in cache.values() for rows in scope[1]}
            result = run_episode(*args, cache=cache, **kwargs)
            rows = [rows for scope in cache.values() for rows in scope[1]]
            held.append(max(map(len, rows)))
            cleared.extend(len(r) < before.get(id(r), 0) for r in rows)
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "run_episode", spy)
            serial = run_search(scenario, seed=2, generations=300, lam=4, policy=policy)
        assert len(held) == len(serial.history) == 1 + 300 * 4 - 4
        assert max(held) == evaluation.TICK_ROWS and any(cleared)
        threaded = run_search(scenario, seed=2, generations=300, lam=4, policy=policy, jobs=4)
        assert repr(threaded.history) == repr(serial.history)
        assert [r.to_csv() for r in threaded.metrics] == [r.to_csv() for r in serial.metrics]
        assert repr(threaded.best_record) == repr(serial.best_record)
        assert threaded.best == serial.best

    def test_switch_and_beacon_bodies_get_two_scopes(self):
        # as many driven outputs, not the same ones: each light's switch
        # drives its own lamp, and every light's beacon light 0's
        scenario = small_scenario(n_lights=3, devices=device_template() + (BEACON,))
        switch = random_genotype(scenario, random.Random(1), light_switch=True, beacon=False)
        beacon = random_genotype(scenario, random.Random(1), light_switch=False, beacon=True)
        cache = {}
        for genotype in (switch, beacon):
            run_episode(scenario, genotype, 16, cache=cache)
        assert list(cache) == [(16, ("light_switch",)), (16, ("beacon",))]
        assert [len(scores) for scores, _ in cache.values()] == [1, 1]

    @pytest.mark.parametrize(
        "generations, budget, exhaustive",
        [(1, 200, False), (2, 1, False), (2, 200, False), (1, 200, True)],
    )
    def test_every_search_passes_one_cache_and_returns_it(self, generations, budget, exhaustive):
        # one-episode searches included: a traced re-run of the best genotype
        # reads the rows its search stored
        seen = []

        def spy(*args, cache, **kwargs):
            seen.append(cache)
            return run_episode(*args, cache=cache, **kwargs)

        policy = SearchPolicy(budget=budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "run_episode", spy)
            result = run_search(
                small_scenario(), 4, generations, policy=policy, exhaustive=exhaustive
            )
        assert seen and all(cache is result.cache for cache in seen)
        assert isinstance(result.cache, dict) and result.cache

    @settings(max_examples=30, deadline=None)
    @given(scenarios(light_ticks=30), st.integers(min_value=0, max_value=2**32 - 1))
    def test_traced_episode_with_a_search_cache_equals_one_without(self, scenario, seed):
        # differential: the best genotype, and a genotype with both comm
        # devices, traced with the search's cache and without any: the same
        # text of trace.log and episode.csv and the same record.  Where the
        # search made the speaker genotype's scope, its first traced call
        # stores the rows it misses there, and its second reads them
        seed %= 1000
        result = run_search(scenario, seed, generations=6, lam=3)
        speaker = random_genotype(scenario, random.Random(seed), light_switch=True)
        for genotype in (result.best, speaker, speaker):
            plain, plain_sinks = run_episode(scenario, genotype, seed, 2, traced())
            record, sinks = run_episode(scenario, genotype, seed, 2, traced(), result.cache)
            assert repr(record) == repr(plain)
            for name in ("events", "table"):
                text, expected = getattr(sinks, name).getvalue(), getattr(plain_sinks, name)
                assert text.splitlines(True) == expected.getvalue().splitlines(True)
