import io
import math
import random
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agentchart import evaluation, statechart
from agentchart.body import configure_body, derive_controller
from agentchart.controller import HIDDEN, OUTPUT, Connection, ControllerTopology, Neuron
from agentchart.environment import Environment, EpisodeTrace
from agentchart.errors import BehaviorNotConfigured, NonFiniteVariable
from agentchart.evaluation import (
    ADJUST,
    RECONFIGURE,
    EvaluationRecord,
    Genotype,
    SearchPolicy,
    all_selections,
    decide,
    genotype_digest,
    initial_genotype,
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

from conftest import read_csv, reference_csv, reference_episode, scenarios


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


class TestScoreMemo:
    """``run_episode``'s ``scores=``: a search's memo of the operable
    genotypes it has run, keyed by seed, selection and topology, or by the
    seed alone for a lampless genotype, whose outputs all drive the comm
    channel."""

    def setup_method(self):
        self.scenario = small_scenario(n_lights=3, episode_ticks=12)
        self.genotype = random_genotype(self.scenario, random.Random(5))

    def test_hit_keeps_the_callers_episode_index(self):
        scores = {}
        first, first_trace = run_episode(self.scenario, self.genotype, 1, 3, scores=scores)
        assert len(scores) == 1
        hit, hit_trace = run_episode(self.scenario, self.genotype, 1, 8, scores=scores)
        assert hit == replace(first, episode=8)
        # an untraced episode keeps no rows, whether it ran or was a hit
        assert first_trace == hit_trace == EpisodeTrace()
        assert len(scores) == 1

    def test_mutating_a_breakdown_does_not_change_a_later_hit(self):
        scores = {}
        miss, _ = run_episode(self.scenario, self.genotype, 1, scores=scores)
        expected = dict(miss.breakdown)
        miss.breakdown.clear()
        hit, _ = run_episode(self.scenario, self.genotype, 1, scores=scores)
        assert hit.breakdown == expected
        hit.breakdown["day"] = -1.0
        again, _ = run_episode(self.scenario, self.genotype, 1, scores=scores)
        assert again.breakdown == expected

    def test_traced_call_neither_reads_nor_stores(self):
        plain, _ = run_episode(self.scenario, self.genotype, 1)
        scores = {}
        run_episode(self.scenario, self.genotype, 1, trace=traced(), scores=scores)
        assert scores == {}
        # a planted entry for the same key is not read by a traced call
        run_episode(self.scenario, self.genotype, 1, scores=scores)
        (key,) = scores
        scores[key] = (-1.0, {})
        record, trace = run_episode(self.scenario, self.genotype, 1, trace=traced(), scores=scores)
        assert record == plain and trace.table.getvalue().count("\n") == 1 + 12
        assert scores == {key: (-1.0, {})}
        # while an untraced call reads it
        assert run_episode(self.scenario, self.genotype, 1, scores=scores)[0].score == -1.0

    def test_another_seed_misses(self):
        scores = {}
        run_episode(self.scenario, self.genotype, 1, scores=scores)
        other, trace = run_episode(self.scenario, self.genotype, 2, scores=scores)
        # it ran and stored a second entry, and kept no rows
        assert trace == EpisodeTrace() and len(scores) == 2
        assert other == run_episode(self.scenario, self.genotype, 2)[0]

    def test_inoperable_genotype_is_never_stored(self):
        dead = Genotype({d.id: False for d in self.scenario.devices}, self.genotype.topology)
        scores = {}
        for episode in range(2):
            record, _ = run_episode(self.scenario, dead, 1, episode, scores=scores)
            assert record == EvaluationRecord(episode, math.inf, {})
        assert scores == {}

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
        scores = {}
        run_episode(self.scenario, first, 1, 3, scores=scores)
        assert len(scores) == 1

        def no_build_env(*args):
            raise AssertionError("a hit builds no environment")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StreetLightScenario, "build_env", no_build_env)
            hit, trace = run_episode(self.scenario, second, 1, 8, scores=scores)
        assert len(scores) == 1 and trace == EpisodeTrace()
        # with this call's episode index, 8
        assert repr(hit) == repr(run_episode(self.scenario, second, 1, 8)[0])

    def test_lampless_controller_must_mirror_the_body_on_a_hit(self):
        lampless = random_genotype(self.scenario, random.Random(1), light_switch=False)
        scores = {}
        run_episode(self.scenario, lampless, 1, scores=scores)
        assert list(scores) == [(1,)]
        # the same body without the speaker's output neuron
        topology = lampless.topology
        neurons = tuple(n for n in topology.neurons if n.id != "wireless_speaker")
        broken = replace(lampless, topology=replace(topology, neurons=neurons))
        with pytest.raises(BehaviorNotConfigured):
            run_episode(self.scenario, broken, 1, scores=scores)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lampless_episode_scores_the_idle_environment(self, seed):
        # the oracle the seed-only key rests on, run without the memo: agents
        # that only talk leave the environment as if nobody acted
        scenario = small_scenario(n_lights=4, episode_ticks=15)
        genotype = random_genotype(scenario, random.Random(seed), light_switch=False)
        record, _ = run_episode(scenario, genotype, seed % 1000)
        env = scenario.build_env(seed % 1000, {})
        rows, contexts = [], []
        for _ in range(scenario.episode_ticks):
            env.step([])
            rows.append(env.row)
            contexts.append(env.context)
        idle = streetlight_score(env.names, rows, contexts, scenario.rules, scenario.n_lights)
        assert repr((record.score, record.breakdown)) == repr(idle)


def memo_free_episodes(scenario, seed, jobs, generations, lam):
    """Differential: every history entry of a search, re-run by a plain
    run_episode without the memo, gives the same episode, score and
    breakdown, and the kernel ran the first lampless genotype only, or one
    per thread when the first ones raced.  Returns the counts of operable
    and lampless entries, of episodes the search built and of lampless ones
    among them."""
    built, candidates = [], []
    build_env = StreetLightScenario.build_env

    def counting_build_env(self, *args, **kwargs):
        built.append(args)
        return build_env(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StreetLightScenario, "build_env", counting_build_env)
        result = run_search(
            scenario,
            seed=seed,
            generations=generations,
            lam=lam,
            jobs=jobs,
            on_generation=lambda g, kind, incumbent, cands: candidates.extend(cands),
        )
    genotypes = [initial_genotype(scenario, seed)] + candidates
    assert len(genotypes) == len(result.history)
    operable = lampless = 0
    for k, (genotype, record) in enumerate(zip(genotypes, result.history)):
        expected, _ = run_episode(scenario, genotype, seed, episode=k)
        assert (record.episode, record.score, record.breakdown) == (
            expected.episode,
            expected.score,
            expected.breakdown,
        )
        operable += math.isfinite(expected.score)
        lampless += math.isfinite(expected.score) and not genotype.selection["light_switch"]
    ran = sum(not bodies["light_0"].enabled["light_switch"] for _, bodies in built)
    assert ran <= min(lampless, jobs)
    return operable, lampless, len(built), ran


def random_genotype(scenario, rng: random.Random, **fixed: bool) -> Genotype:
    """Both comm devices, the devices ``fixed`` sets as it says, and a random
    rest of the body; the derived controller plus hidden neurons, a
    self-loop and random edges (cycles among them), with about one edge in
    five disabled."""
    devices = list(scenario.devices)
    selection = {d.id: rng.random() < 0.5 for d in devices}
    selection.update({"wireless_in": True, "wireless_speaker": True, **fixed})
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memo_equals_memo_free_episodes(self, jobs):
        # the seeds are ones whose RECONFIGURE generations repeat genotypes,
        # so the memo is hit, and seeds 11 and 6 meet lampless genotypes (76
        # and 44 of them), seed 6's all distinct
        lampless_met = lampless_served = 0
        for seed in (4, 11, 6):
            operable, lampless, built, ran = memo_free_episodes(small_scenario(), seed, jobs, 30, 4)
            # fewer episodes were built than operable entries: the memo was hit
            assert built < operable
            lampless_met += lampless
            lampless_served += lampless - ran
        assert lampless_met >= 2 and lampless_served >= 1

    @settings(max_examples=20, deadline=None)
    @given(
        scenarios(light_ticks=20),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1, 2]),
    )
    def test_memo_equals_memo_free_episodes_on_drawn_scenarios(self, scenario, seed, jobs):
        memo_free_episodes(scenario, seed, jobs, 10, 3)

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
