import io
import math
import random
import struct
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agentchart.controller import Connection, ControllerTopology, Neuron
from agentchart.environment import COMM_CHANNEL, EpisodeTrace
from agentchart.errors import InvalidParams
from agentchart.evaluation import Genotype, run_episode
from agentchart.streetlight import (
    DAY,
    LEVELS,
    NIGHT,
    AmbientProfile,
    PeopleProcess,
    StreetLightScenario,
    StreetlightRules,
    device_template,
    streetlight_score,
)

from conftest import read_csv, reference_score, scenarios

SCORED = ("energy", "people_flow", "brightness")


def scored_names(n_lights):
    """The scored variables of ``n_lights`` lights, light by light."""
    return tuple(f"{name}_{i}" for i in range(n_lights) for name in SCORED)


def synthetic_trace(n_lights, ticks, context, energy=0.0, flow=0.0, brightness=1.0):
    """``streetlight_score``'s names, rows and contexts of ``ticks`` equal ticks."""
    row = [energy, flow, brightness] * n_lights
    return scored_names(n_lights), [list(row) for _ in range(ticks)], [context] * ticks


def column(scenario, genotype, name):
    """One variable's value at every tick of a traced episode, read from
    the episode.csv text it writes."""
    table = io.StringIO()
    run_episode(scenario, genotype, seed=0, trace=EpisodeTrace(io.StringIO(), table))
    names, rows, _ = read_csv(table.getvalue())
    k = names.index(name)
    return [row[k] for row in rows]


def dark_scenario(**overrides):
    params = dict(
        n_lights=2,
        episode_ticks=5,
        ambient=AmbientProfile(kind="constant", value=0.0),
        people=PeopleProcess(kind="none"),
    )
    params.update(overrides)
    return StreetLightScenario(**params)


class TestDevices:
    def test_template_has_three_inputs_two_outputs(self):
        devices = device_template()
        assert [d.id for d in devices if d.direction == "input"] == [
            "lighting_sensor", "motion_sensor", "wireless_in"
        ]
        assert [d.id for d in devices if d.direction == "output"] == [
            "wireless_speaker", "light_switch"
        ]
        switch = next(d for d in devices if d.id == "light_switch")
        assert switch.output_levels == ("OFF", "DIM", "ON")

    def test_body_for_resolves_per_light_channels(self):
        scenario = dark_scenario(n_lights=3)
        body = scenario.body_for(2, {"lighting_sensor": True, "light_switch": True})
        channels = {d.id: d.channel for d in body.devices}
        assert channels["lighting_sensor"] == "brightness_2"
        assert channels["light_switch"] == "light_2"

    def test_minimal_sensor_switch_body_is_operable(self):
        scenario = dark_scenario()
        body = scenario.body_for(0, {"lighting_sensor": True, "light_switch": True})
        assert body.is_operable()

    def test_neighbor_map_is_a_line(self):
        scenario = dark_scenario(n_lights=4)
        nm = scenario.neighbor_map()
        assert nm["light_0"] == ["light_1"]
        assert nm["light_1"] == ["light_0", "light_2"]
        assert nm["light_3"] == ["light_2"]

    def test_neighbor_radius_two(self):
        scenario = dark_scenario(n_lights=4, neighbor_radius=2)
        assert scenario.neighbor_map()["light_0"] == ["light_1", "light_2"]

    def test_comm_links_are_the_spillover_windows(self):
        scenario = dark_scenario(n_lights=5, neighbor_radius=2)
        windows = scenario.neighbor_windows()
        assert windows == [(1, 2), (0, 2, 3), (0, 1, 3, 4), (1, 2, 4), (2, 3)]
        env = scenario.build_env(0, {})
        ids = scenario.agent_ids()
        assert env.neighbors == {ids[i]: [ids[j] for j in w] for i, w in enumerate(windows)}


class TestValidation:
    def test_zero_lights_rejected(self):
        with pytest.raises(InvalidParams):
            StreetLightScenario(n_lights=0)

    def test_dim_brighter_than_on_rejected(self):
        with pytest.raises(InvalidParams):
            StreetLightScenario(
                n_lights=1, light_contribution={"OFF": 0.0, "DIM": 0.9, "ON": 0.7}
            )


class TestProfiles:
    def test_cosine_ambient_peaks_then_dips(self):
        ambient = AmbientProfile(kind="cosine", period=10)
        assert ambient(0, 100) == 1.0
        assert ambient(5, 100) == pytest.approx(0.0, abs=1e-12)
        assert ambient(10, 100) == pytest.approx(1.0, abs=1e-12)

    def test_constant_ambient(self):
        ambient = AmbientProfile(kind="constant", value=0.25)
        assert ambient(0, 100) == ambient(99, 100) == 0.25

    def test_people_none_is_all_zero(self):
        flows = PeopleProcess(kind="none").sample(0, 10, 3)
        assert flows.shape == (11, 3)
        assert not flows.any()

    def test_people_random_seeded_and_bounded(self):
        proc = PeopleProcess(kind="random", rate=0.5)
        a = proc.sample(7, 20, 2)
        b = proc.sample(7, 20, 2)
        assert np.array_equal(a, b)
        assert ((a >= 0.0) & (a < 1.0)).all()
        assert a.any()  # rate 0.5 over 42 draws should hit at least once


class TestScore:
    def test_all_off_nobody_around_scores_zero(self):
        trace = synthetic_trace(3, 5, NIGHT, energy=0.0, flow=0.0)
        assert streetlight_score(*trace, StreetlightRules(), 3)[0] == 0.0

    def test_all_on_at_night_costs_n_times_ticks(self):
        # w_energy[night] = 1, each light draws 1 per tick
        n, ticks = 4, 6
        trace = synthetic_trace(n, ticks, NIGHT, energy=1.0, flow=0.0)
        assert streetlight_score(*trace, StreetlightRules(), n)[0] == n * ticks

    def test_darkness_under_people_penalised(self):
        # deficit per light per tick: 1.0 * (0.6 - 0.1) weighted by 2 at night
        n, ticks = 2, 3
        trace = synthetic_trace(n, ticks, NIGHT, flow=1.0, brightness=0.1)
        score = streetlight_score(*trace, StreetlightRules(), n)[0]
        assert score == pytest.approx(2.0 * 0.5 * n * ticks, abs=1e-12)

    def test_bright_enough_means_no_deficit(self):
        trace = synthetic_trace(1, 4, NIGHT, flow=1.0, brightness=0.6)
        assert streetlight_score(*trace, StreetlightRules(), 1)[0] == 0.0

    def test_energy_costs_double_during_the_day(self):
        rules = StreetlightRules()
        day = streetlight_score(*synthetic_trace(1, 1, DAY, energy=1.0), rules, 1)[0]
        night = streetlight_score(*synthetic_trace(1, 1, NIGHT, energy=1.0), rules, 1)[0]
        assert day == 2.0 * night

    def test_sums_add_left_to_right_on_every_python(self):
        # sum() gives 1.0 for this triple from Python 3.12 (compensated) and
        # 0.0 before; the energy, the deficit and the total each fold it to 0.0
        triple = (1e16, 1.0, -1e16)
        unit = {c: 1.0 for c in ("a", "b", "c")}
        rules = StreetlightRules(w_energy=unit, w_dark=unit, target_brightness=1.0)

        def row(**columns):
            return [columns.get(name, (0.0,) * 3)[i] for i in range(3) for name in SCORED]

        def trace(contexts, rows):
            return scored_names(3), rows, list(contexts)

        energy = trace("a", [row(energy=triple, brightness=(1.0,) * 3)])
        deficit = trace("a", [row(people_flow=triple)])
        assert streetlight_score(*energy, rules, 3) == (0.0, {"a": 0.0})
        assert streetlight_score(*deficit, rules, 3) == (0.0, {"a": 0.0})
        # one context per term: the total adds the breakdown's three values
        total = trace("abc", [row(energy=(e, 0.0, 0.0), brightness=(1.0,) * 3) for e in triple])
        assert streetlight_score(*total, rules, 3)[0] == 0.0


class TestEnvironmentWiring:
    def build(self, scenario, selection):
        bodies = {
            aid: scenario.body_for(i, selection)
            for i, aid in enumerate(scenario.agent_ids())
        }
        env = scenario.build_env(seed=0, bodies=bodies)
        return env, bodies

    def test_brightness_superposition_with_spillover(self):
        scenario = dark_scenario(n_lights=3, spillover=0.5)
        env, _ = self.build(scenario, {"lighting_sensor": True, "light_switch": True})
        env.step([("light_1", {"light_switch": "ON"})])
        snap = env.values
        assert snap["brightness_1"] == pytest.approx(0.7)
        assert snap["brightness_0"] == pytest.approx(0.5 * 0.7)
        assert snap["brightness_2"] == pytest.approx(0.5 * 0.7)
        assert snap["energy_1"] == 1.0
        assert snap["energy_0"] == 0.0

    def test_brightness_saturates_at_one(self):
        scenario = dark_scenario(
            n_lights=2, ambient=AmbientProfile(kind="constant", value=0.8)
        )
        env, _ = self.build(scenario, {"lighting_sensor": True, "light_switch": True})
        env.step(
            [("light_0", {"light_switch": "ON"}), ("light_1", {"light_switch": "ON"})]
        )
        assert env.values["brightness_0"] == 1.0

    @pytest.mark.parametrize("radius", [1, 2])
    def test_step_matches_per_light_oracle(self, radius):
        # a constant 0.3 ambient saturates a light switched ON (0.7) with a lit
        # neighbour and leaves dimmer ones unclamped, where the neighbour sum's
        # rounding shows; None means the light sent nothing this tick
        scenario = StreetLightScenario(
            n_lights=6,
            episode_ticks=12,
            ambient=AmbientProfile(kind="constant", value=0.3),
            people=PeopleProcess(rate=0.5),
            neighbor_radius=radius,
            spillover=0.5,
        )
        env, _ = self.build(scenario, {"lighting_sensor": True, "light_switch": True})
        flows = scenario.people.sample(0, scenario.episode_ticks, scenario.n_lights)
        contribution = scenario.light_contribution
        n = scenario.n_lights

        def oracle(t, levels):
            own = [contribution[level] if level else 0.0 for level in levels]
            values = {"daylight": 0.3}
            for i in range(n):
                spilled = sum(own[j] for j in range(n) if j != i and abs(j - i) <= radius)
                values[f"light_{i}"] = own[i]
                values[f"brightness_{i}"] = min(1.0, 0.3 + own[i] + scenario.spillover * spilled)
                values[f"people_flow_{i}"] = float(flows[t, i])
                values[f"energy_{i}"] = scenario.rules.energy_of(levels[i]) if levels[i] else 0.0
            return values

        assert list(env.values.items()) == list(oracle(0, [None] * n).items())
        rng = np.random.default_rng(11)
        saturated = 0
        for t in range(1, scenario.episode_ticks + 1):
            levels = [((None,) + LEVELS)[k] for k in rng.integers(4, size=n)]
            env.step(
                [(f"light_{i}", {"light_switch": level}) for i, level in enumerate(levels) if level]
            )
            expected = oracle(t, levels)
            # exact equality, in the order trace.log writes its perturbed lines
            assert list(env.values.items()) == list(expected.items())
            saturated += sum(expected[f"brightness_{i}"] == 1.0 for i in range(n))
        assert 0 < saturated < n * scenario.episode_ticks

    def test_constant_darkness_selects_night_context(self):
        scenario = dark_scenario()
        env, _ = self.build(scenario, {"lighting_sensor": True, "light_switch": True})
        assert env.context == NIGHT

    @pytest.mark.parametrize("daylight,context", [(0.5, DAY), (0.4999, NIGHT), (1.0, DAY)])
    def test_context_reads_the_daylight_column(self, daylight, context):
        # day from the dusk threshold up, whatever the lights add
        scenario = dark_scenario(ambient=AmbientProfile(kind="constant", value=daylight))
        env, _ = self.build(scenario, {"lighting_sensor": True, "light_switch": True})
        assert env.names[0] == "daylight" and env.row[0] == daylight
        assert env.context == context
        env.step([("light_0", {"light_switch": "ON"}), ("light_1", {"light_switch": "ON"})])
        assert env.context == context

    def test_enabling_motion_sensor_enlarges_percept(self):
        scenario = dark_scenario()
        env, _ = self.build(
            scenario,
            {"lighting_sensor": True, "motion_sensor": True, "light_switch": True},
        )
        percept = env.perceive("light_0")
        assert set(percept) == {"lighting_sensor", "motion_sensor"}


def comm_genotype(speaker_enabled):
    selection = {
        "lighting_sensor": False,
        "motion_sensor": False,
        "wireless_in": True,
        "wireless_speaker": speaker_enabled,
        "light_switch": True,
    }
    neurons = [Neuron("wireless_in", "input"), Neuron("light_switch", "output")]
    if speaker_enabled:
        neurons.insert(1, Neuron("wireless_speaker", "output"))
    connections = (Connection("c0", "wireless_in", "light_switch", 20.0),)
    return Genotype(selection, ControllerTopology(tuple(neurons), connections))


class TestCommunication:
    def test_broadcast_escalates_neighbours_to_on(self):
        # the speaker has no incoming edges, so it broadcasts sigmoid(0)
        # = 0.5 every tick; from tick 1 on wireless_in hears 0.5 and the
        # switch input becomes 20 * 0.5, driving the light to ON
        scenario = dark_scenario(n_lights=2, episode_ticks=4)
        energies = column(scenario, comm_genotype(True), "energy_0")
        assert energies[0] == 0.5  # tick 0: empty mailbox, sigmoid(0) -> DIM
        assert energies[1:] == [1.0, 1.0, 1.0]

    def test_disabled_speaker_silences_the_network(self):
        scenario = dark_scenario(n_lights=2, episode_ticks=4)
        energies = column(scenario, comm_genotype(False), "energy_0")
        assert energies == [0.5] * 4  # mailbox stays empty, switch stays DIM


class TestClosedForms:
    def test_permanent_day_all_off_is_optimal_zero(self):
        # with daylight pinned at 1.0 the brightness target is always met,
        # so a controller that never lights up pays nothing
        scenario = dark_scenario(
            n_lights=2,
            ambient=AmbientProfile(kind="constant", value=1.0),
            people=PeopleProcess(kind="random", rate=0.8),
        )
        selection = {
            "lighting_sensor": True,
            "motion_sensor": False,
            "wireless_in": False,
            "wireless_speaker": False,
            "light_switch": True,
        }
        topology = ControllerTopology(
            (Neuron("lighting_sensor", "input"), Neuron("light_switch", "output")),
            (Connection("c0", "lighting_sensor", "light_switch", -50.0),),
        )
        record, _ = run_episode(scenario, Genotype(selection, topology), seed=0)
        assert record.score == 0.0

    def test_score_is_finite_for_operable_random_search_output(self):
        from agentchart.evaluation import run_search

        result = run_search(dark_scenario(), seed=0, generations=1)
        assert math.isfinite(result.best_record.score)


def bits(items):
    """Keys in order with each value's exact bits, so -0.0 and 0.0 differ."""
    return [(k, struct.pack("<d", v)) for k, v in items]


def reference_update(scenario, seed):
    """The update function as it was before the per-episode tables: every
    tick recomputes the neighbour windows and fills the values dict one key
    at a time."""
    flows = scenario.people.sample(seed, scenario.episode_ticks, scenario.n_lights).tolist()
    ambient = scenario.ambient
    ticks = scenario.episode_ticks
    contribution = dict(scenario.light_contribution)
    energy_of = {level: scenario.rules.energy_of(level) for level in LEVELS}
    spill = scenario.spillover
    radius = scenario.neighbor_radius
    n = scenario.n_lights
    names = [
        (f"light_{i}", f"brightness_{i}", f"people_flow_{i}", f"energy_{i}") for i in range(n)
    ]

    def update(t, previous, effects):
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
            spilled = 0.0
            for j in range(max(0, i - radius), min(n, i + radius + 1)):
                if j != i:
                    spilled += light[j]
            values[light_name] = light[i]
            values[brightness_name] = min(1.0, daylight + light[i] + spill * spilled)
            values[flow_name] = flow[i]
            values[energy_name] = energy[i]
        return values

    return update


class TestAgainstReferenceForms:
    @settings(max_examples=60, deadline=None)
    @given(scenarios(), st.integers(0, 2**32 - 1))
    def test_update_matches_reference_bit_for_bit(self, scenario, seed):
        # the row, mapped through the environment's names, against the dict
        env = scenario.build_env(seed, {})
        update = env.update
        reference = reference_update(scenario, seed)
        rng = random.Random(seed)
        for t in range(scenario.episode_ticks + 3):
            # each light sent 0, 1 or 2 switch levels; an idle light may be absent
            effects = {COMM_CHANNEL: [("light_0", 0.5)]}
            for i in range(scenario.n_lights):
                levels = rng.choices(LEVELS, k=rng.randrange(3))
                if levels or rng.random() < 0.5:
                    effects[f"light_{i}"] = [(f"light_{i}", level) for level in levels]
            effects = MappingProxyType(effects)
            row = update(t, [], effects)
            assert bits(zip(env.names, row)) == bits(reference(t, {}, effects).items())

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8),
        st.sampled_from([0.0, -0.0, 0.25, 0.6, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_score_matches_reference_bit_for_bit(self, n, target, seed):
        # brightness at the target gives a gap of exactly 0, above it a negative
        # gap, and 0.0 under a target of -0.0 a gap of -0.0
        rng = random.Random(seed)
        rules = StreetlightRules(
            w_energy={DAY: rng.uniform(0, 4), NIGHT: rng.uniform(0, 4)},
            w_dark={DAY: rng.uniform(0, 4), NIGHT: rng.uniform(0, 4)},
            target_brightness=target,
        )

        def value():
            if rng.random() < 0.3:
                return rng.choice([0.0, -0.0, target, 1.0])
            return rng.uniform(-0.5, 1.5)

        ticks = []
        for t in range(rng.randrange(7)):
            variables = {name: value() for name in scored_names(n)}
            ticks.append((t + 1, variables, rng.choice([DAY, NIGHT])))
        # the columns in a random order, resolved through the names
        names = tuple(rng.sample(scored_names(n), 3 * n))
        rows = [[variables[name] for name in names] for _, variables, _ in ticks]
        contexts = [context for _, _, context in ticks]
        got, got_breakdown = streetlight_score(names, rows, contexts, rules, n)
        score, breakdown = reference_score(ticks, rules, n)
        assert bits([("score", got)]) == bits([("score", score)])
        assert bits(got_breakdown.items()) == bits(breakdown.items())


# what agents may send: any sender, and values of any kind, levels included
messages = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(["light_0", "light_1", "env"]), st.text()),
        st.one_of(
            st.floats(allow_nan=True),
            st.integers(),
            st.sampled_from(LEVELS),
            st.text(),
            st.none(),
        ),
    ),
    max_size=8,
)


class TestUpdateContract:
    @settings(max_examples=60, deadline=None)
    @given(scenarios(), st.integers(0, 2**32 - 1), messages)
    def test_update_never_reads_the_comm_channel(self, scenario, seed, sent):
        # a search keys every lampless genotype by its seed alone, which holds
        # only if what agents send on the comm channel never reaches a row
        env = scenario.build_env(seed, {})
        rng = random.Random(seed)
        previous = env.row
        for t in range(1, scenario.episode_ticks + 2):
            effects = {}
            for i in range(scenario.n_lights):
                if rng.random() < 0.5:
                    effects[f"light_{i}"] = [(f"light_{i}", rng.choice(LEVELS))]
            row = env.update(t, previous, MappingProxyType(effects))
            with_comm = env.update(t, previous, MappingProxyType({**effects, COMM_CHANNEL: sent}))
            assert repr(with_comm) == repr(row)
            previous = row
