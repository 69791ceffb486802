import math

import numpy as np
import pytest

from agentchart.controller import Connection, ControllerTopology, Neuron
from agentchart.environment import EpisodeTrace, TickSnapshot
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


def synthetic_trace(n_lights, ticks, context, energy=0.0, flow=0.0, brightness=1.0):
    rows = []
    for t in range(1, ticks + 1):
        variables = {}
        for i in range(n_lights):
            variables[f"energy_{i}"] = energy
            variables[f"people_flow_{i}"] = flow
            variables[f"brightness_{i}"] = brightness
        rows.append(TickSnapshot(t, variables, context))
    return EpisodeTrace(rows)


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
        assert streetlight_score(trace, StreetlightRules(), 3).score == 0.0

    def test_all_on_at_night_costs_n_times_ticks(self):
        # w_energy[night] = 1, each light draws 1 per tick
        n, ticks = 4, 6
        trace = synthetic_trace(n, ticks, NIGHT, energy=1.0, flow=0.0)
        assert streetlight_score(trace, StreetlightRules(), n).score == n * ticks

    def test_darkness_under_people_penalised(self):
        # deficit per light per tick: 1.0 * (0.6 - 0.1) weighted by 2 at night
        n, ticks = 2, 3
        trace = synthetic_trace(n, ticks, NIGHT, flow=1.0, brightness=0.1)
        score = streetlight_score(trace, StreetlightRules(), n).score
        assert score == pytest.approx(2.0 * 0.5 * n * ticks, abs=1e-12)

    def test_bright_enough_means_no_deficit(self):
        trace = synthetic_trace(1, 4, NIGHT, flow=1.0, brightness=0.6)
        assert streetlight_score(trace, StreetlightRules(), 1).score == 0.0

    def test_energy_costs_double_during_the_day(self):
        rules = StreetlightRules()
        day = streetlight_score(synthetic_trace(1, 1, DAY, energy=1.0), rules, 1).score
        night = streetlight_score(synthetic_trace(1, 1, NIGHT, energy=1.0), rules, 1).score
        assert day == 2.0 * night


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
        _, trace = run_episode(scenario, comm_genotype(True), seed=0)
        energies = [s.variables["energy_0"] for s in trace.snapshots]
        assert energies[0] == 0.5  # tick 0: empty mailbox, sigmoid(0) -> DIM
        assert energies[1:] == [1.0, 1.0, 1.0]

    def test_disabled_speaker_silences_the_network(self):
        scenario = dark_scenario(n_lights=2, episode_ticks=4)
        _, trace = run_episode(scenario, comm_genotype(False), seed=0)
        energies = [s.variables["energy_0"] for s in trace.snapshots]
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
