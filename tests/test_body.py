import io
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agentchart import statechart as sc
from agentchart.body import (
    BEHAVIOR_CHART,
    BEHAVIOR_START,
    EV_ACT,
    EV_DECIDE,
    EV_SENSE,
    EV_TICK_DONE,
    P_PROC,
    Agent,
    DeviceSpec,
    compile_pass,
    configure_body,
    derive_controller,
    quantize,
    require_mirror,
    step_agent,
)
from agentchart.controller import Connection, ControllerTopology, Neuron
from agentchart.environment import EpisodeTrace
from agentchart.errors import (
    BehaviorNotConfigured,
    NonFiniteInput,
    PassNotReplayable,
    UnknownDevice,
)
from agentchart.evaluation import Genotype, all_selections, run_episode
from agentchart.statechart import Event, TraceEvent, dispatch
from agentchart.streetlight import (
    AmbientProfile,
    PeopleProcess,
    StreetLightScenario,
    device_template,
)

from conftest import reference_episode


def street_devices():
    return [
        DeviceSpec("lighting_sensor", "input", "brightness"),
        DeviceSpec("motion_sensor", "input", "people_flow"),
        DeviceSpec("wireless_in", "input", "comm"),
        DeviceSpec("wireless_speaker", "output", "comm"),
        DeviceSpec("light_switch", "output", "light", ("OFF", "DIM", "ON")),
    ]


class TestConfigureBody:
    def test_minimal_selection(self):
        body = configure_body(
            street_devices(), {"lighting_sensor": True, "light_switch": True}
        )
        assert [d.id for d in body.enabled_inputs] == ["lighting_sensor"]
        assert [d.id for d in body.enabled_outputs] == ["light_switch"]

    def test_empty_selection_defaults_disabled(self):
        body = configure_body(street_devices(), {})
        assert not any(body.enabled.values())

    def test_unknown_device_rejected(self):
        with pytest.raises(UnknownDevice):
            configure_body(street_devices(), {"submarine": True})


class TestDeriveController:
    def test_counts_follow_enabled_devices(self):
        body = configure_body(
            street_devices(),
            {"lighting_sensor": True, "motion_sensor": True, "light_switch": True},
        )
        topo = derive_controller(body, rng=np.random.default_rng(0))
        assert len(topo.ids("input")) == 2
        assert len(topo.ids("output")) == 1

    def test_all_disabled_gives_empty_topology(self):
        body = configure_body(street_devices(), {})
        topo = derive_controller(body, rng=np.random.default_rng(0))
        assert topo.neurons == () and topo.connections == ()

    def test_weight_preserved_for_surviving_pair(self):
        # oracle: rebuild the expected topology with plain set operations
        devices = street_devices()
        prior_body = configure_body(
            devices, {"lighting_sensor": True, "motion_sensor": True, "light_switch": True}
        )
        prior = ControllerTopology(
            (
                Neuron("lighting_sensor", "input"),
                Neuron("motion_sensor", "input"),
                Neuron("light_switch", "output"),
            ),
            (
                Connection("c0", "lighting_sensor", "light_switch", 0.8),
                Connection("c1", "motion_sensor", "light_switch", -0.2),
            ),
        )
        new_body = configure_body(
            devices, {"lighting_sensor": True, "motion_sensor": False, "light_switch": True}
        )
        topo = derive_controller(new_body, prior=prior, rng=np.random.default_rng(1))

        survivors = {d.id for d in new_body.enabled_inputs} | {
            d.id for d in new_body.enabled_outputs
        }
        expected_neurons = {n.id for n in prior.neurons if n.id in survivors}
        expected_edges = {
            (c.from_id, c.to_id): c.weight
            for c in prior.connections
            if c.from_id in survivors and c.to_id in survivors
        }
        assert {n.id for n in topo.neurons} == expected_neurons
        got_edges = {(c.from_id, c.to_id): c.weight for c in topo.connections}
        assert got_edges == expected_edges
        assert got_edges[("lighting_sensor", "light_switch")] == 0.8

    def test_prior_io_neurons_come_back_enabled(self):
        # a disabled io neuron of the prior once survived, and the derived
        # controller then failed require_mirror
        body = configure_body(street_devices(), {"lighting_sensor": True, "light_switch": True})
        prior = ControllerTopology(
            (
                Neuron("lighting_sensor", "input", enabled=False),
                Neuron("light_switch", "output", enabled=False, bias=0.7),
            ),
            (Connection("c0", "lighting_sensor", "light_switch", 0.8),),
        )
        topo = derive_controller(body, prior=prior, rng=np.random.default_rng(0))
        require_mirror(body, topo)
        assert {n.id: n.bias for n in topo.neurons} == {"lighting_sensor": 0.0, "light_switch": 0.7}
        assert topo.connections == prior.connections

    def test_prior_hidden_neuron_yields_to_a_device_id(self):
        # a prior hidden neuron named like an enabled sensor once survived
        # beside its input neuron, and the plan then never read the sensor
        body = configure_body(
            street_devices(),
            {"lighting_sensor": True, "motion_sensor": True, "light_switch": True},
        )
        prior = ControllerTopology((Neuron("motion_sensor", "hidden"), Neuron("h0", "hidden")))
        topo = derive_controller(body, prior=prior, rng=np.random.default_rng(0))
        require_mirror(body, topo)
        assert topo.ids() == ["lighting_sensor", "motion_sensor", "light_switch", "h0"]
        assert topo.eval_plan[0] == ("lighting_sensor", "motion_sensor")

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_neuron_counts_match_body_for_random_selections(self, seed):
        rng = random.Random(seed)
        devices = [
            DeviceSpec(f"d{k}", rng.choice(["input", "output"]), f"ch{k}")
            for k in range(rng.randint(1, 8))
        ]
        selection = {d.id: rng.random() < 0.5 for d in devices}
        body = configure_body(devices, selection)
        topo = derive_controller(body, rng=np.random.default_rng(seed))
        assert len(topo.ids("input")) == len(body.enabled_inputs)
        assert len(topo.ids("output")) == len(body.enabled_outputs)


class TestQuantizer:
    @pytest.mark.parametrize(
        "value,expected", [(0.10, "OFF"), (0.50, "DIM"), (0.90, "ON"), (0.0, "OFF"), (1.0, "ON")]
    )
    def test_three_level_thresholds(self, value, expected):
        assert quantize(value, ("OFF", "DIM", "ON")) == expected

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("levels", [("OFF", "DIM", "ON"), ()])
    def test_non_finite_value_raises_non_finite_input(self, value, levels):
        # int(+-inf) raises OverflowError and int(nan) ValueError; both, and
        # a continuous output's non-finite value, become NonFiniteInput
        with pytest.raises(NonFiniteInput, match="output value is not finite"):
            quantize(value, levels)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=6),
    )
    def test_monotone(self, a, b, n_levels):
        levels = tuple(str(k) for k in range(n_levels))
        lo, hi = sorted((a, b))
        assert int(quantize(lo, levels)) <= int(quantize(hi, levels))


def make_agent(selection, weights=None):
    body = configure_body(street_devices(), selection)
    input_ids = [d.id for d in body.enabled_inputs]
    output_ids = [d.id for d in body.enabled_outputs]
    neurons = tuple(
        [Neuron(i, "input") for i in input_ids] + [Neuron(o, "output") for o in output_ids]
    )
    connections = tuple(
        Connection(f"c{k}", frm, to, w) for k, (frm, to, w) in enumerate(weights or [])
    )
    return Agent("a0", body, ControllerTopology(neurons, connections))


def parse_trace(text):
    """trace.log's ``text`` as TraceEvents; every line ends in a newline and
    has exactly four tabs."""
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert all(line.count("\t") == 4 for line in lines)
    return [TraceEvent(int(tick), *rest) for tick, *rest in (line.split("\t") for line in lines)]


def traced_light(selection, weights=None, ticks=1):
    """trace.log of one street light run for ``ticks`` ticks under
    ``make_agent``'s controller, in constant daylight with nobody about."""
    scenario = StreetLightScenario(
        n_lights=1,
        episode_ticks=ticks,
        ambient=AmbientProfile(kind="constant", value=0.5),
        people=PeopleProcess(kind="none"),
    )
    genotype = Genotype(selection, make_agent(selection, weights).controller)
    sinks = EpisodeTrace(io.StringIO(), io.StringIO())
    run_episode(scenario, genotype, seed=0, trace=sinks)
    return parse_trace(sinks.events.getvalue())


class TestStepAgent:
    def test_low_output_selects_off(self):
        # sigmoid(-2.5) ~ 0.076 < 1/3
        agent = make_agent(
            {"lighting_sensor": True, "light_switch": True},
            [("lighting_sensor", "light_switch", -2.5)],
        )
        actions = step_agent(agent, {"lighting_sensor": 1.0})
        assert actions == {"light_switch": "OFF"}

    def test_neutral_output_selects_dim(self):
        agent = make_agent({"lighting_sensor": True, "light_switch": True})
        actions = step_agent(agent, {"lighting_sensor": 0.5})
        assert actions == {"light_switch": "DIM"}  # sigmoid(0) = 0.5

    def test_high_output_selects_on(self):
        agent = make_agent(
            {"lighting_sensor": True, "light_switch": True},
            [("lighting_sensor", "light_switch", 3.0)],
        )
        actions = step_agent(agent, {"lighting_sensor": 1.0})
        assert actions == {"light_switch": "ON"}  # sigmoid(3) ~ 0.95

    def test_comm_output_is_continuous_broadcast(self):
        agent = make_agent({"lighting_sensor": True, "wireless_speaker": True})
        actions = step_agent(agent, {"lighting_sensor": 0.2})
        assert set(actions) == {"wireless_speaker"}
        assert actions["wireless_speaker"] == 0.5  # raw neuron value, no quantizing

    def test_percept_for_disabled_sensor_rejected(self):
        agent = make_agent({"lighting_sensor": True, "light_switch": True})
        with pytest.raises(BehaviorNotConfigured):
            step_agent(agent, {"lighting_sensor": 0.1, "motion_sensor": 0.4})

    def test_missing_percept_rejected(self):
        agent = make_agent(
            {"lighting_sensor": True, "motion_sensor": True, "light_switch": True}
        )
        with pytest.raises(BehaviorNotConfigured):
            step_agent(agent, {"lighting_sensor": 0.1})

    def test_no_enabled_output_rejected(self):
        agent = make_agent({"lighting_sensor": True})
        with pytest.raises(BehaviorNotConfigured):
            step_agent(agent, {"lighting_sensor": 0.1})

    def test_actions_never_name_disabled_outputs(self):
        agent = make_agent({"lighting_sensor": True, "light_switch": True})
        actions = step_agent(agent, {"lighting_sensor": 0.5})
        assert "wireless_speaker" not in actions

    # the pass lines of an agent's step are written by a traced episode
    def test_perception_substate_entered_first(self):
        trace = traced_light({"lighting_sensor": True, "light_switch": True})
        first_entered = next(t for t in trace if t.kind == "entered")
        assert first_entered.subject == "processing_inputs"

    def test_chart_configuration_returns_to_start_each_tick(self):
        # the same percept every tick, the lamp held OFF in constant
        # daylight: a pass that ends where it started gives the same block
        # of lines each tick, bar the tick itself
        weights = [("lighting_sensor", "light_switch", -2.5)]
        trace = traced_light({"lighting_sensor": True, "light_switch": True}, weights, ticks=3)
        blocks = [[t._replace(tick=0) for t in trace if t.tick == tick] for tick in range(3)]
        assert blocks[0] and blocks[0] == blocks[1] == blocks[2]
        assert sum(map(len, blocks)) == len(trace)
        transitions = [t for t in trace if t.kind == "fired" and t.detail.startswith("->")]
        assert len(transitions) == 3 * 4

    def test_trace_lines_follow_sense_decide_act_order(self):
        selection = {"lighting_sensor": True, "motion_sensor": True, "light_switch": True}
        trace = traced_light(selection, ticks=5)
        fired = [t.subject for t in trace if t.kind == "fired" and t.tick == 4]
        assert fired == [
            "sense",
            "sensed:lighting_sensor",
            "sensed:motion_sensor",
            "run_network",
            "actuate",
            "actuated:light_switch",
            "rest",
        ]
        assert {t.tick for t in trace if t.kind == "fired"} == set(range(5))


class TestBehaviorChart:
    def test_four_event_cycle_returns_to_start(self):
        config = BEHAVIOR_START
        for event in (EV_SENSE, EV_DECIDE, EV_ACT, EV_TICK_DONE):
            before = config.active
            config, emitted, trace = dispatch(BEHAVIOR_CHART, config, Event(event))
            assert [t.kind for t in trace].count("fired") == 1, event
            assert emitted == []
            assert config.active != before
        assert config == BEHAVIOR_START


OPERABLE = [
    s
    for s in all_selections(device_template())
    if configure_body(list(device_template()), s).is_operable()
]


class TestCompiledPass:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_compiled_walk_equals_interpreter_walk(self, seed):
        # byte for byte, for every operable selection: trace.log's text of
        # the episode kernel, whose pass lines come from the pass compiled at
        # import, against the reference's, whose pass lines are the to_line()
        # lines of an interpreter walk that dispatches every event
        scenario = StreetLightScenario(n_lights=2, episode_ticks=4)
        rng = np.random.default_rng(seed)
        for selection in OPERABLE:
            body = configure_body(list(scenario.devices), selection)
            genotype = Genotype(selection, derive_controller(body, rng=rng))
            sinks = EpisodeTrace(io.StringIO(), io.StringIO())
            run_episode(scenario, genotype, seed, trace=sinks)
            expected = io.StringIO()
            reference_episode(scenario, genotype, seed, trace=expected)
            text, expected_text = sinks.events.getvalue(), expected.getvalue()
            assert text.splitlines(True) == expected_text.splitlines(True)


def chart_variant(drop=None, guard_on=None, entry_action_on=None):
    """The behavior chart without the transition labelled ``drop``, with an
    always-true guard on the one labelled ``guard_on``, or with a no-op entry
    action on state ``entry_action_on``."""
    nodes = [
        replace(n, entry_actions=(lambda ctx: None,)) if n.id == entry_action_on else n
        for n in BEHAVIOR_CHART.nodes.values()
    ]
    transitions = [
        replace(t, guard=lambda snapshot: True) if t.label == guard_on else t
        for t in BEHAVIOR_CHART.transitions
        if t.label != drop
    ]
    return sc.build_chart(nodes, transitions)


VARIANTS = {
    "no_rest": dict(drop="rest"),
    "guard": dict(guard_on="actuate"),
    "entry_action": dict(entry_action_on=P_PROC),
}


class TestCompileGuard:
    # PassNotReplayable, not AssertionError: python -O cannot skip the check
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_rejected(self, variant):
        chart = chart_variant(**VARIANTS[variant])
        with pytest.raises(PassNotReplayable):
            compile_pass(chart, sc.initialize(chart))
