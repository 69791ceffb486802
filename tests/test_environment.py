import itertools

import pytest

from agentchart.body import DeviceSpec, configure_body
from agentchart.environment import ContextRule, Environment, EnvVariable
from agentchart.errors import NonFiniteVariable, UnknownChannel

CATCH_ALL = [ContextRule("default", lambda snap: True)]


def constant(value):
    return lambda t, snap, eff: value


def comm_body(extra=()):
    devices = [
        DeviceSpec("wireless_in", "input", "comm"),
        DeviceSpec("wireless_speaker", "output", "comm"),
    ] + list(extra)
    return configure_body(devices, {d.id: True for d in devices})


def line_env(n=3):
    """n agents on a line, radius-1 neighbors, one constant variable."""
    env = Environment([EnvVariable("x", 0.0, constant(0.0))], CATCH_ALL)
    ids = [f"a{i}" for i in range(n)]
    for i, aid in enumerate(ids):
        env.register_agent(aid, comm_body())
        env.neighbors[aid] = [ids[j] for j in (i - 1, i + 1) if 0 <= j < n]
    return env, ids


class TestApplyEffects:
    def test_effects_accumulate_for_update_rules(self):
        seen = {}

        def rule(t, snap, eff):
            seen.update(eff)
            return snap["bright"] + sum(v for _, v in eff.get("bright", ()))

        env = Environment([EnvVariable("bright", 0.1, rule)], CATCH_ALL)
        body = configure_body([DeviceSpec("lamp", "output", "bright")], {"lamp": True})
        env.register_agent("a0", body)
        env.apply_effects([("a0", {"lamp": 0.25})])
        env.step()
        assert env.values["bright"] == pytest.approx(0.35)
        assert seen == {"bright": [("a0", 0.25)]}

    def test_unknown_channel_rejected(self):
        env = Environment([EnvVariable("x", 0.0, constant(0.0))], CATCH_ALL)
        body = configure_body([DeviceSpec("dev", "output", "ghost_channel")], {"dev": True})
        env.register_agent("a0", body)
        with pytest.raises(UnknownChannel):
            env.apply_effects([("a0", {"dev": 1.0})])

    def test_empty_actions_only_tick_bookkeeping(self):
        env = Environment([EnvVariable("x", 0.4, lambda t, s, e: s["x"])], CATCH_ALL)
        env.apply_effects([])
        env.step()
        assert env.tick == 1
        assert env.values["x"] == 0.4

    def test_comm_delivered_to_both_neighbors_next_tick(self):
        env, ids = line_env(3)
        env.apply_effects([("a0", {"wireless_speaker": 0.2}), ("a2", {"wireless_speaker": 0.6})])
        env.step()
        # hand-enumerated for the 3-agent line: a1 hears both ends,
        # a0 and a2 hear only a1 (which sent nothing)
        assert env.comm_mailbox["a1"] == [("a0", 0.2), ("a2", 0.6)]
        assert env.comm_mailbox["a0"] == []
        assert env.comm_mailbox["a2"] == []

    def test_messages_gone_after_two_ticks(self):
        env, _ = line_env(2)
        env.apply_effects([("a0", {"wireless_speaker": 0.9})])
        env.step()
        assert env.comm_mailbox["a1"] == [("a0", 0.9)]
        env.step()
        assert env.comm_mailbox["a1"] == []


class TestStepEnv:
    def test_constant_rules_are_fixed_points(self):
        env = Environment(
            [EnvVariable("a", 1.5, constant(1.5)), EnvVariable("b", -2.0, constant(-2.0))],
            CATCH_ALL,
        )
        for _ in range(10):
            env.step()
        assert env.values == {"a": 1.5, "b": -2.0}

    def test_simultaneous_update_order_independent(self):
        # each variable reads the other's previous value; any declaration
        # order must give the same snapshot
        def make_vars():
            return {
                "u": EnvVariable("u", 1.0, lambda t, s, e: s["v"] + 1.0),
                "v": EnvVariable("v", 10.0, lambda t, s, e: s["u"] * 2.0),
            }

        results = []
        for order in itertools.permutations(["u", "v"]):
            variables = make_vars()
            env = Environment([variables[k] for k in order], CATCH_ALL)
            env.step()
            results.append(env.values)
        assert results[0] == results[1] == {"u": 11.0, "v": 2.0}

    def test_context_flips_in_same_step(self):
        rules = [
            ContextRule("day", lambda snap: snap["daylight"] >= 0.5),
            ContextRule("night", lambda snap: True),
        ]
        env = Environment([EnvVariable("daylight", 1.0, lambda t, s, e: 0.1)], rules)
        assert env.context == "day"
        env.step()
        assert env.context == "night"

    def test_first_match_wins_by_declaration_order(self):
        rules = [
            ContextRule("first", lambda snap: True),
            ContextRule("second", lambda snap: True),
        ]
        env = Environment([EnvVariable("x", 0.0, constant(0.0))], rules)
        assert env.context == "first"

    def test_missing_catch_all_rejected(self):
        rules = [ContextRule("never", lambda snap: False)]
        with pytest.raises(UnknownChannel):
            Environment([EnvVariable("x", 0.0, constant(0.0))], rules)

    def test_non_finite_variable_rejected(self):
        env = Environment([EnvVariable("x", 0.0, constant(float("inf")))], CATCH_ALL)
        with pytest.raises(NonFiniteVariable):
            env.step()


class TestPerceive:
    def test_sensor_reads_channel_variable(self):
        env = Environment([EnvVariable("brightness", 0.3, constant(0.3))], CATCH_ALL)
        body = configure_body(
            [DeviceSpec("lighting_sensor", "input", "brightness"),
             DeviceSpec("lamp", "output", "brightness")],
            {"lighting_sensor": True, "lamp": True},
        )
        env.register_agent("a0", body)
        assert env.perceive("a0") == {"lighting_sensor": 0.3}

    def test_all_sensors_disabled_gives_empty_percept(self):
        env = Environment([EnvVariable("brightness", 0.3, constant(0.3))], CATCH_ALL)
        body = configure_body([DeviceSpec("lighting_sensor", "input", "brightness")], {})
        env.register_agent("a0", body)
        assert env.perceive("a0") == {}

    def test_comm_percept_is_mean_of_mailbox(self):
        env, _ = line_env(3)
        env.comm_mailbox["a1"] = [("n1", 0.2), ("n2", 0.6)]
        assert env.perceive("a1") == {"wireless_in": pytest.approx(0.4)}

    def test_empty_mailbox_reads_zero(self):
        env, _ = line_env(2)
        assert env.perceive("a0") == {"wireless_in": 0.0}


class TestEmbodimentLoop:
    def test_action_perturbs_variable_which_perturbs_next_percept(self):
        # closed two-tick loop: actuation raises brightness, which the
        # same agent senses on the following tick
        def brightness_rule(t, snap, eff):
            return 0.1 + sum(v for _, v in eff.get("brightness", ()))

        env = Environment([EnvVariable("brightness", 0.1, brightness_rule)], CATCH_ALL)
        body = configure_body(
            [DeviceSpec("lighting_sensor", "input", "brightness"),
             DeviceSpec("lamp", "output", "brightness")],
            {"lighting_sensor": True, "lamp": True},
        )
        env.register_agent("a0", body)
        before = env.perceive("a0")["lighting_sensor"]
        env.apply_effects([("a0", {"lamp": 0.7})])
        env.step()
        after = env.perceive("a0")["lighting_sensor"]
        assert before == pytest.approx(0.1)
        assert after == pytest.approx(0.8)
        env.apply_effects([("a0", {"lamp": 0.0})])
        env.step()
        assert env.perceive("a0")["lighting_sensor"] == pytest.approx(0.1)
