import itertools

import pytest

from agentchart.body import DeviceSpec, configure_body
from agentchart.environment import Environment
from agentchart.errors import NonFiniteVariable, UnknownChannel, UnknownDevice


def CATCH_ALL(values):
    return "default"


def constant_env(**values):
    """An environment whose update keeps every variable at its initial value."""
    return Environment(values, lambda t, snap, eff: dict(values), CATCH_ALL)


def comm_body(extra=()):
    devices = [
        DeviceSpec("wireless_in", "input", "comm"),
        DeviceSpec("wireless_speaker", "output", "comm"),
    ] + list(extra)
    return configure_body(devices, {d.id: True for d in devices})


def line_env(n=3):
    """n agents on a line, radius-1 neighbors, one constant variable."""
    env = constant_env(x=0.0)
    ids = [f"a{i}" for i in range(n)]
    for i, aid in enumerate(ids):
        env.register_agent(aid, comm_body())
        env.neighbors[aid] = [ids[j] for j in (i - 1, i + 1) if 0 <= j < n]
    return env, ids


class TestApplyEffects:
    def test_effects_accumulate_for_update_rules(self):
        seen = {}

        def update(t, snap, eff):
            seen.update(eff)
            return {"bright": snap["bright"] + sum(v for _, v in eff.get("bright", ()))}

        env = Environment({"bright": 0.1}, update, CATCH_ALL)
        body = configure_body([DeviceSpec("lamp", "output", "bright")], {"lamp": True})
        env.register_agent("a0", body)
        env.step([("a0", {"lamp": 0.25})])
        assert env.values["bright"] == pytest.approx(0.35)
        assert seen == {"bright": [("a0", 0.25)]}

    def test_unknown_channel_rejected(self):
        # checked once, when the agent is registered
        env = constant_env(x=0.0)
        body = configure_body([DeviceSpec("dev", "output", "ghost_channel")], {"dev": True})
        with pytest.raises(UnknownChannel):
            env.register_agent("a0", body)

    def test_unknown_sensor_variable_rejected(self):
        env = constant_env(x=0.0)
        body = configure_body([DeviceSpec("eye", "input", "ghost_variable")], {"eye": True})
        with pytest.raises(UnknownChannel):
            env.register_agent("a0", body)

    def test_disabled_device_channel_not_checked(self):
        env = constant_env(x=0.0)
        body = configure_body([DeviceSpec("dev", "output", "ghost_channel")], {})
        env.register_agent("a0", body)
        assert env.perceive("a0") == {}

    @pytest.mark.parametrize(
        "device_id,selection",
        [
            pytest.param("lamp", {"lamp": False, "eye": True}, id="disabled_output"),
            pytest.param("eye", {"lamp": True, "eye": True}, id="input_device"),
            pytest.param("ghost", {"lamp": True, "eye": True}, id="undeclared_device"),
        ],
    )
    def test_action_must_name_an_enabled_output(self, device_id, selection):
        env = Environment({"bright": 0.1}, lambda t, s, e: {"bright": s["bright"]}, CATCH_ALL)
        devices = [DeviceSpec("lamp", "output", "bright"), DeviceSpec("eye", "input", "bright")]
        env.register_agent("a0", configure_body(devices, selection))
        with pytest.raises(UnknownDevice):
            env.step([("a0", {device_id: 0.5})])
        assert env.tick == 0
        assert env.values == {"bright": 0.1}

    def test_empty_actions_only_tick_bookkeeping(self):
        env = Environment({"x": 0.4}, lambda t, s, e: {"x": s["x"]}, CATCH_ALL)
        env.step([])
        assert env.tick == 1
        assert env.values["x"] == 0.4

    def test_comm_delivered_to_both_neighbors_next_tick(self):
        env, ids = line_env(3)
        env.step([("a0", {"wireless_speaker": 0.2}), ("a2", {"wireless_speaker": 0.6})])
        # hand-enumerated for the 3-agent line: a1 hears both ends,
        # a0 and a2 hear only a1 (which sent nothing)
        assert env.comm_mailbox["a1"] == [("a0", 0.2), ("a2", 0.6)]
        assert env.comm_mailbox["a0"] == []
        assert env.comm_mailbox["a2"] == []

    def test_messages_gone_after_two_ticks(self):
        env, _ = line_env(2)
        env.step([("a0", {"wireless_speaker": 0.9})])
        assert env.comm_mailbox["a1"] == [("a0", 0.9)]
        env.step()
        assert env.comm_mailbox["a1"] == []


class TestStepEnv:
    def test_constant_rules_are_fixed_points(self):
        env = constant_env(a=1.5, b=-2.0)
        for _ in range(10):
            env.step()
        assert env.values == {"a": 1.5, "b": -2.0}

    def test_simultaneous_update_order_independent(self):
        # each variable reads the other's previous value; whatever order the
        # update writes its keys in, it must give the same snapshot
        formulas = {"u": lambda s: s["v"] + 1.0, "v": lambda s: s["u"] * 2.0}

        def update_in(order):
            return lambda t, s, e: {k: formulas[k](s) for k in order}

        results = []
        for order in itertools.permutations(["u", "v"]):
            env = Environment({"u": 1.0, "v": 10.0}, update_in(order), CATCH_ALL)
            env.step()
            results.append(env.values)
        assert results[0] == results[1] == {"u": 11.0, "v": 2.0}

    def test_context_flips_in_same_step(self):
        def context(values):
            return "day" if values["daylight"] >= 0.5 else "night"

        env = Environment({"daylight": 1.0}, lambda t, s, e: {"daylight": 0.1}, context)
        assert env.context == "day"
        env.step()
        assert env.context == "night"

    def test_non_finite_variable_rejected(self):
        env = Environment({"x": 0.0}, lambda t, s, e: {"x": float("inf")}, CATCH_ALL)
        with pytest.raises(NonFiniteVariable):
            env.step()

    def test_non_finite_initial_value_rejected(self):
        # built as the street lights build theirs, from the update at tick 0;
        # a NaN there was once handed out by perceive
        def update(t, s, e):
            return {"x": float("nan") if t == 0 else 0.0, "y": 1.0}

        with pytest.raises(NonFiniteVariable):
            Environment(update(0, {}, {}), update, CATCH_ALL)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "update",
        [
            pytest.param(lambda t, s, e: {**s, "extra": 0.0}, id="added"),
            pytest.param(lambda t, s, e: {"x": s["x"]}, id="dropped"),
        ],
    )
    def test_update_must_return_every_variable(self, update, traced):
        env = Environment({"x": 0.0, "y": 1.0}, update, CATCH_ALL)
        with pytest.raises(UnknownChannel):
            env.step([], [] if traced else None)


class TestPerceive:
    def test_sensor_reads_channel_variable(self):
        env = constant_env(brightness=0.3)
        body = configure_body(
            [DeviceSpec("lighting_sensor", "input", "brightness"),
             DeviceSpec("lamp", "output", "brightness")],
            {"lighting_sensor": True, "lamp": True},
        )
        env.register_agent("a0", body)
        assert env.perceive("a0") == {"lighting_sensor": 0.3}

    def test_all_sensors_disabled_gives_empty_percept(self):
        env = constant_env(brightness=0.3)
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
        def update(t, snap, eff):
            return {"brightness": 0.1 + sum(v for _, v in eff.get("brightness", ()))}

        env = Environment({"brightness": 0.1}, update, CATCH_ALL)
        body = configure_body(
            [DeviceSpec("lighting_sensor", "input", "brightness"),
             DeviceSpec("lamp", "output", "brightness")],
            {"lighting_sensor": True, "lamp": True},
        )
        env.register_agent("a0", body)
        before = env.perceive("a0")["lighting_sensor"]
        env.step([("a0", {"lamp": 0.7})])
        after = env.perceive("a0")["lighting_sensor"]
        assert before == pytest.approx(0.1)
        assert after == pytest.approx(0.8)
        env.step([("a0", {"lamp": 0.0})])
        assert env.perceive("a0")["lighting_sensor"] == pytest.approx(0.1)
