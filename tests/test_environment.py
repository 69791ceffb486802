import io
import itertools
import math

import pytest

from agentchart.body import DeviceSpec, configure_body
from agentchart.environment import Environment, comm_mean
from agentchart.errors import NonFiniteVariable, UnknownChannel, UnknownDevice


def CATCH_ALL(row):
    return "default"


def constant_env(**values):
    """An environment whose update keeps every variable at its initial value."""
    return Environment(values, lambda t, row, eff: list(row), CATCH_ALL)


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

        def update(t, row, eff):
            seen.update(eff)
            return [row[0] + sum(v for _, v in eff.get("bright", ()))]

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
        env = Environment({"bright": 0.1}, lambda t, r, e: list(r), CATCH_ALL)
        devices = [DeviceSpec("lamp", "output", "bright"), DeviceSpec("eye", "input", "bright")]
        env.register_agent("a0", configure_body(devices, selection))
        with pytest.raises(UnknownDevice):
            env.step([("a0", {device_id: 0.5})])
        assert env.tick == 0
        assert env.values == {"bright": 0.1}

    def test_empty_actions_only_tick_bookkeeping(self):
        env = Environment({"x": 0.4}, lambda t, r, e: list(r), CATCH_ALL)
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
        # update fills its row in, it must give the same row
        names = ("u", "v")
        formulas = {"u": lambda r: r[1] + 1.0, "v": lambda r: r[0] * 2.0}

        def update_in(order):
            def update(t, r, e):
                row = [None, None]
                for name in order:
                    row[names.index(name)] = formulas[name](r)
                return row

            return update

        results = []
        for order in itertools.permutations(names):
            env = Environment({"u": 1.0, "v": 10.0}, update_in(order), CATCH_ALL)
            env.step()
            results.append(env.row)
        assert results[0] == results[1] == [11.0, 2.0]
        assert env.values == {"u": 11.0, "v": 2.0}

    def test_names_keep_the_initial_order(self):
        env = Environment({"z": 3.0, "a": 1.0, "m": 2.0}, lambda t, r, e: list(r), CATCH_ALL)
        assert env.names == ("z", "a", "m")
        assert env.row == [3.0, 1.0, 2.0]
        assert list(env.values.items()) == [("z", 3.0), ("a", 1.0), ("m", 2.0)]

    def test_values_is_a_read_only_view_of_the_row(self):
        env = constant_env(x=0.5)
        with pytest.raises(TypeError):
            env.values["x"] = 1.0
        assert env.row == [0.5]

    def test_context_flips_in_same_step(self):
        def context(row):
            return "day" if row[0] >= 0.5 else "night"

        env = Environment({"daylight": 1.0}, lambda t, r, e: [0.1], context)
        assert env.context == "day"
        env.step()
        assert env.context == "night"

    def test_context_reads_the_new_row(self):
        seen = []

        def context(row):
            seen.append(list(row))
            return "default"

        env = Environment({"x": 0.0, "y": 5.0}, lambda t, r, e: [r[0] + 1.0, r[1]], context)
        env.step()
        env.step()
        assert seen == [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]

    def test_non_finite_variable_rejected(self):
        env = Environment({"x": 0.0, "y": 0.0}, lambda t, r, e: [0.0, float("inf")], CATCH_ALL)
        with pytest.raises(NonFiniteVariable, match="'y'"):
            env.step()

    def test_non_finite_initial_value_rejected(self):
        # built as the street lights build theirs, from the update at tick 0;
        # a NaN there was once handed out by perceive
        def update(t, r, e):
            return [float("nan") if t == 0 else 0.0, 1.0]

        with pytest.raises(NonFiniteVariable, match="'x'"):
            Environment(dict(zip("xy", update(0, [], {}))), update, CATCH_ALL)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "update",
        [
            pytest.param(lambda t, r, e: [*r, 0.0], id="added"),
            pytest.param(lambda t, r, e: r[:1], id="dropped"),
        ],
    )
    def test_update_must_return_every_variable(self, update, traced):
        # a row longer or shorter than the names; traced, the tick runs as a
        # traced episode runs it, through advance(), whose perturbed lines are
        # written only once it returns, so none is
        env = Environment({"x": 0.0, "y": 1.0}, update, CATCH_ALL)
        sink = io.StringIO()
        with pytest.raises(UnknownChannel, match=r"\['x', 'y'\]"):
            if traced:
                env.advance({})
                sink.write("".join(f"{env.tick}\tenv\tperturbed\t{n}\n" for n in env.names))
            else:
                env.step([])
        assert sink.getvalue() == "" and env.tick == 0 and env.row == [0.0, 1.0]

    @pytest.mark.parametrize(
        "bad_row",
        [
            pytest.param(lambda r: [*r, 0.0], id="longer"),
            pytest.param(lambda r: r[:1], id="shorter"),
            pytest.param(lambda r: [r[0], math.nan], id="non_finite"),
        ],
    )
    def test_bad_row_raises_before_its_tick_reaches_the_trace(self, bad_row):
        # tick 2's row is bad: the environment keeps nothing of the tick and
        # stays at tick 1, so a traced episode, which writes a tick's emitted
        # and perturbed lines once advance() returns, writes none of them
        # (test_evaluation's test_bad_row_writes_nothing_of_its_tick)
        def update(t, r, e):
            row = [r[0] + 1.0, r[1]]
            return bad_row(row) if t == 2 else row

        env = Environment({"x": 0.0, "y": 1.0}, update, CATCH_ALL, {"a0": ["a1"], "a1": ["a0"]})
        for aid in ("a0", "a1"):
            env.register_agent(aid, comm_body())
        env.step([("a0", {"wireless_speaker": 0.5})])
        row, context = env.row, env.context
        with pytest.raises((UnknownChannel, NonFiniteVariable)):
            env.step([("a1", {"wireless_speaker": 0.25})])
        assert env.tick == 1 and env.row is row and row == [1.0, 1.0]
        assert env.context == context
        assert env.comm_mailbox == {"a0": [], "a1": [("a0", 0.5)]}


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

    def test_mean_adds_left_to_right_on_every_python(self):
        # sum() gives 1.0 for this triple from Python 3.12 (compensated) and
        # 0.0 before; the left-to-right fold gives 0.0 everywhere
        assert comm_mean([("n0", 1e16), ("n1", 1.0), ("n2", -1e16)]) == 0.0
        # and, starting from the int 0 as sum() does, turns -0.0 into 0.0
        assert math.copysign(1.0, comm_mean([("n0", -0.0)])) == 1.0


class TestEmbodimentLoop:
    def test_action_perturbs_variable_which_perturbs_next_percept(self):
        # closed two-tick loop: actuation raises brightness, which the
        # same agent senses on the following tick
        def update(t, row, eff):
            return [0.1 + sum(v for _, v in eff.get("brightness", ()))]

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
