import copy
import hashlib
import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from agentchart.cli import EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from agentchart.config import default_config, load_scenario, resolve_config
from agentchart.errors import ConfigError, RangeError, UnknownKey
from agentchart.evaluation import initial_genotype, run_episode

SMALL = {
    "n_lights": 2,
    "episode_ticks": 15,
    "people": {"rate": 0.5},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SMALL))
    return path


EMPTY_CONTROLLER = {"neurons": [], "connections": []}
SENSOR_SWITCH_NEURONS = [
    {"id": "lighting_sensor", "layer": "input"},
    {"id": "light_switch", "layer": "output"},
]
SENSOR_SWITCH_EDGE = {"id": "c0", "from": "lighting_sensor", "to": "light_switch", "weight": 1.5}


def sensor_switch_agent(neurons=SENSOR_SWITCH_NEURONS, connections=(SENSOR_SWITCH_EDGE,)):
    """A hand-written agent: lighting sensor wired to the light switch."""
    return {
        "selection": {"lighting_sensor": True, "light_switch": True},
        "controller": {"neurons": list(neurons), "connections": list(connections)},
    }


def run_cli(*argv):
    return main([str(a) for a in argv])


def _paths(tree, prefix=()):
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


OTHER_TYPES = st.one_of(
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SAME_TYPE = {
    float: st.one_of(st.floats(), NON_FINITE, st.integers()),
    int: st.one_of(st.integers(), st.floats()),
    str: st.text(max_size=8),
}


@st.composite
def mutated_configs(draw):
    """The default scenario with keys dropped or misspelt, or with values
    of the wrong type, non-finite or out of range."""
    cfg = default_config()
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(cfg))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = cfg
        for part in parents:
            node = node[part]
        action = draw(st.sampled_from(["drop", "misspell", "retype", "perturb"]))
        if action == "drop":
            del node[key]
        elif action == "misspell":
            node[key + draw(st.sampled_from(["s", "_", "X"]))] = node.pop(key)
        elif action == "retype" or type(node[key]) not in SAME_TYPE:
            node[key] = draw(OTHER_TYPES)
        else:
            node[key] = draw(SAME_TYPE[type(node[key])])
    return cfg


def _slots(tree):
    """Every (container, key or index) pair of a JSON tree."""
    for key, value in list(tree.items() if isinstance(tree, dict) else enumerate(tree)):
        yield tree, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated_agents(draw, agent):
    """A saved agent with keys or list items dropped, keys misspelt, or
    values of the wrong type, flipped, non-finite or perturbed."""
    agent = copy.deepcopy(agent)
    same_type = {**SAME_TYPE, bool: st.booleans()}
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(agent))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["drop", "misspell", "retype", "perturb"]))
        if action == "drop":
            del node[key]
        elif action == "misspell" and isinstance(node, dict):
            node[key + draw(st.sampled_from(["s", "_", "X"]))] = node.pop(key)
        elif action == "retype" or type(node[key]) not in same_type:
            node[key] = draw(OTHER_TYPES)
        else:
            node[key] = draw(same_type[type(node[key])])
    return agent


class TestConfig:
    def test_defaults_survive_resolution(self):
        assert resolve_config({}) == default_config()

    def test_partial_override_keeps_other_defaults(self):
        resolved = resolve_config({"n_lights": 3})
        assert resolved["n_lights"] == 3
        assert resolved["episode_ticks"] == 200
        assert resolved["search"]["patience"] == 10

    def test_nested_override(self):
        resolved = resolve_config({"search": {"mutation": {"weight_sigma": 0.9}}})
        assert resolved["search"]["mutation"]["weight_sigma"] == 0.9
        assert resolved["search"]["mutation"]["toggle_prob"] == 0.05

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(UnknownKey, match="search.mutatoin"):
            resolve_config({"search": {"mutatoin": {}}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="n_lights"):
            resolve_config({"n_lights": "ten"})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            resolve_config({"spillover": True})

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError, match="n_lights"):
            resolve_config({"n_lights": 0})


class TestValidateCommand:
    def test_ok(self, scenario_file, capsys):
        assert run_cli("validate", "--scenario", scenario_file) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, shown",
        [
            pytest.param('{"n_lights": 2,}', "line 1", id="trailing_comma"),
            pytest.param('{"spillover": NaN}', "NaN", id="nan"),
            pytest.param('{"spillover": Infinity}', "Infinity", id="inf"),
            pytest.param('{"ambient": {"value": -Infinity}}', "-Infinity", id="minus_inf"),
            pytest.param('{"spillover": 1e999}', "1e999", id="float_overflow"),
            pytest.param('{"spillover": 1%s}' % ("0" * 400), "1000", id="int_overflow"),
        ],
    )
    def test_bad_json_exits_2(self, tmp_path, capsys, text, shown):
        path = tmp_path / "broken.json"
        path.write_text(text)
        assert run_cli("validate", "--scenario", path) == EXIT_PARSE
        err = capsys.readouterr().err
        assert shown in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text('{"n_ligths": 2}')
        assert run_cli("validate", "--scenario", path) == EXIT_PARSE
        assert "n_ligths" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, shown",
        [
            pytest.param({"n_lights": 0}, "n_lights", id="n_lights"),
            pytest.param({"dusk_threshold": 1.5}, "dusk_threshold", id="dusk_threshold"),
            pytest.param(
                {"score": {"target_brightness": -0.1}}, "score.target_brightness",
                id="target_brightness",
            ),
            pytest.param({"ambient": {"period": -1}}, "ambient.period", id="period"),
            pytest.param(
                {"score": {"w_energy": {"day": 1e308}}}, "overflow", id="score_overflow"
            ),
        ],
    )
    def test_range_error_exits_3(self, tmp_path, capsys, data, shown):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run_cli("validate", "--scenario", path) == EXIT_VALIDATION
        assert shown in capsys.readouterr().err

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=mutated_configs())
    def test_mutated_scenarios_exit_cleanly(self, tmp_path, data):
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(data))
        code = run_cli("validate", "--scenario", path)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION)
        if code == EXIT_OK:
            scenario = replace(load_scenario(path).scenario, n_lights=2, episode_ticks=3)
            record, _ = run_episode(scenario, initial_genotype(scenario, 0), 0)
            assert math.isfinite(record.score)


def run_small_search(scenario_file, out_dir, *extra):
    code = run_cli(
        "run",
        "--scenario", scenario_file,
        "--seed", 5,
        "--generations", 4,
        "--lambda", 2,
        "--out", out_dir,
        *extra,
    )
    assert code == EXIT_OK


class TestRunCommand:
    def test_artifacts_written(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        run_small_search(scenario_file, out, "--trace")
        for name in ("metrics.csv", "best_agent.json", "run_manifest.json",
                     "trace.log", "episode.csv"):
            assert (out / name).exists(), name

    def test_metrics_layout(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        run_small_search(scenario_file, out)
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# seed=5 config_digest=")
        assert lines[1] == "generation,best_score,mean_score,command,config_digest"
        # generations=4: one init row plus three search generations
        assert len(lines) == 2 + 4
        assert lines[2].startswith("0,") and lines[2].split(",")[3] == "init"

    def test_manifest_echoes_resolved_config(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        run_small_search(scenario_file, out)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["resolved_config"]["n_lights"] == 2
        assert manifest["resolved_config"]["people"]["rate"] == 0.5
        # untouched keys come back as their documented defaults
        assert manifest["resolved_config"]["spillover"] == 0.5

    def test_reruns_are_byte_identical(self, scenario_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_small_search(scenario_file, out_a, "--trace")
        run_small_search(scenario_file, out_b, "--trace")
        for name in ("metrics.csv", "best_agent.json", "trace.log", "episode.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_artifacts_match_golden_digests(self, scenario_file, tmp_path):
        # a change meant to alter the artifacts updates these digests and
        # says so in CHANGES.md; any other change must leave them as they are
        golden = {
            "metrics.csv": "4e41a13023eb42018850fcd99479b34a2a42656bd96ca239d0264c28671ffc4c",
            "best_agent.json": "f9fb5e47f11a1a2395950f7ce5743d2ac91f17b78af0854ff0d509ce7178164d",
            "trace.log": "aa7141700bfcd4f71c4a4e94ba341577e93b8f1cd1ac78a21e1f80c2155ba9c5",
            "episode.csv": "5b0aef77d5ff6cd9011de2f3f0bec5f30a524bb7698ca6f86cc8ea1a34c5a79c",
        }
        out = tmp_path / "out"
        run_small_search(scenario_file, out, "--trace")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in golden}
        assert digests == golden

    def test_jobs_do_not_change_results(self, scenario_file, tmp_path):
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        run_small_search(scenario_file, out_a)
        run_small_search(scenario_file, out_b, "--jobs", 4)
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "best_agent.json").read_bytes() == (out_b / "best_agent.json").read_bytes()

    def test_ticks_override_recorded_and_applied(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        run_small_search(scenario_file, out, "--ticks", 6, "--trace")
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["ticks_override"] == 6
        assert manifest["resolved_config"]["episode_ticks"] == 6
        rows = (out / "episode.csv").read_text().splitlines()
        assert len(rows) == 1 + 6  # header plus one row per tick

    def test_bad_ticks_exits_3(self, scenario_file, tmp_path, capsys):
        code = run_cli(
            "run", "--scenario", scenario_file, "--seed", 1, "--ticks", 0,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            pytest.param("run", "--generations", 0, id="--generations"),
            pytest.param("run", "--lambda", 0, id="--lambda"),
            pytest.param("run", "--jobs", 0, id="--jobs"),
            pytest.param("run", "--seed", -1, id="--seed"),
            pytest.param("replay", "--seed", -1, id="replay--seed"),
        ],
    )
    def test_bad_count_exits_3(self, scenario_file, tmp_path, capsys, command, flag, value):
        agent = tmp_path / "agent.json"
        agent.write_text(json.dumps(sensor_switch_agent()))
        target = ["--out", tmp_path / "out"] if command == "run" else ["--agent", agent]
        code = run_cli(command, "--scenario", scenario_file, "--seed", 1, flag, value, *target)
        assert code == EXIT_VALIDATION
        assert flag.lstrip("-") in capsys.readouterr().err


@pytest.fixture(scope="module")
def saved_agent(tmp_path_factory):
    """The scenario file and best_agent.json of one small run."""
    root = tmp_path_factory.mktemp("saved")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SMALL))
    run_small_search(scenario, root / "out")
    return scenario, json.loads((root / "out" / "best_agent.json").read_text())


class TestReplayCommand:
    def test_replay_reproduces_recorded_score(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        run_small_search(scenario_file, out)
        capsys.readouterr()
        code = run_cli(
            "replay",
            "--agent", out / "best_agent.json",
            "--scenario", scenario_file,
            "--seed", 5,
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        best = json.loads((out / "best_agent.json").read_text())
        assert f"score={best['score']!r}" in printed
        assert f"config_digest={best['config_digest']}" in printed

    @pytest.mark.parametrize(
        "agent",
        [
            pytest.param({"selection": {}}, id="no_controller"),
            pytest.param({"controller": EMPTY_CONTROLLER}, id="no_selection"),
            pytest.param(
                {"selection": {"laser": True}, "controller": EMPTY_CONTROLLER},
                id="undeclared_device",
            ),
            pytest.param([], id="not_an_object"),
            pytest.param(
                sensor_switch_agent(connections=[{**SENSOR_SWITCH_EDGE, "to": "ghost"}]),
                id="dangling_connection",
            ),
            pytest.param(
                sensor_switch_agent(SENSOR_SWITCH_NEURONS + [{"id": "h0", "layer": "cortex"}]),
                id="unknown_layer",
            ),
            pytest.param(
                sensor_switch_agent(SENSOR_SWITCH_NEURONS[1:], connections=[]),
                id="dropped_neuron",
            ),
            pytest.param(
                sensor_switch_agent(
                    [{**SENSOR_SWITCH_NEURONS[0], "bias": "Infinity"}, SENSOR_SWITCH_NEURONS[1]]
                ),
                id="infinite_bias",
            ),
            pytest.param(
                sensor_switch_agent(connections=[{**SENSOR_SWITCH_EDGE, "weight": "NaN"}]),
                id="nan_weight",
            ),
            pytest.param(
                {
                    "selection": {"lighting_sensor": True, "light_switch": 1},
                    "controller": sensor_switch_agent()["controller"],
                },
                id="non_boolean_selection",
            ),
            pytest.param(
                sensor_switch_agent(
                    [{**SENSOR_SWITCH_NEURONS[0], "enabled": "no"}, SENSOR_SWITCH_NEURONS[1]]
                ),
                id="non_boolean_neuron_flag",
            ),
            pytest.param(
                sensor_switch_agent(connections=[{**SENSOR_SWITCH_EDGE, "enabled": "false"}]),
                id="non_boolean_connection_flag",
            ),
            pytest.param(
                sensor_switch_agent(connections=[{**SENSOR_SWITCH_EDGE, "enable": False}]),
                id="misspelled_connection_flag",
            ),
            pytest.param(
                sensor_switch_agent(
                    [{**SENSOR_SWITCH_NEURONS[0], "weight": 1.0}, SENSOR_SWITCH_NEURONS[1]]
                ),
                id="unknown_neuron_key",
            ),
            pytest.param({**sensor_switch_agent(), "notes": "hand-written"}, id="unknown_top_level_key"),
            pytest.param(
                {
                    "selection": [["lighting_sensor", True], ["light_switch", True]],
                    "controller": sensor_switch_agent()["controller"],
                },
                id="selection_as_pairs",
            ),
            pytest.param(
                {
                    "selection": {"light_switch": True},
                    "controller": {"neurons": SENSOR_SWITCH_NEURONS[1:], "connections": []},
                },
                id="no_enabled_input",
            ),
            pytest.param(
                sensor_switch_agent(
                    [{**SENSOR_SWITCH_NEURONS[0], "enabled": False}, SENSOR_SWITCH_NEURONS[1]]
                ),
                id="disabled_input_neuron",
            ),
            pytest.param(
                sensor_switch_agent(
                    [SENSOR_SWITCH_NEURONS[0], {**SENSOR_SWITCH_NEURONS[1], "enabled": False}]
                ),
                id="disabled_output_neuron",
            ),
        ],
    )
    def test_bad_agent_file_exits_2(self, scenario_file, tmp_path, capsys, agent):
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(agent))
        code = run_cli("replay", "--agent", path, "--scenario", scenario_file, "--seed", 5)
        assert code == EXIT_PARSE
        assert str(path) in capsys.readouterr().err

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_mutated_agent_files_exit_cleanly(self, saved_agent, tmp_path, capsys, data):
        scenario, agent = saved_agent
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(data.draw(mutated_agents(agent))))
        capsys.readouterr()
        code = run_cli("replay", "--agent", path, "--scenario", scenario, "--seed", 5)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION)
        if code == EXIT_OK:
            score = capsys.readouterr().out.splitlines()[0].removeprefix("score=")
            assert math.isfinite(float(score))

    def test_hand_written_agent_replays(self, scenario_file, tmp_path, capsys):
        # the valid agent that the bad cases above are edited from
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(sensor_switch_agent()))
        code = run_cli("replay", "--agent", path, "--scenario", scenario_file, "--seed", 5)
        assert code == EXIT_OK
        assert "score=" in capsys.readouterr().out
