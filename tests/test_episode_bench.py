"""tools/episode_bench.py pairs a base revision against the working tree; these
checks keep its metric list in step with BENCHMARK.json and its in-process
sample runnable against the current program."""

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = runpy.run_path(str(ROOT / "tools" / "episode_bench.py"))
IN_PROCESS = {"episode_s", "traced_episode_s", "traced_run_heap_mb"}


def test_metrics_follow_the_benchmark():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {
        f"{workload['name']}/{metric['name']}": metric["better"]
        for workload in benchmark["workloads"]
        for metric in benchmark["end_to_end"]
    }
    own = {name: "lower" for name in IN_PROCESS | {"big_run_maxrss_mb"}}
    assert TOOL["METRICS"] == {**gated, **own}


def test_measure_gives_the_in_process_metrics():
    sample = TOOL["measure"](TOOL["SEED"])
    assert IN_PROCESS <= set(sample)
    assert all(sample[name] > 0 for name in IN_PROCESS)
    untraced, traced = sample["scores"]
    assert traced == untraced
    assert sample["trace_events"] > 0


def test_work_counts_count_and_unwrap():
    from agentchart import controller, evaluation
    from agentchart.streetlight import StreetLightScenario

    wrapped = (evaluation.run_episode, StreetLightScenario.build_env, controller.sigmoid)
    counts = TOOL["work_counts"](range(1000, 1001))
    assert (evaluation.run_episode, StreetLightScenario.build_env, controller.sigmoid) == wrapped
    # every candidate is one call; a memo hit runs no kernel, a tick hit no update
    assert counts["run_episode_calls"] == 1 + 4 * (TOOL["COUNT_GENERATIONS"] - 1)
    assert 0 < counts["kernel_runs"] < counts["run_episode_calls"]
    assert 0 < counts["update_calls"] < counts["kernel_runs"] * StreetLightScenario().episode_ticks
    # every call is of one class: inoperable, served without a kernel run, or run
    classes = counts["inoperable_calls"] + counts["served_calls"] + counts["kernel_runs"]
    assert classes == counts["run_episode_calls"] and counts["served_calls"] > 0
    # each kernel run of the default scenario steps 10 lights x 200 ticks
    assert counts["kernel_agent_ticks"] == counts["kernel_runs"] * 2_000
    # a served call is served by one score key: (), fixed levels or a repeat
    served = ("lampless", "fixed_levels", "repeat")
    assert sum(counts[f"served_{kind}_calls"] for kind in served) == counts["served_calls"]
    assert counts["served_lampless_calls"] > 0 and counts["served_repeat_calls"] > 0
    # the kernel decides most lamps from their sums, with no sigmoid: fewer
    # sigmoids than agent-ticks, in each of which a lamp stepped took one
    assert 0 < counts["kernel_sigmoid_calls"] < counts["kernel_agent_ticks"]
    assert TOOL["UNGATED"] == {"kernel_sigmoid_calls"} and TOOL["UNGATED"] < set(counts)
